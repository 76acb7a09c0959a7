"""The CI workflow's pytest steps select tests that exist: a renamed test
class or function must not drop out of a step unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def step_selectors():
    """{step name: its pytest selectors} for each step that names tests."""
    steps = {}
    for step in re.split(r"\n      - name: ", WORKFLOW.read_text())[1:]:
        selectors = re.findall(r"tests/\w+\.py(?:::[\w\[\]-]+)*", step)
        if selectors:
            steps[step.splitlines()[0]] = selectors
    return steps


def test_the_workflow_has_steps_with_selectors():
    steps = step_selectors()
    assert len(steps) >= 2
    assert any("tests/test_network.py::TestDense1Worker" in s for s in steps.values())


def test_every_selector_of_a_step_collects_tests():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    for step, selectors in step_selectors().items():
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *selectors],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (step, done.stdout[-2000:] + done.stderr[-2000:])
        ids = [line for line in done.stdout.splitlines() if line.startswith("tests/")]
        for selector in selectors:
            assert any(i == selector or i.startswith((selector + "::", selector + "[")) for i in ids), (step, selector)
