"""What the benchmark harness in perfbench/ relies on of the package.

perfbench/child.py patches package functions by module and name, and
perfbench/checks.py reads models through `model_store.load` and scores
them with its own forward pass. Both are imported here unchanged, so a
rename or a format change that would break the benchmark fails here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tunneldetect import evaluation, model_store
from tunneldetect.network import Hyperparams, init_params
from tunneldetect.training import count_parameters

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load("child")
checks = _load("checks")

PATCHED = sorted(
    {(module, function) for module, function, _ in child.TRACED}
    | {target for targets in child.FIRST_WORK.values() for target in targets}
)


@pytest.mark.parametrize("module, function", PATCHED, ids=[f"{m}.{f}" for m, f in PATCHED])
def test_patched_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"tunneldetect.{module}"), function, None))


def test_checks_model_agrees_with_score(tmp_path):
    hp = Hyperparams(nf=5, ks=3, sl=2, d=4, l=16, hn=3)
    params = init_params(hp, seed=12)
    rng = np.random.default_rng(12)
    params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
    params.dense1_b[:] = rng.normal(0, 0.3, size=hp.hn)
    path = tmp_path / "model.bin"
    model_store.save(params, hp, path)

    model = checks.Model(path)
    assert checks.check_model(model, hp, is_reference=False) == []
    assert model.parameter_count() == count_parameters(hp)
    names = ["example.com", "a1b2c3.t.example.org", "UPPER.Case.net", "x", "bad_char!.com", "q" * 40 + ".io",
             "ÿ.com", "İstanbul.tr"]
    got = model.probabilities(names)
    want = evaluation.score(params, hp, names)
    assert max(abs(got[n] - p) for n, p in zip(names, want)) <= checks.PROB_TOL
