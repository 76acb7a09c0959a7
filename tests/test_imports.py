"""numpy is the only runtime dependency: every module of the package
imports nothing but the standard library, numpy and the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tunneldetect"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tunneldetect"}


def test_runtime_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert foreign == []
