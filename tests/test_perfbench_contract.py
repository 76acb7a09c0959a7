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

from tunneldetect import evaluation, model_store, training
from tunneldetect.network import Hyperparams, init_params
from tunneldetect.training import TrainConfig, count_parameters

from conftest import make_separable_corpus

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


def saved_model(path):
    hp = Hyperparams(nf=5, ks=3, sl=2, d=4, l=16, hn=3)
    params = init_params(hp, seed=12)
    rng = np.random.default_rng(12)
    params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
    params.dense1_b[:] = rng.normal(0, 0.3, size=hp.hn)
    model_store.save(params, hp, path)
    return params, hp


def test_load_without_dtype_is_float64_bitwise(tmp_path):
    # checks.Model loads with no dtype; its reference forward and the
    # 1e-6 scatter check need exactly the float64 weights save wrote
    params, _hp = saved_model(tmp_path / "model.bin")
    loaded, _, _ = model_store.load(tmp_path / "model.bin")
    for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
        assert b.dtype == np.float64, name
        assert b.tobytes() == a.tobytes(), name


def test_checks_model_agrees_with_score(tmp_path):
    path = tmp_path / "model.bin"
    params, hp = saved_model(path)

    model = checks.Model(path)
    assert checks.check_model(model, hp, is_reference=False) == []
    assert model.parameter_count() == count_parameters(hp)
    names = ["example.com", "a1b2c3.t.example.org", "UPPER.Case.net", "x", "bad_char!.com", "q" * 40 + ".io",
             "ÿ.com", "İstanbul.tr"]
    got = model.probabilities(names)
    want = evaluation.score(params, hp, names)
    assert max(abs(got[n] - p) for n, p in zip(names, want)) <= checks.PROB_TOL


def test_train_calls_backward_then_adam_step_once_per_step(monkeypatch):
    # child.py marks train's first unit of work at backward_batch, counts
    # its rows from args[2], and times a step from the backward_batch
    # span to the adam_step span
    for function in ("backward_batch", "adam_step"):
        monkeypatch.setattr(training, function, getattr(training, function))
    tracer = child.Tracer()
    tracer.wrap(training, "backward_batch", "network.backward_batch", child._rows)
    tracer.wrap(training, "adam_step", "training.adam_step")
    hp = Hyperparams(nf=4, ks=3, sl=1, d=4, l=12, hn=3)
    training.train(make_separable_corpus(25, seed=4), hp, TrainConfig(epochs=2, batch_size=16, seed=1))
    steps = [("network.backward_batch", rows) for rows in (16, 16, 16, 2)] * 2
    want = [span for step in steps for span in (step, ("training.adam_step", 0))]
    assert [(name, work) for name, _, _, _, work in tracer.spans] == want
    assert all(parent == -1 for _, _, _, parent, _ in tracer.spans)
