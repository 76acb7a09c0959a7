"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured values once its assertions hold (run with `pytest -s` to see
them). The desk-scale training criterion is the long one; everything
else finishes in seconds.
"""

import time

import numpy as np
import pytest

from tunneldetect import datagen
from tunneldetect.cli import main
from tunneldetect.datagen import LABEL_NORMAL, LABEL_TUNNELING
from tunneldetect.evaluation import (
    compute_metrics,
    is_tunneling,
    predict_samples,
    score,
)
from tunneldetect.model_store import (
    ChecksumError,
    MAGIC,
    ShapeMismatchError,
    TruncatedModelError,
    load,
    save,
)
from tunneldetect.network import (
    DEFAULT_HYPERPARAMS,
    forward_batch,
    init_params,
)
from tunneldetect.tokenizer import encode_batch
from tunneldetect.training import (
    TrainConfig,
    count_parameters,
    kfold_cross_validate,
    stratified_folds,
    train,
)

from conftest import make_separable_corpus
from oracles import (
    GRADCHECK_CASES,
    KINK_CLEARANCE,
    gathered_backward,
    gradcheck_inputs,
    gradient_relative_error,
    numeric_gradients,
    recount_metrics,
    relu_kink_clearance,
)

# How far evaluate's and classify's float32 probabilities may lie from
# float64 scoring:
# perfbench's PROB_TOL for classify output
FLOAT32_PROB_TOL = 1e-4


def test_criterion_1_parameter_count_exact():
    start = time.time()
    counted = count_parameters(DEFAULT_HYPERPARAMS)
    assert counted == 11_425_685
    params = init_params(DEFAULT_HYPERPARAMS, seed=0)
    allocated = sum(a.size for _, a in params.arrays())
    assert allocated == 11_425_685
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: parameter count {counted:,} == allocation {allocated:,} "
          f"({elapsed:.2f}s)")


def test_criterion_2_gradient_correctness():
    start = time.time()
    assert len(GRADCHECK_CASES) >= 5
    worst_overall = 0.0
    for hp, batch_size, seed, lengths in GRADCHECK_CASES:
        assert hp.l <= 8 and hp.nf <= 8 and hp.d <= 6 and hp.hn <= 4
        params = init_params(hp, seed)
        x, y = gradcheck_inputs(hp, batch_size, seed, lengths)
        clearance = relu_kink_clearance(params, hp, x)
        assert clearance > KINK_CLEARANCE, (
            f"seed {seed}: pre-activation {clearance:.2e} too close to a ReLU kink "
            f"for a clean finite-difference probe"
        )
        analytic, _ = gathered_backward(params, hp, x, y)
        numeric = numeric_gradients(params, hp, x, y, h=1e-4)
        worst = gradient_relative_error(analytic, numeric)
        assert worst < 1e-4, f"seed {seed}: worst relative error {worst:.3e}"
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: {len(GRADCHECK_CASES)} configurations, worst relative "
          f"error {worst_overall:.2e} < 1e-4 ({elapsed:.1f}s)")


def test_criterion_3_metrics_oracle():
    from test_evaluation import columns, make_prediction, random_prediction_set

    rng = np.random.default_rng(42)
    for _ in range(1000):
        samples, probs = random_prediction_set(rng)
        threshold = float(rng.uniform(0.05, 0.95))
        report = compute_metrics(samples, probs, threshold)
        truths = [s.label for s in samples]
        verdicts = [
            LABEL_TUNNELING if p >= threshold else LABEL_NORMAL
            for p in probs
        ]
        for positive in (LABEL_NORMAL, LABEL_TUNNELING):
            m = report.per_class[positive]
            got = (m.precision, m.recall, m.fpr, m.f1, m.support)
            assert got == recount_metrics(truths, verdicts, positive)

    # the reference precision/recall pair must reproduce its F1
    preds = (
        [make_prediction(0.1, "n") for _ in range(1717)]
        + [make_prediction(0.9, "n") for _ in range(9)]
        + [make_prediction(0.1, "t") for _ in range(121)]
        + [make_prediction(0.9, "t") for _ in range(1465)]
    )
    m = compute_metrics(*columns(preds), 0.5).per_class[LABEL_NORMAL]
    assert m.precision == pytest.approx(0.9342, abs=5e-5)
    assert m.recall == pytest.approx(0.9948, abs=5e-5)
    assert abs(m.f1 - 0.9635) <= 0.0005
    print(f"\nPASS criterion 3: 1000 random sets match brute-force recount exactly; "
          f"precision 0.9342 / recall 0.9948 -> F1 {m.f1:.4f} (within 0.0005 of 0.9635)")


@pytest.fixture(scope="module")
def desk_model(tmp_path_factory):
    """Criterion 4's model: the reference configuration trained 10 epochs
    on four of five stratified folds of a desk-scale corpus. Returns the
    held-out fold's samples, the model file and the seconds spent
    building the corpus and training."""
    start = time.time()
    spec = datagen.desk_scale_spec(seed=2026, per_class=2000)
    corpus = datagen.build_corpus(spec)
    assert len(corpus) == 4000
    held_out = set(stratified_folds([s.label for s in corpus], 5, seed=2026)[0])
    train_set = [s for i, s in enumerate(corpus) if i not in held_out]
    test_set = [corpus[i] for i in sorted(held_out)]
    assert len(train_set) == 3200 and len(test_set) == 800

    cfg = TrainConfig(epochs=10, batch_size=128, seed=2026)
    path = tmp_path_factory.mktemp("desk") / "model.bin"
    save(train(train_set, DEFAULT_HYPERPARAMS, cfg), DEFAULT_HYPERPARAMS, path)
    return test_set, path, time.time() - start


@pytest.mark.slow
def test_criterion_4_desk_scale_training_target(desk_model):
    test_set, path, train_seconds = desk_model
    start = time.time()
    params, _hp, _vocab = load(path)
    probs = predict_samples(params, DEFAULT_HYPERPARAMS, test_set)
    at_05 = compute_metrics(test_set, probs, 0.5).per_class[LABEL_TUNNELING]
    at_09 = compute_metrics(test_set, probs, 0.90).per_class[LABEL_TUNNELING]
    elapsed = train_seconds + time.time() - start

    assert at_05.f1 >= 0.95, f"tunneling F1 at 0.5 = {at_05.f1:.4f}"
    assert at_09.recall >= 0.90, f"tunneling recall at 0.90 = {at_09.recall:.4f}"
    assert elapsed <= 900.0, f"ran {elapsed:.0f}s, budget is 15 minutes"
    print(f"\nPASS criterion 4: tunneling F1@0.5 = {at_05.f1:.4f} (>= 0.95), "
          f"recall@0.90 = {at_09.recall:.4f} (>= 0.90), {elapsed:.0f}s (<= 900s)")


@pytest.mark.slow
def test_float32_scoring_matches_float64_on_desk_model(desk_model):
    # evaluate and classify score with the weights loaded as float32, so
    # this bound also guards the metrics evaluate reports; training,
    # k-fold CV and criterion 4 above stay float64
    test_set, path, _ = desk_model
    names = [s.name for s in test_set]
    p64 = score(load(path)[0], DEFAULT_HYPERPARAMS, names)
    p32 = score(load(path, np.float32)[0], DEFAULT_HYPERPARAMS, names)
    worst = float(np.abs(p32 - p64).max())
    assert worst <= FLOAT32_PROB_TOL, f"max |p32 - p64| = {worst:.2e}"
    for threshold in (0.5, 0.9):
        near = np.abs(p64 - threshold) <= FLOAT32_PROB_TOL
        flipped = is_tunneling(p32, threshold) != is_tunneling(p64, threshold)
        assert not (flipped & ~near).any(), [n for n, f in zip(names, flipped & ~near) if f]
    print(f"\nPASS float32 scoring: max |p32 - p64| = {worst:.2e} (<= {FLOAT32_PROB_TOL:g}) over "
          f"{len(names)} held-out names; verdicts at 0.5 and 0.9 agree but within {FLOAT32_PROB_TOL:g} "
          f"of the threshold ({int(np.sum(np.abs(p64 - 0.5) <= FLOAT32_PROB_TOL))} and "
          f"{int(np.sum(np.abs(p64 - 0.9) <= FLOAT32_PROB_TOL))} names there)")


def test_criterion_5_threshold_monotonicity():
    from test_evaluation import random_prediction_set

    rng = np.random.default_rng(7)
    for _ in range(50):
        samples, probs = random_prediction_set(rng, 120)
        previous = None
        previous_recall = None
        for t in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]:
            called = is_tunneling(probs, t)
            detected = frozenset(s.name for s, c in zip(samples, called) if c)
            recall = compute_metrics(samples, probs, t).per_class[LABEL_TUNNELING].recall
            if previous is not None:
                assert detected <= previous
                assert recall <= previous_recall + 1e-15
            previous, previous_recall = detected, recall
    print("\nPASS criterion 5: detected sets shrink by inclusion and tunneling recall "
          "is non-increasing over thresholds 0.1..0.9 on 50 random prediction sets")


def test_criterion_6_end_to_end_determinism(tmp_path):
    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        corpus = base / "corpus.csv"
        model = base / "model.bin"
        report = base / "report.json"
        assert main(["generate-data", "--out", str(corpus), "--seed", "13",
                     "--per-class", "60"]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(model),
                     "--hp", "nf=8 ks=3 sl=1 d=8 l=16 hn=8",
                     "--epochs", "3", "--batch", "32", "--seed", "13"]) == 0
        assert main(["evaluate", "--model", str(model), "--corpus", str(corpus),
                     "--threshold", "0.5", "--report", str(report)]) == 0
        return corpus.read_bytes(), model.read_bytes(), report.read_bytes()

    first = run("one")
    second = run("two")
    assert first[0] == second[0], "corpus files differ"
    assert first[1] == second[1], "model files differ"
    assert first[2] == second[2], "metric reports differ"
    print("\nPASS criterion 6: two seeded generate-data -> train -> evaluate runs "
          "produced bitwise-identical corpus, model and report files")


def test_criterion_7_serialization(tmp_path):
    hp = DEFAULT_HYPERPARAMS
    params = init_params(hp, seed=77)
    path = tmp_path / "model.bin"
    save(params, hp, path)
    loaded, loaded_hp, _ = load(path)

    rng = np.random.default_rng(77)
    alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789-._")
    names = [
        "".join(rng.choice(alphabet, size=int(rng.integers(3, 60))))
        for _ in range(100)
    ]
    x = encode_batch(names, hp.l)
    before = forward_batch(params, hp, x)
    after = forward_batch(loaded, loaded_hp, x)
    np.testing.assert_array_equal(before, after)

    blob = path.read_bytes()

    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(TruncatedModelError):
        load(truncated)

    flipped = tmp_path / "flipped.bin"
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    flipped.write_bytes(bytes(corrupt))
    with pytest.raises(ChecksumError):
        load(flipped)

    import struct
    import zlib

    lying = tmp_path / "lying.bin"
    corrupt = bytearray(blob)
    hn_offset = len(MAGIC) + 4 + 5 * 4
    struct.pack_into("<I", corrupt, hn_offset, hp.hn // 2)
    body = bytes(corrupt[:-4])
    lying.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ShapeMismatchError):
        load(lying)

    print("\nPASS criterion 7: save/load round-trip bitwise-equal on 100 random domains; "
          "truncation, checksum and shape corruptions raise their distinct errors")


def test_criterion_8_five_fold_harness():
    corpus = make_separable_corpus(60, seed=8)
    labels = [s.label for s in corpus]
    folds = stratified_folds(labels, 5, seed=8)

    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(len(corpus))), "folds are not a partition"
    per_class = {lbl: labels.count(lbl) for lbl in set(labels)}
    for fold in folds:
        for lbl, total in per_class.items():
            got = sum(1 for i in fold if labels[i] == lbl)
            assert abs(got - total / 5) < 1.0 + 1e-9, "fold class ratio off by > 1 sample"

    from tunneldetect.network import Hyperparams

    hp = Hyperparams(nf=8, ks=3, sl=1, d=8, l=10, hn=8)
    mean_f1, sd_f1 = kfold_cross_validate(
        corpus, hp, TrainConfig(epochs=10, batch_size=8, seed=8), k=5
    )
    assert mean_f1 == 1.0
    assert sd_f1 == 0.0
    print(f"\nPASS criterion 8: stratified 5-fold partition verified; separable toy "
          f"corpus scores mean F1 {mean_f1}, sd {sd_f1}")
