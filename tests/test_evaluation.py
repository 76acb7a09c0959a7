import csv

import numpy as np
import pytest

from tunneldetect.datagen import LABEL_NORMAL, LABEL_TUNNELING, DomainSample, build_corpus, desk_scale_spec
from tunneldetect.evaluation import (
    SCORE_CHUNK,
    compute_metrics,
    export_scatter,
    f1_score,
    is_tunneling,
    per_tool_breakdown,
    predict_samples,
    score,
)
from tunneldetect.network import DEFAULT_HYPERPARAMS, ModelParams, forward_batch, init_params
from tunneldetect.tokenizer import encode_batch
from tunneldetect.training import TrainConfig, train

from conftest import loaded_float32
from oracles import recount_metrics


def make_prediction(prob, truth, tool="none", name=None):
    """One labeled sample and the probability scored for it."""
    label = LABEL_TUNNELING if truth == "t" else LABEL_NORMAL
    if tool == "none" and label == LABEL_TUNNELING:
        tool = "iodine"
    name = name or f"{truth}-{prob:.3f}.example.com"
    return DomainSample(name, label, tool if label == LABEL_TUNNELING else "none"), prob


def columns(pairs):
    """The (samples, probabilities) arrays of (sample, probability) pairs."""
    return [s for s, _ in pairs], np.array([p for _, p in pairs])


def random_prediction_set(rng, n=None):
    """(samples, probabilities) of n random labeled predictions."""
    n = n or int(rng.integers(1, 40))
    return columns([make_prediction(float(rng.random()), rng.choice(["t", "n"])) for _ in range(n)])


def detected_names(samples, probs, threshold):
    """Names called Tunneling at `threshold` by the decision rule."""
    return {s.name for s, c in zip(samples, is_tunneling(probs, threshold)) if c}


# How far a name's probability may move with the rows it is forwarded
# with: the bounds `score`'s docstring states for float64 and float32
# weights.
SCORE_BATCH_BOUND = 1e-12
SCORE_BATCH_BOUND_F32 = 1e-6


@pytest.fixture(scope="module")
def reference_model():
    return init_params(DEFAULT_HYPERPARAMS, seed=1)


@pytest.fixture(scope="module")
def two_step_model_f32(tmp_path_factory):
    """The reference config after two training steps (as perfbench's
    classify-ref model), loaded as float32 the way classify loads it."""
    corpus = build_corpus(desk_scale_spec(seed=5, per_class=128))
    params = train(corpus, DEFAULT_HYPERPARAMS, TrainConfig(epochs=1, batch_size=128, seed=5))
    return loaded_float32(params, DEFAULT_HYPERPARAMS, tmp_path_factory.mktemp("f32") / "model.bin")


@pytest.fixture(scope="module")
def desk_names():
    return [s.name for s in build_corpus(desk_scale_spec(seed=7))]


class TestScore:
    @pytest.mark.parametrize("n", [0, 1, SCORE_CHUNK - 1, SCORE_CHUNK, SCORE_CHUNK + 1, 600])
    def test_chunked_equals_one_batch(self, tiny_hp, tiny_model, n):
        names = [f"q{i}x{i * 7919 % 1000}.example{i % 3}.com" for i in range(n)]
        got = score(tiny_model, tiny_hp, names)
        want = forward_batch(tiny_model, tiny_hp, encode_batch(names, tiny_hp.l))
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 1])
    def test_reference_config_rows_agree_across_batches(self, reference_model, desk_names, n):
        # at the reference size BLAS may round a row differently in another
        # batch (one-row products go to gemv); score's docstring bounds that
        names = desk_names[:n]
        got = score(reference_model, DEFAULT_HYPERPARAMS, names)
        x = encode_batch(names, DEFAULT_HYPERPARAMS.l)
        want = forward_batch(reference_model, DEFAULT_HYPERPARAMS, x)
        assert np.abs(got - want).max() <= SCORE_BATCH_BOUND
        for i in [*range(0, n, 16), n - 1]:
            alone = forward_batch(reference_model, DEFAULT_HYPERPARAMS, x[i : i + 1])[0]
            assert abs(alone - want[i]) <= SCORE_BATCH_BOUND, names[i]

    @pytest.mark.parametrize("n", [SCORE_CHUNK + 1, 2 * SCORE_CHUNK + 1])
    def test_float32_rows_agree_across_batches(self, two_step_model_f32, desk_names, n):
        # float32 sums round far more coarsely: measured up to 2.3e-8 on
        # these rows (4.6e-8 on 600 shuffled desk names), against the 1e-6
        # that score's docstring states
        names = desk_names[:n]
        got = score(two_step_model_f32, DEFAULT_HYPERPARAMS, names)
        x = encode_batch(names, DEFAULT_HYPERPARAMS.l)
        want = forward_batch(two_step_model_f32, DEFAULT_HYPERPARAMS, x)
        assert got.dtype == want.dtype == np.float64
        assert np.abs(got - want).max() <= SCORE_BATCH_BOUND_F32
        for i in [*range(0, n, 16), n - 1]:
            alone = forward_batch(two_step_model_f32, DEFAULT_HYPERPARAMS, x[i : i + 1])[0]
            assert abs(alone - want[i]) <= SCORE_BATCH_BOUND_F32, names[i]


class TestClassify:
    """Single names through score, called by is_tunneling."""

    def test_zero_weight_model_is_normal_at_high_threshold(self, tiny_hp, tiny_model):
        zero = ModelParams.zeros_like(tiny_model)
        [p] = score(zero, tiny_hp, ["example.com"])
        assert p == 0.5
        assert not is_tunneling([p], 0.90)[0]

    def test_boundary_resolves_toward_detection(self, tiny_hp, tiny_model):
        zero = ModelParams.zeros_like(tiny_model)
        [p] = score(zero, tiny_hp, ["example.com"])
        assert p == 0.5
        assert is_tunneling([p], 0.5)[0]  # p == threshold

    def test_invalid_threshold_rejected(self, tiny_hp, tiny_model):
        # scoring takes no threshold; the metrics over its output reject one
        # outside (0, 1)
        samples = [DomainSample("example.com", LABEL_NORMAL)]
        probs = predict_samples(tiny_model, tiny_hp, samples)
        for threshold in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="threshold"):
                compute_metrics(samples, probs, threshold)

    def test_predict_samples_matches_score(self, tiny_hp, tiny_model):
        samples = [
            DomainSample("aaa.com", LABEL_NORMAL),
            DomainSample("deadbeef00.evil.example", LABEL_TUNNELING, "dnscat2"),
        ]
        probs = predict_samples(tiny_model, tiny_hp, samples)
        assert probs.shape == (2,) and probs.dtype == np.float64
        for s, p in zip(samples, probs):
            [single] = score(tiny_model, tiny_hp, [s.name])
            assert p == single


class TestApplyThreshold:
    """The decision rule, is_tunneling."""

    def test_boundary_rule(self):
        assert is_tunneling([0.899, 0.90, 0.901], 0.90).tolist() == [False, True, True]

    def test_raising_threshold_shrinks_detected_set(self):
        rng = np.random.default_rng(0)
        samples, probs = random_prediction_set(rng, 200)
        previous = None
        for t in np.arange(0.1, 0.95, 0.1):
            detected = detected_names(samples, probs, float(t))
            if previous is not None:
                assert detected <= previous
            previous = detected


class TestF1Score:
    def test_reference_precision_recall_pair(self):
        assert abs(f1_score(0.9342, 0.9948) - 0.9635) <= 0.0005

    def test_zero_on_empty(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)


class TestComputeMetrics:
    def test_hand_counted_confusion(self):
        # tunneling positive: TP=3, FP=1, FN=1, TN=5
        preds = (
            [make_prediction(0.9, "t") for _ in range(3)]
            + [make_prediction(0.9, "n")]
            + [make_prediction(0.1, "t")]
            + [make_prediction(0.1, "n") for _ in range(5)]
        )
        report = compute_metrics(*columns(preds), 0.5)
        m = report.per_class[LABEL_TUNNELING]
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.fpr == pytest.approx(1 / 6)
        assert m.f1 == pytest.approx(0.75)
        assert m.support == 4
        assert report.total == 10

    def test_all_correct(self):
        preds = [make_prediction(0.99, "t") for _ in range(4)] + [
            make_prediction(0.01, "n") for _ in range(6)
        ]
        report = compute_metrics(*columns(preds), 0.5)
        for label in (LABEL_NORMAL, LABEL_TUNNELING):
            m = report.per_class[label]
            assert (m.precision, m.recall, m.f1, m.fpr) == (1.0, 1.0, 1.0, 0.0)
        assert report.per_class[LABEL_NORMAL].support == 6
        assert report.per_class[LABEL_TUNNELING].support == 4

    def test_reference_metrics_row_reproduced(self):
        # normal as positive: TP=1717, FN=9, FP=121, TN=1465 gives the
        # reference precision/recall pair; F1 must come out 0.9635
        preds = (
            [make_prediction(0.1, "n") for _ in range(1717)]
            + [make_prediction(0.9, "n") for _ in range(9)]
            + [make_prediction(0.1, "t") for _ in range(121)]
            + [make_prediction(0.9, "t") for _ in range(1465)]
        )
        report = compute_metrics(*columns(preds), 0.5)
        m = report.per_class[LABEL_NORMAL]
        assert m.precision == pytest.approx(0.9342, abs=5e-5)
        assert m.recall == pytest.approx(0.9948, abs=5e-5)
        assert abs(m.f1 - 0.9635) <= 0.0005
        assert m.support == 1726

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            samples, probs = random_prediction_set(rng)
            threshold = float(rng.uniform(0.05, 0.95))
            report = compute_metrics(samples, probs, threshold)
            truths = [s.label for s in samples]
            verdicts = [
                LABEL_TUNNELING if p >= threshold else LABEL_NORMAL for p in probs
            ]
            for positive in (LABEL_NORMAL, LABEL_TUNNELING):
                want = recount_metrics(truths, verdicts, positive)
                m = report.per_class[positive]
                assert (m.precision, m.recall, m.fpr, m.f1, m.support) == want

    def test_fpr_complements_other_class_recall(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            samples, probs = random_prediction_set(rng, 30)
            truths = {s.label for s in samples}
            if truths != {LABEL_NORMAL, LABEL_TUNNELING}:
                continue
            report = compute_metrics(samples, probs, 0.5)
            normal = report.per_class[LABEL_NORMAL]
            tunneling = report.per_class[LABEL_TUNNELING]
            assert normal.fpr == pytest.approx(1.0 - tunneling.recall)
            assert tunneling.fpr == pytest.approx(1.0 - normal.recall)

    def test_zero_denominator_flagged(self):
        preds = [make_prediction(0.1, "n") for _ in range(5)]  # nothing detected
        report = compute_metrics(*columns(preds), 0.9)
        m = report.per_class[LABEL_TUNNELING]
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.degenerate

    def test_support_sums_to_total(self):
        rng = np.random.default_rng(3)
        samples, probs = random_prediction_set(rng, 37)
        report = compute_metrics(samples, probs, 0.4)
        assert sum(m.support for m in report.per_class.values()) == report.total == 37

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], np.array([]), 0.5)

    def test_length_mismatch_rejected(self):
        samples, probs = columns([make_prediction(0.9, "t"), make_prediction(0.1, "n")])
        for bad in (probs[:1], np.append(probs, 0.5)):
            with pytest.raises(ValueError, match="2 samples"):
                compute_metrics(samples, bad, 0.5)
        with pytest.raises(ValueError, match="0 samples"):
            compute_metrics([], probs, 0.5)


def breakdown(preds):
    """per_tool_breakdown over the verdicts at threshold 0.5."""
    samples, probs = columns(preds)
    return per_tool_breakdown(samples, is_tunneling(probs, 0.5))


class TestPerToolBreakdown:
    def test_all_detected_tool_rate_one(self):
        preds = [make_prediction(0.95, "t", tool="dnscat2") for _ in range(5)]
        assert breakdown(preds) == {"dnscat2": 1.0}

    def test_absent_tool_omitted(self):
        preds = [make_prediction(0.95, "t", tool="iodine"), make_prediction(0.1, "n")]
        rates = breakdown(preds)
        assert "dnscat2" not in rates
        assert rates == {"iodine": 1.0}

    def test_partial_rates(self):
        preds = (
            [make_prediction(0.95, "t", tool="iodine") for _ in range(3)]
            + [make_prediction(0.05, "t", tool="iodine")]
            + [make_prediction(0.95, "t", tool="dnscat2")]
        )
        rates = breakdown(preds)
        assert rates["iodine"] == pytest.approx(0.75)
        assert rates["dnscat2"] == 1.0

    def test_report_includes_rates_at_report_threshold(self):
        samples, probs = columns([make_prediction(0.7, "t", tool="iodine") for _ in range(4)])
        report = compute_metrics(samples, probs, 0.9)
        assert report.per_tool == {"iodine": 0.0}
        report = compute_metrics(samples, probs, 0.5)
        assert report.per_tool == {"iodine": 1.0}


class TestExportScatter:
    def test_empty_input_writes_header_only(self, tmp_path):
        path = tmp_path / "scatter.csv"
        export_scatter([], np.array([]), path)
        assert path.read_text().strip() == "name,true_label,tool,probability"

    def test_rows_in_input_order_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        samples, probs = random_prediction_set(rng, 25)
        path = tmp_path / "scatter.csv"
        export_scatter(samples, probs, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        for row, sample, p in zip(rows, samples, probs):
            assert row["name"] == sample.name
            assert row["true_label"] == sample.label
            assert row["tool"] == sample.tool
            assert float(row["probability"]) == pytest.approx(p, abs=5e-10)

    def test_length_mismatch_rejected(self, tmp_path):
        samples, probs = random_prediction_set(np.random.default_rng(5), 3)
        with pytest.raises(ValueError):
            export_scatter(samples, probs[:2], tmp_path / "scatter.csv")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            export_scatter([], np.array([]), tmp_path / "missing" / "scatter.csv")
