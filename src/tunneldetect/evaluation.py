"""Thresholded classification and evaluation reporting.

A name is declared Tunneling when its probability is >= the decision
threshold (ties resolve toward detection). Metrics are computed per
class treated as positive in turn: precision, recall/TPR, FPR and F1,
plus per-tool detection rates over the tunneling samples.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .datagen import LABEL_NORMAL, LABEL_TUNNELING, TOOL_NONE, DomainSample
from .network import Hyperparams, ModelParams, forward_batch
from .tokenizer import encode_batch

DEFAULT_THRESHOLD = 0.90

# Names encoded and forwarded per batch, so scoring memory stays bounded
# however many names are scored.
SCORE_CHUNK = 256


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    fpr: float
    f1: float
    support: int
    degenerate: bool = False  # some denominator was zero; affected metrics report 0


@dataclass(frozen=True)
class MetricsReport:
    threshold: float
    per_class: dict[str, ClassMetrics]
    per_tool: dict[str, float]
    total: int


def score(params: ModelParams, hp: Hyperparams, names: Sequence[str]) -> np.ndarray:
    """Tunneling probability of each name, in input order.

    Names are encoded and forwarded SCORE_CHUNK at a time, in the dtype
    of the weights; probabilities are float64 either way. A row's
    probability depends on the other rows of its batch only through
    rounding: BLAS may sum a product in another order for another
    number of rows (numpy sends one-row products to gemv). Scored alone,
    in any chunk or in one batch, a name's probability agrees to within
    1e-12 with float64 weights and within 1e-6 with float32 weights
    (measured up to 4.6e-8 at the reference configuration).
    """
    probs = np.empty(len(names))
    for start in range(0, len(names), SCORE_CHUNK):
        chunk = names[start : start + SCORE_CHUNK]
        probs[start : start + len(chunk)] = forward_batch(params, hp, encode_batch(chunk, hp.l))
    return probs


def is_tunneling(probabilities, threshold: float) -> np.ndarray:
    """The decision rule: True where a probability is at or above the
    threshold, so ties resolve toward detection."""
    return np.asarray(probabilities, dtype=np.float64) >= threshold


def predict_samples(params: ModelParams, hp: Hyperparams, samples: Sequence[DomainSample]) -> np.ndarray:
    """Tunneling probability of each sample's name, in corpus order."""
    return score(params, hp, [s.name for s in samples])


# perfbench/child.py wraps this name when it traces a run; the alias goes
# once perfbench reads the library's own stats instead of patching names.
predict_names = score


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _class_metrics(tp: int, fp: int, fn: int, tn: int) -> ClassMetrics:
    degenerate = False

    def ratio(num, den):
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    fpr = ratio(fp, fp + tn)
    return ClassMetrics(
        precision=precision,
        recall=recall,
        fpr=fpr,
        f1=f1_score(precision, recall),
        support=tp + fn,
        degenerate=degenerate,
    )


def compute_metrics(samples: Sequence[DomainSample], probabilities, threshold: float = DEFAULT_THRESHOLD) -> MetricsReport:
    """Per-class precision/recall/FPR/F1 with support, plus per-tool
    detection rates, all at the given threshold; `probabilities[i]` is
    the score of `samples[i]`.

    Verdicts are derived from the probabilities, so one scored set can
    be evaluated across thresholds in (0, 1). Zero-denominator metrics
    report 0 and set the class's `degenerate` flag.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if len(samples) != len(probabilities):
        raise ValueError(f"{len(samples)} samples but {len(probabilities)} probabilities")
    if not samples:
        raise ValueError("compute_metrics requires at least one sample")
    called = is_tunneling(probabilities, threshold)
    truth = np.array([s.label == LABEL_TUNNELING for s in samples], dtype=bool)

    # one confusion count with tunneling as the positive class; the
    # normal class is the same matrix read the other way round
    tp = int(np.count_nonzero(called & truth))
    fp = int(np.count_nonzero(called & ~truth))
    fn = int(np.count_nonzero(~called & truth))
    tn = len(samples) - tp - fp - fn
    return MetricsReport(
        threshold=threshold,
        per_class={
            LABEL_NORMAL: _class_metrics(tn, fn, fp, tp),
            LABEL_TUNNELING: _class_metrics(tp, fp, fn, tn),
        },
        per_tool=per_tool_breakdown(samples, called),
        total=len(samples),
    )


def per_tool_breakdown(samples: Sequence[DomainSample], called: np.ndarray) -> dict[str, float]:
    """Detection rate per tunneling tool: the fraction of each tool's
    samples whose verdict `called[i]` is Tunneling. Tools absent from
    the input are absent from the map."""
    tools = np.array([s.tool for s in samples])
    rates = {}
    for tool in np.unique(tools):
        if tool == TOOL_NONE:
            continue
        mine = tools == tool
        rates[str(tool)] = int(np.count_nonzero(called[mine])) / int(np.count_nonzero(mine))
    return rates


def export_scatter(samples: Sequence[DomainSample], probabilities, path) -> None:
    """CSV of per-name probabilities (`name,true_label,tool,probability`)
    for external plotting; rows in input order, 9-digit probabilities."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "true_label", "tool", "probability"])
        for s, p in zip(samples, probabilities, strict=True):
            writer.writerow([s.name, s.label, s.tool, f"{p:.9f}"])


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-friendly view of a metrics report."""
    return {
        "threshold": report.threshold,
        "total": report.total,
        "classes": {label: asdict(m) for label, m in report.per_class.items()},
        "tool_detection_rates": dict(report.per_tool),
    }


def format_report(report: MetricsReport) -> str:
    """Human-readable metrics table."""
    lines = [
        f"threshold: {report.threshold:.2f}   samples: {report.total}",
        f"{'class':<12} {'precision':>9} {'recall':>9} {'fpr':>9} {'f1':>9} {'support':>8}",
    ]
    for label, m in report.per_class.items():
        flag = " *" if m.degenerate else ""
        lines.append(
            f"{label:<12} {m.precision:>9.4f} {m.recall:>9.4f} {m.fpr:>9.4f} "
            f"{m.f1:>9.4f} {m.support:>8d}{flag}"
        )
    if any(m.degenerate for m in report.per_class.values()):
        lines.append("  * zero-denominator metric reported as 0")
    if report.per_tool:
        lines.append("tool detection rates:")
        for tool, rate in report.per_tool.items():
            lines.append(f"  {tool:<16} {rate:.4f}")
    return "\n".join(lines)
