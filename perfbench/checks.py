"""Output checks for every stage of a benchmark pass.

Probabilities are checked against this module's own float64 forward
pass, written independently of the package: its own tokenizer and a
convolution computed as a sum over kernel offsets instead of im2col.
Each check returns a list of problems; an empty list means the stage's
outputs are correct.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from tunneldetect import model_store

PROB_TOL = 1e-4       # classify prints 6 decimals; evaluate's scatter 9
SCATTER_TOL = 1e-6
RATE_TOL = 1e-12
MAX_NEAR_ASSIGNED = 6  # near-threshold evaluate rows tried in every assignment
LABELS = ("normal", "tunneling")
REFERENCE_PARAMETERS = 11_425_685  # nf=1024 ks=4 sl=1 d=100 l=45 hn=256


class Model:
    """Weights read through the package's loader, scored by this module."""

    def __init__(self, path):
        params, self.hp, vocab = model_store.load(path)
        self.w = dict(params.arrays())
        self.table = {ch: 2 + i for i, ch in enumerate(vocab.literals)}
        self._memo: dict[str, float] = {}

    def parameter_count(self) -> int:
        return sum(a.size for a in self.w.values())

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.w.values())

    def _encode(self, names) -> np.ndarray:
        out = np.zeros((len(names), self.hp.l), dtype=np.int64)
        for i, name in enumerate(names):
            for j, ch in enumerate(name.lower()[: self.hp.l]):
                out[i, j] = self.table.get(ch, 1)
        return out

    def _forward(self, x: np.ndarray) -> np.ndarray:
        hp, w = self.hp, self.w
        emb = w["embedding"][x]                                   # (B, l, d)
        positions = hp.conv_out_len
        span = (positions - 1) * hp.sl + 1
        zc = np.broadcast_to(w["conv_b"], (x.shape[0], positions, hp.nf)).copy()
        for k in range(hp.ks):
            zc += emb[:, k : k + span : hp.sl, :] @ w["conv_w"][k]
        flat = np.maximum(zc, 0.0).reshape(x.shape[0], -1)
        a1 = np.maximum(flat @ w["dense1_w"] + w["dense1_b"], 0.0)
        z2 = a1 @ w["dense2_w"] + w["dense2_b"][0]
        return np.exp(-np.logaddexp(0.0, -z2))

    def probabilities(self, names, batch: int = 256) -> dict[str, float]:
        """name -> probability, each distinct name scored once."""
        todo = sorted({n for n in names if n not in self._memo})
        for start in range(0, len(todo), batch):
            chunk = todo[start : start + batch]
            for name, p in zip(chunk, self._forward(self._encode(chunk))):
                self._memo[name] = float(p)
        return {n: self._memo[n] for n in names}


def expected_parameters(hp) -> int:
    positions = (hp.l - hp.ks) // hp.sl + 1
    return 45 * hp.d + hp.ks * hp.d * hp.nf + hp.nf + positions * hp.nf * hp.hn + hp.hn + hp.hn + 1


def check_corpus(path, per_class: int) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != ["name", "label", "tool", "origin"]:
        problems.append(f"generate: bad header {rows[0]!r}")
    counts = {label: sum(1 for r in rows[1:] if r[1] == label) for label in LABELS}
    if counts != {label: per_class for label in LABELS} or len(rows) - 1 != 2 * per_class:
        problems.append(f"generate: {len(rows) - 1} rows with label counts {counts}, expected {per_class} per class")
    return problems


def check_model(model: Model, hp, is_reference: bool) -> list[str]:
    problems = []
    count = model.parameter_count()
    if count != expected_parameters(hp):
        problems.append(f"train: {count} parameters, expected {expected_parameters(hp)}")
    if is_reference and count != REFERENCE_PARAMETERS:
        problems.append(f"train: reference model has {count} parameters, expected {REFERENCE_PARAMETERS}")
    if not model.all_finite():
        problems.append("train: non-finite weights")
    return problems


def quality_gates(model: Model, samples) -> tuple[dict, list[str]]:
    """Tunneling F1 at 0.5 and recall at 0.90 on held-out samples."""
    probs = model.probabilities([s.name for s in samples])
    truth = np.array([s.label == "tunneling" for s in samples])
    p = np.array([probs[s.name] for s in samples])

    def rates(threshold):
        called = p >= threshold
        tp = int(np.sum(called & truth))
        fp = int(np.sum(called & ~truth))
        fn = int(np.sum(~called & truth))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return f1, recall

    gates = {"heldout_names": len(samples), "f1_at_0.5": rates(0.5)[0], "recall_at_0.90": rates(0.90)[1]}
    problems = []
    if gates["f1_at_0.5"] < 0.95:
        problems.append(f"train: held-out tunneling F1@0.5 = {gates['f1_at_0.5']:.4f} < 0.95")
    if gates["recall_at_0.90"] < 0.90:
        problems.append(f"train: held-out tunneling recall@0.90 = {gates['recall_at_0.90']:.4f} < 0.90")
    return gates, problems


def _brute_force_report(rows, tunneling: list[bool]) -> dict:
    """Per-class and per-tool rates, with row i called tunneling when
    tunneling[i] is true."""
    classes = {}
    for positive in LABELS:
        tp = fp = fn = tn = 0
        for row, hit in zip(rows, tunneling):
            is_pos = row["true_label"] == positive
            called = "tunneling" if hit else "normal"
            if called == positive:
                tp, fp = tp + is_pos, fp + (not is_pos)
            else:
                fn, tn = fn + is_pos, tn + (not is_pos)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        classes[positive] = {
            "precision": precision,
            "recall": recall,
            "fpr": fp / (fp + tn) if fp + tn else 0.0,
            "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
            "support": tp + fn,
        }
    tools: dict[str, list[int]] = {}
    for row, hit in zip(rows, tunneling):
        if row["true_label"] == "tunneling":
            tools.setdefault(row["tool"], [0, 0])
            tools[row["tool"]][0] += hit
            tools[row["tool"]][1] += 1
    return {"classes": classes, "tool_detection_rates": {t: h / n for t, (h, n) in sorted(tools.items())}}


def _rate_problems(report, want) -> list[str]:
    problems = []
    for label in LABELS:
        for key, value in want["classes"][label].items():
            if abs(report["classes"][label][key] - value) > RATE_TOL:
                problems.append(f"evaluate: {label} {key} = {report['classes'][label][key]}, scatter gives {value}")
    got_tools = report["tool_detection_rates"]
    if set(got_tools) != set(want["tool_detection_rates"]) or any(
        abs(got_tools[t] - v) > RATE_TOL for t, v in want["tool_detection_rates"].items()
    ):
        problems.append(f"evaluate: tool rates {got_tools} != scatter {want['tool_detection_rates']}")
    return problems


def check_evaluate(report_path, scatter_path, samples, model: Model) -> tuple[int, list[str]]:
    """Report rates recomputed by brute force from the scatter CSV, whose
    rows must be the corpus in order with independently checked
    probabilities. The report was computed from unrounded probabilities,
    so a row whose rounded probability lies within SCATTER_TOL of the
    threshold may have been called either way: the rates must match one
    assignment of those rows (every assignment when there are at most
    MAX_NEAR_ASSIGNED of them, otherwise all called or none called).
    Returns the number of such rows and the problems found."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(scatter_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [(r["name"], r["true_label"], r["tool"]) for r in rows] != [(s.name, s.label, s.tool) for s in samples]:
        return 0, ["evaluate: scatter rows do not match the corpus"]
    problems = []
    if report["total"] != len(rows):
        problems.append(f"evaluate: total {report['total']} != {len(rows)} rows")
    threshold = report["threshold"]
    printed = [float(r["probability"]) for r in rows]
    called = [p >= threshold for p in printed]
    near = [i for i, p in enumerate(printed) if abs(p - threshold) < SCATTER_TOL]
    if len(near) <= MAX_NEAR_ASSIGNED:
        assignments = itertools.product((False, True), repeat=len(near))
    else:
        assignments = [(False,) * len(near), (True,) * len(near)]
    rate_problems = None  # reported: those of the rows called as printed
    for assignment in itertools.chain([tuple(called[i] for i in near)], assignments):
        for i, hit in zip(near, assignment):
            called[i] = hit
        found = _rate_problems(report, _brute_force_report(rows, called))
        if rate_problems is None or not found:
            rate_problems = found
        if not found:
            break
    problems += rate_problems
    probs = model.probabilities([r["name"] for r in rows])
    worst = max(abs(p - probs[r["name"]]) for p, r in zip(printed, rows))
    if worst > SCATTER_TOL:
        problems.append(f"evaluate: scatter probability off by {worst:.2e} from the reference forward")
    return len(near), problems


def check_classify(output_path, accepted: list[str], model: Model, threshold: float) -> tuple[int, list[str]]:
    """One output line per accepted log line, in order, with probability
    and verdict matching the reference forward. Returns the number of
    names within PROB_TOL of the threshold, whose verdicts are not
    compared, and the problems found."""
    with open(output_path, encoding="utf-8") as fh:
        out = [line.rstrip("\n").split("\t") for line in fh]
    if [row[0] for row in out] != accepted:
        return 0, [f"classify: {len(out)} output lines do not match the {len(accepted)} accepted log lines"]
    probs = model.probabilities(accepted)
    problems = []
    near = 0
    worst = 0.0
    for name, printed, verdict in out:
        p = probs[name]
        worst = max(worst, abs(float(printed) - p))
        if abs(p - threshold) <= PROB_TOL:
            near += 1
        elif verdict != ("tunneling" if p >= threshold else "normal"):
            problems.append(f"classify: verdict {verdict} for {name!r} at p={p:.6f}")
    if worst > PROB_TOL:
        problems.append(f"classify: probability off by {worst:.2e} from the reference forward")
    return near, problems[:10]
