"""tunneldetect benchmark: drives the CLI subcommands a user runs and checks their outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. A workload runs the four steps of the
README quick start, each invocation in its own process, on inputs
generated from the seed:

    generate-data --full -> train -> evaluate --report --scatter -> classify

The steps first run once in that order. Then the steps repeat,
interleaved, until each has at least MIN_BUSY_S of measured work and
has used its fixed per-workload share of --seconds (see Bench.run).
Repeated invocations do identical work. The workloads differ in
model size and input sizes, so that a different layer dominates in each
(see WORKLOADS).

The last line of standard output is one JSON object: end-to-end metrics
with --trace 0; with --trace 1, per-layer metrics from spans recorded
around calls into the package, and the tracing overhead. The full
result, with the environment fingerprint, input structure, every
invocation and check details, goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# A run must end within 180 s whatever --seconds is: an invocation still
# running this long after the start is killed and reported as a deadline
# overrun, apart from the output checks. No repeat starts that is
# expected to end after it, so it only fires when the machine is far
# slower than usual.
RUN_DEADLINE_S = 170.0

# BLAS threads: fixed and recorded. One thread: on a small shared machine
# a two-thread GEMM stalls whenever either CPU is taken, which made
# reference-size matmuls vary several-fold from call to call.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

REF_HP = "nf=1024 ks=4 sl=1 d=100 l=45 hn=256"
SMALL_HP = "nf=64 ks=4 sl=1 d=32 l=45 hn=32"
FULL_NAMES = 16000  # generate-data --full
# Every step's throughput is measured over at least this much untraced
# work: single sub-second invocations varied by up to 1.6x on a shared
# machine.
MIN_BUSY_S = 2.5


@dataclass(frozen=True)
class Workload:
    hp: str
    train_per_class: int | None  # None: train on the generate-data --full corpus
    heldout_per_class: int       # evaluate corpus, from another seed
    log_format: str
    log_lines: int
    gates: bool                  # check the held-out quality gates after train
    shares: dict                 # step -> share of --seconds


WORKLOADS = {
    # One epoch of the reference CNN on 4,096 names (32 steps; with 16,
    # recall@0.90 missed its gate on 1 of 10 seeds): backward_batch and
    # adam_step dominate the run.
    "train-ref": Workload(REF_HP, 2048, 256, "dnsmasq", 1024, True,
                          {"generate": 0.1, "train": 0.5, "evaluate": 0.2, "classify": 0.2}),
    # The operator path: a reference-shaped model (two training steps, so
    # no quality gate) scoring a 3,000-line dnsmasq log; forward-only
    # inference at batch 256 dominates.
    "classify-ref": Workload(REF_HP, 128, 256, "dnsmasq", 3000, False,
                             {"generate": 0.1, "train": 0.2, "evaluate": 0.15, "classify": 0.55}),
    # The README quick start with the small network at --full size.
    "quickstart-small": Workload(SMALL_HP, None, 8000, "bind", 8000, True,
                                 {"generate": 0.1, "train": 0.45, "evaluate": 0.25, "classify": 0.2}),
}

STEPS = ("generate", "train", "evaluate", "classify")
THROUGHPUT = {
    "generate": "generate.names_per_s",
    "train": "train.samples_per_s",
    "evaluate": "evaluate.names_per_s",
    "classify": "classify.lines_per_s",
}
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", **{m: "1/s" for m in THROUGHPUT.values()}}
ROADMAP_BASELINE_MS = {"forward_per_128": 178.0, "backward_batch": 481.0, "adam_step": 276.0}


class StepFailed(Exception):
    pass


class DeadlineOverrun(Exception):
    pass


def _derive(seed: int, stream: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, stream]).generate_state(1)[0])


def _fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tunneldetect").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_ENV,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _run_child(args: list[str], work: Path, trace: bool, deadline: float, stdout_name: str) -> dict:
    """Run one CLI subcommand in a child process and reap it; returns its
    record with the child's peak RSS and parent-side wall time."""
    tag = args[0]
    record_path = work / f"{tag}.record.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    with open(work / stdout_name, "wb") as out, open(work / f"{tag}.stderr", "wb") as err:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(record_path), str(spawn), "1" if trace else "0", "--", *args],
            cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reaped = time.monotonic_ns()
    if killed.is_set() and proc.returncode != 0:
        raise DeadlineOverrun(f"{tag}: killed at the run deadline, {RUN_DEADLINE_S:.0f} s after the start")
    if proc.returncode != 0 or not record_path.exists():
        tail = (work / f"{tag}.stderr").read_text(errors="replace")[-400:]
        raise StepFailed(f"{tag}: exit code {proc.returncode}: {tail}")
    record = json.loads(record_path.read_text())
    if "first_work_ns" not in record:
        raise StepFailed(f"{tag}: never reached its first unit of work")
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["wall_s"] = (reaped - spawn) / 1e9
    return record


class Bench:
    """Fixtures, step invocations and output checks of one workload run."""

    def __init__(self, name: str, seed: int, work: Path):
        import inputs
        from tunneldetect import datagen

        self.w, self.work = WORKLOADS[name], work
        self.corpus_seed = _derive(seed, 0)
        self.train_file = "generated.csv"
        self.train_names = FULL_NAMES
        if self.w.train_per_class is not None:
            self.train_file = "train.csv"
            self.train_names = 2 * self.w.train_per_class
            datagen.write_corpus(inputs.corpus(_derive(seed, 3), self.w.train_per_class), work / self.train_file)
        self.heldout = inputs.corpus(_derive(seed, 1), self.w.heldout_per_class)
        datagen.write_corpus(self.heldout, work / "heldout.csv")
        self.log = inputs.resolver_log(self.w.log_format, self.w.log_lines, _derive(seed, 2))
        (work / "resolver.log").write_text("\n".join(self.log.lines) + "\n", encoding="utf-8")
        self.models: dict[str, object] = {}
        self.near_threshold = {"evaluate": 0, "classify": 0}
        self.gates: dict | None = None
        self.invocations: list[tuple[str, dict]] = []
        self.attempted = 0
        self.problems: list[str] = []
        self.overrun: str | None = None

    def step_args(self, step: str) -> list[str]:
        seed = str(self.corpus_seed)
        return {
            "generate": ["generate-data", "--out", "generated.csv", "--seed", seed, "--full"],
            "train": ["train", "--corpus", self.train_file, "--out", "model.bin", "--hp", self.w.hp,
                      "--epochs", "1", "--batch", "128", "--seed", seed],
            "evaluate": ["evaluate", "--model", "model.bin", "--corpus", "heldout.csv",
                         "--report", "report.json", "--scatter", "scatter.csv"],
            "classify": ["classify", "--model", "model.bin", "--input", "resolver.log", "--format", self.w.log_format],
        }[step]

    def units(self) -> dict[str, int]:
        return {
            "generate": FULL_NAMES,
            "train": self.train_names,
            "evaluate": len(self.heldout),
            "classify": len(self.log.lines),
        }

    def model(self):
        import checks

        digest = hashlib.sha256((self.work / "model.bin").read_bytes()).hexdigest()
        if digest not in self.models:
            self.models[digest] = checks.Model(self.work / "model.bin")
        return self.models[digest]

    def check(self, step: str) -> list[str]:
        """Check one step's outputs; runs outside every timed region."""
        import checks
        from tunneldetect import datagen
        from tunneldetect.evaluation import DEFAULT_THRESHOLD

        if step == "generate":
            return checks.check_corpus(self.work / "generated.csv", FULL_NAMES // 2)
        model = self.model()
        if step == "train":
            problems = checks.check_model(model, model.hp, self.w.hp == REF_HP)
            if self.w.gates:
                trained = {s.name for s in datagen.read_corpus(self.work / self.train_file)}
                unseen = [s for s in self.heldout if s.name not in trained]
                self.gates, gate_problems = checks.quality_gates(model, unseen)
                problems += gate_problems
            return problems
        if step == "evaluate":
            near, problems = checks.check_evaluate(self.work / "report.json", self.work / "scatter.csv", self.heldout, model)
        else:
            near, problems = checks.check_classify(self.work / "classify.out", self.log.accepted, model, DEFAULT_THRESHOLD)
        self.near_threshold[step] = max(self.near_threshold[step], near)
        return problems

    def invoke(self, step: str, trace: bool, deadline: float) -> dict:
        """Run and check one invocation. A killed invocation is not
        counted as attempted: it produced no output to check."""
        try:
            record = _run_child(self.step_args(step), self.work, trace, deadline,
                                "classify.out" if step == "classify" else f"{step}.stdout")
            problems = self.check(step)
        except DeadlineOverrun as exc:
            self.overrun = str(exc)
            raise
        except StepFailed as exc:
            problems = [str(exc)]
        self.attempted += 1
        if problems:
            self.problems += problems
            raise StepFailed(problems[0])
        self.invocations.append((step, record))
        self._flush_outputs()
        return record

    def _flush_outputs(self) -> None:
        """Write the step's files to disk now, so that writeback of a
        91 MB model does not run during a later timed step."""
        for path in self.work.iterdir():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def run(self, seconds: float, trace: bool, deadline: float) -> None:
        """The steps once in order (and once more traced with --trace 1),
        then repeats. A step repeats while it has less than MIN_BUSY_S of
        untraced work, or while it is below its share of `seconds` and its
        next invocation is expected to end within `seconds`. The step
        furthest below its target wall time (its share, raised to what
        MIN_BUSY_S needs) runs next, so each step's invocations spread
        over the whole run rather than sampling one spell of the machine.
        No repeat starts that is expected to end after `deadline`."""
        start = time.monotonic()
        for traced in (False, True) if trace else (False,):
            for step in STEPS:
                self.invoke(step, traced, deadline)
        used = {s: sum(r["wall_s"] for t, r in self.invocations if t == s) for s in STEPS}
        count = {s: sum(1 for t, _ in self.invocations if t == s) for s in STEPS}
        target = {}
        for step, records in self.records(traced=False).items():
            busy = sum(map(_busy_s, records))
            needed = max(0, math.ceil((MIN_BUSY_S - busy) * len(records) / busy))
            target[step] = max(self.w.shares[step] * seconds, used[step] + needed * used[step] / count[step])
        while True:
            busy = {s: sum(map(_busy_s, rs)) for s, rs in self.records(traced=False).items()}
            now = time.monotonic()
            remaining = seconds - (now - start)
            due = [s for s in STEPS if now + used[s] / count[s] <= deadline and (
                busy[s] < MIN_BUSY_S
                or (used[s] < self.w.shares[s] * seconds and used[s] / count[s] <= remaining))]
            if not due:
                return
            step = min(due, key=lambda s: used[s] / target[s])
            traced = (trace and busy[step] >= MIN_BUSY_S
                      and sum(1 for t, r in self.invocations if t == step and r["trace"]) * 2 < count[step])
            record = self.invoke(step, traced, deadline)
            used[step] += record["wall_s"]
            count[step] += 1

    def records(self, traced: bool) -> dict[str, list[dict]]:
        return {s: [r for t, r in self.invocations if t == s and r["trace"] == traced] for s in STEPS}


# ---------------------------------------------------------------------------
# Metrics


def _percentile(values, q: float) -> float:
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (the
    median when there are fewer than twenty samples)."""
    q = max(50.0, 100.0 * (1.0 - 10.0 / len(values)))
    return _percentile(values, q), q


def _setup_s(record: dict) -> float:
    return (record["first_work_ns"] - record["spawn_ns"]) / 1e9


def _busy_s(record: dict) -> float:
    return (record["end_ns"] - record["first_work_ns"]) / 1e9


def end_to_end(records: dict[str, list[dict]], units: dict[str, int]) -> dict[str, float]:
    """setup_s: each step's median set-up, summed over the four steps.
    peak_rss_mb: the largest of the steps' median peak RSS. Throughput:
    all work a step did in the run over the time it spent doing it."""
    metrics = {
        "setup_s": sum(statistics.median(_setup_s(r) for r in records[s]) for s in STEPS),
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in records[s]) for s in STEPS),
    }
    for step, metric in THROUGHPUT.items():
        metrics[metric] = len(records[step]) * units[step] / sum(_busy_s(r) for r in records[step])
    return metrics


def _span_totals(record: dict) -> dict[str, float]:
    """Total ms per span name in one invocation, and self ms under
    '<name>#self'."""
    spans = record["spans"]
    child_ms = [0.0] * len(spans)
    for _name, start, end, parent, _work in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) / 1e6
    total: dict[str, float] = {}
    for i, (name, start, end, _parent, _work) in enumerate(spans):
        ms = (end - start) / 1e6
        total[name] = total.get(name, 0.0) + ms
        total[name + "#self"] = total.get(name + "#self", 0.0) + ms - child_ms[i]
    return total


def per_layer(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from the traced invocations; returns
    ({name: (value, unit)}, details)."""
    import checks

    records = bench.records(traced=True)
    hp = bench.model().hp
    positions = hp.conv_out_len
    flops_per_row = 2 * positions * hp.ks * hp.d * hp.nf + 2 * positions * hp.nf * hp.hn + 2 * hp.hn
    # embedding, im2col windows, conv pre- and post-activation, dense1 pre- and post-activation
    activation_bytes_per_row = 8 * (hp.l * hp.d + positions * hp.ks * hp.d + 2 * positions * hp.nf + 2 * hp.hn)
    adam_bytes = 7 * 8 * checks.expected_parameters(hp)  # read p, g, m, v; write p, m, v

    calls: dict[str, list[tuple[float, int]]] = {}  # span name -> [(ms, work)]
    steps_ms: list[float] = []
    classify_counts = set()
    for step in STEPS:
        for record in records[step]:
            backward_start = None
            rows = parsed = accepted = 0
            for name, start, end, _parent, work in record["spans"]:
                calls.setdefault(name, []).append(((end - start) / 1e6, work))
                if name == "network.backward_batch":
                    backward_start = start
                elif name == "training.adam_step" and backward_start is not None:
                    steps_ms.append((end - backward_start) / 1e6)
                    backward_start = None
                elif name == "network.forward_batch":
                    rows += work
                elif name == "logparse.parse_line":
                    parsed += 1
                    accepted += work
            if step == "classify":
                classify_counts.add((rows, parsed - accepted))
    if len(classify_counts) != 1:
        raise StepFailed(f"classify invocations disagree on (rows forwarded, lines skipped): {classify_counts}")
    rows_forwarded, lines_skipped = classify_counts.pop()

    def ms(name):
        return [c[0] for c in calls.get(name, [])]

    def work(name):
        return sum(c[1] for c in calls.get(name, []))

    totals = {s: [_span_totals(r) for r in records[s]] for s in STEPS}

    def per_pass(*names):
        """ms per run of the four steps: each step's median over its
        traced invocations, summed over steps."""
        return sum(statistics.median(sum(t.get(n, 0.0) for n in names) for t in totals[s]) for s in STEPS)

    forward_ms = sum(ms("network.forward_batch"))
    forward_rows = work("network.forward_batch")
    largest_batch = max(c[1] for n in ("network.forward_batch", "network.backward_batch") for c in calls.get(n, []))
    backward_tail, backward_q = _tail(ms("network.backward_batch"))
    step_tail, step_q = _tail(steps_ms)
    adam_p50 = statistics.median(ms("training.adam_step"))
    parse_ms = ms("logparse.parse_line")
    metrics = {
        "network.forward_ms_p50": (statistics.median(ms("network.forward_batch")), "ms"),
        "network.forward_us_per_row": (1e3 * forward_ms / forward_rows, "us"),
        "network.forward_gflops": (forward_rows * flops_per_row / (forward_ms / 1e3) / 1e9, "GFLOP/s"),
        "network.rows_forwarded": (rows_forwarded, "count"),
        "network.useful_row_ratio": (bench.log.distinct_names / rows_forwarded, "ratio"),
        "network.backward_ms_p50": (statistics.median(ms("network.backward_batch")), "ms"),
        "network.backward_ms_tail": (backward_tail, "ms"),
        "network.peak_activation_mb": (largest_batch * activation_bytes_per_row / 2**20, "MB"),
        "training.step_ms_p50": (statistics.median(steps_ms), "ms"),
        "training.step_ms_tail": (step_tail, "ms"),
        "training.adam_step_ms_p50": (adam_p50, "ms"),
        "training.adam_gbps": (adam_bytes / (adam_p50 / 1e3) / 1e9, "GB/s"),
        "tokenizer.encode_us_per_name": (1e3 * sum(ms("tokenizer.encode_batch")) / work("tokenizer.encode_batch"), "us"),
        "logparse.parse_us_per_line": (1e3 * sum(parse_ms) / len(parse_ms), "us"),
        "logparse.lines_skipped": (lines_skipped, "count"),
        "model_store.load_ms": (per_pass("model_store.load"), "ms"),
        "model_store.save_ms": (per_pass("model_store.save"), "ms"),
        "model_store.bytes": ((bench.work / "model.bin").stat().st_size, "bytes"),
        "datagen.build_corpus_ms": (per_pass("datagen.build_corpus"), "ms"),
        "datagen.write_corpus_ms": (per_pass("datagen.write_corpus"), "ms"),
        "datagen.read_corpus_ms": (per_pass("datagen.read_corpus"), "ms"),
        "evaluation.predict_self_ms": (per_pass("evaluation.predict_samples#self", "evaluation.predict_names#self"), "ms"),
        "evaluation.compute_metrics_ms": (per_pass("evaluation.compute_metrics"), "ms"),
        "evaluation.export_scatter_ms": (per_pass("evaluation.export_scatter"), "ms"),
        "cli.self_ms": (per_pass("cli.main#self"), "ms"),
    }
    self_keys: dict[str, set] = {}
    for key in {k for s in STEPS for t in totals[s] for k in t if k.endswith("#self")}:
        self_keys.setdefault(key.split(".")[0], set()).add(key)
    details = {
        "traced_invocations": {s: len(records[s]) for s in STEPS},
        "backward_calls": len(ms("network.backward_batch")),
        "backward_tail_percentile": backward_q,
        "training_steps": len(steps_ms),
        "step_tail_percentile": step_q,
        "forward_calls": len(ms("network.forward_batch")),
        "largest_batch_rows": largest_batch,
        "adam_bytes_per_step": adam_bytes,
        "flops_per_row": flops_per_row,
        "self_ms_per_pass_by_module": {m: per_pass(*keys) for m, keys in sorted(self_keys.items())},
    }
    if bench.w.hp == REF_HP:
        observed = {
            "forward_per_128": metrics["network.forward_us_per_row"][0] * 128 / 1e3,
            "backward_batch": metrics["network.backward_ms_p50"][0],
            "adam_step": adam_p50,
        }
        details["roadmap_crosscheck"] = {
            k: {"baseline_ms": ROADMAP_BASELINE_MS[k], "traced_ms": v,
                "differs_over_15pct": abs(v / ROADMAP_BASELINE_MS[k] - 1.0) > 0.15}
            for k, v in observed.items()
        }
    return metrics, details


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tunneldetect" / "cli.py").is_file():
        print(f"error: tunneldetect sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]

    started = time.monotonic()
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        fixtures_s = time.monotonic() - started
        try:
            bench.run(args.seconds, bool(args.trace), started + RUN_DEADLINE_S)
        except (StepFailed, DeadlineOverrun):
            pass
        failed = len(bench.problems) > 0
        result = {"correct": not failed, "attempted": bench.attempted, "failed": int(failed)}
        units = bench.units()
        untraced = bench.records(traced=False)
        complete = all(untraced[s] for s in STEPS)
        measured = complete and (not args.trace or all(bench.records(traced=True)[s] for s in STEPS))
        e2e = end_to_end(untraced, units) if complete else {}
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": _fingerprint(),
            "loop": "closed, one client: each invocation starts when the previous one has ended",
            "inputs": {
                "hp": bench.w.hp,
                "train_names_per_epoch": units["train"],
                "generated_names": units["generate"],
                "heldout_names": units["evaluate"],
                "log_format": bench.w.log_format,
                "log_lines": units["classify"],
                "log_accepted_lines": len(bench.log.accepted),
                "log_distinct_name_ratio": bench.log.distinct_name_ratio,
                "log_skip_ratio": bench.log.skip_ratio,
                "log_tunneling_share": bench.log.tunneling / len(bench.log.accepted),
            },
            "invocations": [
                {"step": step, "trace": r["trace"], "setup_s": _setup_s(r), "busy_s": _busy_s(r),
                 "wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"]}
                for step, r in bench.invocations
            ],
            "end_to_end": {m: {"value": v, "unit": UNITS[m]} for m, v in e2e.items()},
            "checks": {"problems": bench.problems, "near_threshold": bench.near_threshold,
                       "quality_gates": bench.gates},
            "deadline_overrun": bench.overrun,
            "fixtures_s": fixtures_s,
        }
        if args.trace:
            metrics = {}
            if measured and not failed:
                try:
                    layer, report["per_layer_details"] = per_layer(bench)
                except StepFailed as exc:
                    bench.problems.append(str(exc))
                    result.update(correct=False, failed=1)
                    layer = {}
                metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
                traced_e2e = end_to_end(bench.records(traced=True), units)
                for m in UNITS:
                    overhead = 100.0 * (traced_e2e[m] - e2e[m]) / e2e[m]
                    metrics[f"tracing.overhead.{m}"] = {"value": overhead, "unit": "%"}
            result["metrics"] = metrics
        else:
            result["metrics"] = report["end_to_end"]
        report["result"] = result
        report["wall_s"] = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for m, v in report["end_to_end"].items():
        print(f"{args.workload:<17} {m:<22} {v['value']:>14.4f} {v['unit']}")
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(f"details: {out.relative_to(ROOT)}")
    if bench.overrun and not measured and not failed:
        print(f"error: {bench.overrun}; too few invocations finished for a result", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
