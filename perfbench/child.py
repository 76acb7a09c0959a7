"""Run one tunneldetect CLI subcommand in this process and record its timings.

    python3 perfbench/child.py RECORD_JSON SPAWN_NS TRACE -- <tunneldetect args...>

SPAWN_NS is the parent's CLOCK_MONOTONIC reading (ns) just before it
started this process, so set-up time includes interpreter start and
imports. The record written to RECORD_JSON holds the time of the first
unit of work, the end time and, with TRACE=1, every span.

Spans are recorded around calls into the package's public functions,
patched where their callers look them up (module attributes), without
editing the package. Each span is (name, start_ns, end_ns, parent index,
work count) and stays in memory until the subcommand returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_now = time.monotonic_ns  # CLOCK_MONOTONIC, shared with the parent process

ROOT = Path(__file__).resolve().parent.parent

# The call that starts each subcommand's first unit of work. Everything
# before it (imports, argparse, model load, corpus read, encode, init)
# is set-up.
FIRST_WORK = {
    "generate-data": [("datagen", "build_corpus")],
    "train": [("training", "backward_batch")],
    "evaluate": [("evaluation", "forward_batch")],
    "classify": [("logparse", "parse_line")],
}


def _rows(args, _result):
    return int(args[2].shape[0]) if len(args) > 2 else 0


def _names(args, _result):
    return len(args[0]) if args else 0


def _accepted(_args, result):
    return 0 if result is None else 1


# (module, function, work count) traced in the traced run. Each function
# is patched on the module its callers resolve it from: `cli` reaches
# datagen/evaluation/logparse/model_store/training through the module
# objects; `training` and `evaluation` hold their own references to the
# network and tokenizer functions.
TRACED = [
    ("datagen", "desk_scale_spec", None),
    ("datagen", "default_normal_pools", None),
    ("datagen", "build_corpus", None),
    ("datagen", "write_corpus", None),
    ("datagen", "read_corpus", None),
    ("training", "train", None),
    ("training", "count_parameters", None),
    ("training", "init_params", None),
    ("training", "encode_batch", _names),
    ("training", "backward_batch", _rows),
    ("training", "adam_step", None),
    ("model_store", "save", None),
    ("model_store", "load", None),
    ("evaluation", "predict_samples", None),
    ("evaluation", "predict_names", None),
    ("evaluation", "encode_batch", _names),
    ("evaluation", "forward_batch", _rows),
    ("evaluation", "compute_metrics", None),
    ("evaluation", "format_report", None),
    ("evaluation", "report_to_dict", None),
    ("evaluation", "export_scatter", None),
    ("logparse", "parse_line", _accepted),
]

# Span names use the module that implements the function, so the
# network and tokenizer layers show under their own names.
SPAN_MODULE = {
    ("training", "backward_batch"): "network",
    ("training", "init_params"): "network",
    ("evaluation", "forward_batch"): "network",
    ("training", "encode_batch"): "tokenizer",
    ("evaluation", "encode_batch"): "tokenizer",
}


class Tracer:
    """Keeps spans in memory; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                work = count(args, result) if count is not None else 0
                spans[idx] = (name, start, end, parent, work)

        setattr(module, attr, traced)


def _mark_first_call(modules: dict, targets, record: dict) -> None:
    """Record when any target is first called, then restore the originals
    so later calls run unwrapped."""
    originals = [(modules[m], a, getattr(modules[m], a)) for m, a in targets]

    def restore():
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    for module, attr, fn in originals:
        def first(*args, _fn=fn, **kwargs):
            record.setdefault("first_work_ns", _now())
            restore()
            return _fn(*args, **kwargs)

        setattr(module, attr, first)


def main(argv: list[str]) -> int:
    record_path, spawn_ns, trace = argv[0], int(argv[1]), argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: child.py RECORD_JSON SPAWN_NS TRACE -- ARGS...")
    cli_args = argv[4:]
    subcommand = cli_args[0]

    sys.path.insert(0, str(ROOT / "src"))
    from tunneldetect import cli, datagen, evaluation, logparse, model_store, training

    modules = {
        "datagen": datagen,
        "evaluation": evaluation,
        "logparse": logparse,
        "model_store": model_store,
        "training": training,
    }
    record = {"argv": cli_args, "subcommand": subcommand, "spawn_ns": spawn_ns, "trace": trace}
    tracer = Tracer()
    if trace:
        for mod, attr, count in TRACED:
            name = f"{SPAN_MODULE.get((mod, attr), mod)}.{attr}"
            tracer.wrap(modules[mod], attr, name, count)
        tracer.wrap(cli, "main", "cli.main")
    first_work = FIRST_WORK[subcommand]
    first_names = {f"{SPAN_MODULE.get(t, t[0])}.{t[1]}" for t in first_work}
    if not trace:
        _mark_first_call(modules, first_work, record)

    rc = cli.main(cli_args)
    sys.stdout.flush()
    record["end_ns"] = _now()
    record["rc"] = rc
    if trace:
        starts = [s[1] for s in tracer.spans if s[0] in first_names]
        if starts:
            record["first_work_ns"] = min(starts)
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
