"""Command-line entry point.

Subcommands compose the library into reproducible pipelines:

    generate-data   write a labeled synthetic corpus CSV
    train           train a model on a corpus CSV
    grid-search     cross-validated hyperparameter search
    evaluate        metrics report (and scatter CSV) for a model on a corpus
    classify        verdicts for names from a file/stdin or a resolver log,
                    written a batch of fresh names at a time

Every file-producing subcommand also writes `<output>.manifest.json`
recording the resolved flags, seeds and input/output checksums, enough
to reproduce the run bit for bit with the same numpy, BLAS library and
BLAS thread count, which the manifest records too. The inputs are
hashed on one background thread from when the subcommand starts reading
them (see _InputDigests), so `evaluate` hashes its model while it loads
it and scores; the outputs are hashed once they are written.

Exit codes: 0 success, 2 usage, 3 I/O failure, 4 data/format problem
(an input that asks for more memory than numpy can allocate included).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import sys
import threading
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from . import datagen, evaluation, logparse, model_store, training
from .datagen import LABEL_NORMAL, LABEL_TUNNELING
from .hostnames import apex_matcher, is_plausible_hostname, normalize_name
from .network import DEFAULT_HYPERPARAMS, Hyperparams
from .tokenizer import encoding_key

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4

# Most encoding keys `classify` keeps probabilities for in one run:
# 2**16 keys of 45 characters (the reference l) take about 10 MB.
NAME_CACHE_SIZE = 2**16


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


class _InputDigests:
    """The digests of `paths` as the manifest records them, keyed by
    `str(path)`, taken on one background thread from the start of the
    `with` block, while the command reads and computes. `wait` returns
    them, or raises what hashing raised; leaving the block joins the
    thread, errors included, so it never outlives the command."""

    def __init__(self, paths):
        self._paths = paths
        self._result = None
        self._thread = threading.Thread(target=self._hash, name="tunneldetect-hash")

    def _hash(self) -> None:
        try:
            self._result = {str(p): _sha256_file(p) for p in self._paths}
        except BaseException as exc:  # handed to wait(), not printed by the thread
            self._result = exc

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._thread.join()

    def wait(self) -> dict:
        self._thread.join()
        if isinstance(self._result, BaseException):
            raise self._result
        return self._result


def _environment() -> dict:
    """What bit-for-bit reproduction also depends on: the numpy version,
    the BLAS library numpy was built against, and the BLAS thread count
    requested through the environment (None when unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _write_manifest(out_path, subcommand: str, args: dict, inputs: _InputDigests, outputs: list, metrics: dict | None = None) -> None:
    manifest = {
        "tool": f"tunneldetect {__version__}",
        "subcommand": subcommand,
        "args": args,
        "inputs": inputs.wait(),
        "outputs": {str(p): _sha256_file(p) for p in outputs},
        "environment": _environment(),
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    _write_json(str(out_path) + ".manifest.json", manifest)


def _write_json(path, obj) -> None:
    """Every JSON file the CLI writes: indent 2, sorted keys, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hp_flag(text: str) -> Hyperparams:
    try:
        return training.parse_grid_line(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _feed_flag(text: str) -> tuple[str, str]:
    origin, sep, path = text.partition("=")
    if not sep or not origin or not path:
        raise argparse.ArgumentTypeError(f"expected ORIGIN=PATH, got {text!r}")
    return origin, path


def _threshold_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"threshold must be in (0, 1), got {value}")
    return value


def _read_spec(path) -> datagen.CorpusSpec:
    """The corpus spec in a JSON file; "apexes" and "seed" may be left
    out, and then take CorpusSpec's defaults. Malformed content, a
    missing or an unknown key raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"expected a JSON object, got {raw!r}")
            keys = ["tunneling", "normal", "apexes", "seed"]
            for key in raw:
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} (expected one of {keys})")
            optional = {key: raw[key] for key in keys[2:] if key in raw}
            return datagen.CorpusSpec(raw["tunneling"], raw["normal"], **optional)
        except KeyError as exc:
            raise ValueError(f"corpus spec {path} lacks the key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"corpus spec {path}: {exc}") from None


def cmd_generate_data(args) -> int:
    feeds = args.normal_feed or []
    with _InputDigests(([args.spec] if args.spec else []) + [path for _, path in feeds]) as inputs:
        per_class = None if args.spec else args.per_class
        spec = _read_spec(args.spec) if args.spec else datagen.desk_scale_spec(per_class=per_class)
        # --seed and --apex replace what the spec file or the defaults say
        spec = replace(spec, seed=spec.seed if args.seed is None else args.seed, apexes=args.apex or spec.apexes)

        pools = datagen.default_normal_pools()
        for origin, path in feeds:
            pools[origin], skipped = datagen.load_normal(path)
            if skipped:
                print(f"note: {skipped} invalid lines skipped in {path}", file=sys.stderr)

        corpus = datagen.build_corpus(spec, pools)
        datagen.write_corpus(corpus, args.out)

        counts = {
            "tunneling": dict(spec.tunneling_counts),
            "normal": dict(spec.normal_counts),
            "total": len(corpus),
        }
        _write_manifest(
            args.out,
            "generate-data",
            {
                "seed": spec.seed,
                "apexes": list(spec.apexes),
                "spec": args.spec,
                "per_class": per_class,
            },
            inputs=inputs,
            outputs=[args.out],
            metrics=counts,
        )
    print(f"wrote {len(corpus)} samples to {args.out}")
    return EXIT_OK


def _load_labeled_corpus(path):
    corpus = datagen.read_corpus(path)
    if not corpus:
        raise ValueError(f"corpus {path} is empty")
    return corpus


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """The training flags shared by train and grid-search, defaulting to
    TrainConfig's defaults."""
    defaults = training.TrainConfig()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--lr", type=float, default=defaults.lr)


def _train_config(args) -> tuple[training.TrainConfig, dict]:
    """The TrainConfig of the flags _add_train_flags added, and its
    manifest entries."""
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed, lr=args.lr)
    return cfg, {"epochs": cfg.epochs, "batch": cfg.batch_size, "seed": cfg.seed, "lr": cfg.lr}


def cmd_train(args) -> int:
    with _InputDigests([args.corpus]) as inputs:
        corpus = _load_labeled_corpus(args.corpus)
        hp = args.hp
        cfg, cfg_args = _train_config(args)
        losses: list[float] = []

        def progress(epoch, loss):
            losses.append(loss)
            print(f"epoch {epoch:>3}/{cfg.epochs}  mean loss {loss:.6f}", file=sys.stderr)

        params = training.train(corpus, hp, cfg, progress=progress)
        model_store.save(params, hp, args.out)
        _write_manifest(
            args.out,
            "train",
            {"corpus": str(args.corpus), "hp": asdict(hp), **cfg_args},
            inputs=inputs,
            outputs=[args.out],
            metrics={
                "parameter_count": training.count_parameters(hp),
                "epoch_losses": losses,
            },
        )
    print(f"trained {training.count_parameters(hp)} parameters, model saved to {args.out}")
    return EXIT_OK


def cmd_grid_search(args) -> int:
    hashing = _InputDigests([p for p in (args.corpus, args.grid) if p]) if args.report else contextlib.nullcontext()
    with hashing as inputs:
        corpus = _load_labeled_corpus(args.corpus)
        grid = training.parse_grid_file(args.grid) if args.grid else training.default_grid()
        cfg, cfg_args = _train_config(args)
        results = training.grid_search(corpus, grid, cfg, k=args.folds)

        rows = [
            {
                "hp": asdict(r.hp),
                "mean_f1": r.mean_f1,
                "sd_f1": r.sd_f1,
                "parameters": r.parameter_count,
            }
            for r in results
        ]
        print(f"{'mean_f1':>8} {'sd_f1':>8} {'params':>12}  hp")
        for r, row in zip(results, rows):
            hp_text = " ".join(f"{k}={v}" for k, v in row["hp"].items())
            print(f"{r.mean_f1:>8.4f} {r.sd_f1:>8.4f} {r.parameter_count:>12,d}  {hp_text}")
        if args.report:
            _write_json(args.report, rows)
            _write_manifest(
                args.report,
                "grid-search",
                {
                    "corpus": str(args.corpus),
                    "grid": str(args.grid) if args.grid else "default",
                    "folds": args.folds,
                    **cfg_args,
                },
                inputs=inputs,
                outputs=[args.report],
                metrics={"best": rows[0]},
            )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    """Print the metrics report of the model on the labeled corpus, and
    write the JSON report and the scatter CSV when asked. The model is
    loaded as float32, as classify loads it, so the metrics are those of
    the verdicts classify prints for the same names, up to the batch
    bound evaluation.score states for float32. When a report or scatter
    CSV is asked for, the model and corpus are hashed for the manifest
    on a second thread while the model loads and the corpus is scored."""
    manifest_out = args.report or args.scatter
    hashing = _InputDigests([args.model, args.corpus]) if manifest_out else contextlib.nullcontext()
    with hashing as inputs:
        params, hp, _vocab = model_store.load(args.model, np.float32)
        corpus = _load_labeled_corpus(args.corpus)
        probabilities = evaluation.predict_samples(params, hp, corpus)
        report = evaluation.compute_metrics(corpus, probabilities, args.threshold)
        print(evaluation.format_report(report))
        metrics = evaluation.report_to_dict(report)

        outputs = []
        if args.scatter:
            evaluation.export_scatter(corpus, probabilities, args.scatter)
            outputs.append(args.scatter)
        if args.report:
            _write_json(args.report, metrics)
            outputs.append(args.report)
        if manifest_out:
            _write_manifest(
                manifest_out,
                "evaluate",
                {
                    "model": str(args.model),
                    "corpus": str(args.corpus),
                    "threshold": args.threshold,
                },
                inputs=inputs,
                outputs=outputs,
                metrics=metrics,
            )
    return EXIT_OK


def _classify_batches(params, hp, names, cache: dict):
    """Probabilities of `names` in input order, one batch at a time:
    yields (batch of names, their probabilities, how many names were
    forwarded).

    `cache` maps encoding keys (what the tokenizer sees of a name) to
    probabilities, least recently used first; a hit makes its key most
    recently used. One name per key the cache lacks is scored; names
    with equal keys encode to identical rows, so the result equals
    scoring every name with the same weights, up to the batch bound
    evaluation.score states for their dtype. A batch ends when the
    cache lacks SCORE_CHUNK of its keys, when it holds NAME_CACHE_SIZE
    names, or at the end of `names`; its lacking keys are scored in one
    forward pass. After the batch is yielded the cache is cut back to
    NAME_CACHE_SIZE keys.
    """
    names = iter(names)
    while True:
        batch, keys, missing = [], [], {}  # missing: key -> first name with it
        for name in names:
            key = encoding_key(name, hp.l)
            if key in cache:
                cache[key] = cache.pop(key)  # now most recently used
            elif key not in missing:
                missing[key] = name
            batch.append(name)
            keys.append(key)
            if len(missing) == evaluation.SCORE_CHUNK or len(batch) == NAME_CACHE_SIZE:
                break
        if not batch:
            return
        for key, p in zip(missing, evaluation.score(params, hp, list(missing.values()))):
            cache[key] = float(p)
        yield batch, [cache[key] for key in keys], len(missing)
        while len(cache) > NAME_CACHE_SIZE:
            del cache[next(iter(cache))]


def _accepted_names(lines, fmt: str, under_apex, tally: collections.Counter):
    """Query names of the lines that parse and, when `under_apex` is
    given, pass it; `tally` counts the other lines as "skipped" or
    "outside"."""
    for line in lines:
        qname = logparse.parse_line(fmt, line)
        if qname is None:
            tally["skipped"] += 1
        elif under_apex and not under_apex(qname):
            tally["outside"] += 1
        else:
            yield qname


def cmd_classify(args) -> int:
    """Write `name<TAB>probability<TAB>verdict` for each accepted name,
    one batch of _classify_batches at a time, so on a stream the output
    can lag the input by up to SCORE_CHUNK fresh names or NAME_CACHE_SIZE
    lines; the end of the input flushes the last batch. Then write the
    counts to stderr. The model is loaded as float32: classify only
    runs the forward pass, which needs half the memory traffic then, and
    evaluate scores with the same weights."""
    apexes = [normalize_name(apex) for apex in args.apex or []]
    for apex, normalized in zip(args.apex or [], apexes):
        if not is_plausible_hostname(normalized):
            raise ValueError(f"--apex {apex!r} is not a plausible hostname")
    params, hp, _vocab = model_store.load(args.model, np.float32)

    tally = collections.Counter()
    scored = forwarded = 0
    source = (contextlib.nullcontext(sys.stdin) if args.input == "-"
              else open(args.input, "r", encoding="utf-8", errors="replace"))
    with source as lines:
        names = _accepted_names(lines, args.format, apex_matcher(apexes) if apexes else None, tally)
        for batch, probs, fresh in _classify_batches(params, hp, names, {}):
            called = evaluation.is_tunneling(probs, args.threshold)
            for name, p, c in zip(batch, probs, called):
                print(f"{name}\t{p:.6f}\t{LABEL_TUNNELING if c else LABEL_NORMAL}")
            scored += len(batch)
            forwarded += fresh
    if tally["skipped"]:
        print(f"skipped {tally['skipped']} unparseable lines", file=sys.stderr)
    note = f"names scored: {scored}, distinct names forwarded: {forwarded}"
    if args.apex:
        note += f", names outside --apex: {tally['outside']}"
    print(note, file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneldetect",
        description="Detect DNS tunneling from domain names with a character-level CNN.",
    )
    parser.add_argument("--version", action="version", version=f"tunneldetect {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate-data", help="write a labeled synthetic corpus CSV")
    p.add_argument("--out", required=True, help="corpus CSV to write")
    p.add_argument("--seed", type=int, default=None, help=f"corpus seed (default {datagen.DEFAULT_SEED})")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--per-class", type=int, default=datagen.DESK_PER_CLASS,
                      help=f"samples per class (default {datagen.DESK_PER_CLASS})")
    size.add_argument("--full", dest="per_class", action="store_const", const=datagen.FULL_PER_CLASS,
                      help=f"full-size corpus ({datagen.FULL_PER_CLASS} per class)")
    size.add_argument("--spec", help="JSON file with explicit per-category counts; --seed and --apex replace its own")
    p.add_argument("--apex", action="append", help="tunneling apex domain (repeatable)")
    p.add_argument(
        "--normal-feed",
        action="append",
        type=_feed_flag,
        metavar="ORIGIN=PATH",
        help="normal-domain feed file for an origin (repeatable)",
    )
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train a model on a corpus CSV")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--hp", type=_hp_flag, default=DEFAULT_HYPERPARAMS, help="e.g. 'nf=1024 ks=4 sl=1 d=100 l=45 hn=256'")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="cross-validated hyperparameter search")
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", help="grid file (one key=value combination per line)")
    p.add_argument("--folds", type=int, default=training.DEFAULT_FOLDS)
    _add_train_flags(p)
    p.add_argument("--report", help="JSON report to write")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("evaluate", help="metrics report for a model on a labeled corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--threshold", type=_threshold_flag, default=evaluation.DEFAULT_THRESHOLD)
    p.add_argument("--report", help="JSON metrics report to write")
    p.add_argument("--scatter", help="per-name probability CSV to write")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("classify", help="verdicts for names from a file or stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default="-", help="input file, or '-' for stdin (default)")
    p.add_argument("--format", choices=logparse.FORMATS, default="plain")
    p.add_argument("--threshold", type=_threshold_flag, default=evaluation.DEFAULT_THRESHOLD)
    p.add_argument("--apex", action="append", help="only score names under this apex (repeatable)")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # numpy refuses an allocation beyond what the machine can map,
        # as for a hyperparameter set far larger than any model
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (model_store.ModelFormatError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
