"""Hypothesis property tests over arbitrary inputs."""

import contextlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tunneldetect import model_store
from tunneldetect.cli import main
from tunneldetect.datagen import (
    CSV_HEADER,
    LABEL_NORMAL,
    LABEL_TUNNELING,
    NORMAL_WEIGHTS,
    TUNNELING_WEIGHTS,
    DomainSample,
    read_corpus,
)
from tunneldetect.evaluation import SCORE_CHUNK, score
from tunneldetect.hostnames import MAX_LABEL_LEN, MAX_NAME_LEN, is_plausible_hostname
from tunneldetect.logparse import FORMATS, parse_line
from tunneldetect.network import Hyperparams, expected_shapes, forward_batch, init_params
from tunneldetect.tokenizer import LITERALS, encode_batch, encoding_key

from conftest import TINY_HP

TINY_MODEL = init_params(TINY_HP, seed=5)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(st.text(max_size=20), min_size=SCORE_CHUNK - 8, max_size=2 * SCORE_CHUNK + 8))
def test_score_is_independent_of_chunking(names):
    got = score(TINY_MODEL, TINY_HP, names)
    want = forward_batch(TINY_MODEL, TINY_HP, encode_batch(names, TINY_HP.l))
    np.testing.assert_array_equal(got, want)


# Alphabet characters in either case, mixed with a few others: KELVIN
# SIGN lowercases to 'k', and 'İ' to 'i' plus a combining dot.
_name_chars = st.one_of(st.sampled_from(LITERALS + LITERALS.upper()), st.sampled_from("\u212a\u0130\u00e9 "))
_names = st.one_of(
    st.text(),
    st.text(_name_chars),
    st.lists(st.text(_name_chars, min_size=1, max_size=12), min_size=1, max_size=4).map(".".join),
)

# Text shaped like resolver log lines, so that some of it parses.
_log_text = st.one_of(
    _names,
    # names from the alphabet, then blanks and a trailing dot, which are
    # not part of the name
    st.builds(
        "{}{}{}".format,
        st.lists(st.text(st.sampled_from(LITERALS.replace(".", "")), min_size=1, max_size=12), min_size=1, max_size=4)
        .map(".".join),
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "."]),
    ),
    st.builds(
        "{}query[{}] {} from {}".format,
        st.text(max_size=8), st.text(max_size=4), _names, st.text(max_size=8),
    ),
    st.builds("{}query: {} IN {}".format, st.text(max_size=8), _names, st.text(max_size=8)),
)


def _plausible(name: str) -> bool:
    """The hostname rule written out: ASCII, every character in LITERALS
    after lowercasing, 1..253 characters, every label 1..63."""
    return (name.isascii() and all(c in LITERALS for c in name.lower())
            and 1 <= len(name) <= MAX_NAME_LEN
            and all(1 <= len(label) <= MAX_LABEL_LEN for label in name.split(".")))


_label_chars = st.sampled_from(LITERALS.replace(".", "") + LITERALS.replace(".", "").upper())


@st.composite
def _names_near_the_length_limits(draw):
    """Names of 248..258 characters whose labels are all 60..66
    characters long, but the last, which takes what is left."""
    label_len = draw(st.integers(MAX_LABEL_LEN - 3, MAX_LABEL_LEN + 3))
    total = draw(st.integers(MAX_NAME_LEN - 5, MAX_NAME_LEN + 5))
    chars = draw(st.text(_label_chars, min_size=total, max_size=total))
    return "".join("." if i % (label_len + 1) == label_len else c for i, c in enumerate(chars))


_hostname_candidates = st.one_of(
    _names,
    st.text(_label_chars, min_size=MAX_LABEL_LEN - 3, max_size=MAX_LABEL_LEN + 3),
    st.text(_label_chars, min_size=MAX_LABEL_LEN - 3, max_size=MAX_LABEL_LEN + 3).map(lambda label: label + ".com"),
    _names_near_the_length_limits(),
)


_EDGE_NAMES = ["", "a..b", "a.com.", ".a", "a" * 63, "a" * 64, "a b.com", "\u00e4.com", "ex\u212aample.com",
               ".".join(["a" * 63] * 3 + ["a" * 61]), ".".join(["a" * 63] * 3 + ["a" * 62])]


def _with_edge_names(test):
    for name in _EDGE_NAMES:
        test = example(name)(test)
    return test


@settings(max_examples=500, deadline=None)
@_with_edge_names
@given(_hostname_candidates)
def test_is_plausible_hostname_is_the_written_rule(name):
    assert is_plausible_hostname(name) == _plausible(name)


@settings(max_examples=200, deadline=None)
@_with_edge_names
@given(_hostname_candidates)
def test_domain_sample_accepts_exactly_the_plausible_names(name):
    try:
        DomainSample(name, LABEL_NORMAL)
    except ValueError:
        assert not is_plausible_hostname(name)
    else:
        assert is_plausible_hostname(name)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORMATS), _log_text)
def test_parse_line_is_total(fmt, line):
    qname = parse_line(fmt, line)
    if qname is not None:
        assert qname.isascii()
        assert qname == qname.strip()
        assert is_plausible_hostname(qname)


@settings(max_examples=300, deadline=None)
@given(st.lists(_names, max_size=8), st.integers(1, 64))
def test_encode_batch_matches_reference(names, length):
    want = np.zeros((len(names), length), dtype=np.int64)  # PAD
    for i, name in enumerate(names):
        for j, ch in enumerate(name.lower()[:length]):
            want[i, j] = 2 + LITERALS.index(ch) if ch in LITERALS else 1  # OOV
    np.testing.assert_array_equal(encode_batch(names, length), want)


_HEADER = (",".join(CSV_HEADER) + "\r\n").encode()

# Bytes shaped like corpus rows: separators, quotes, NUL, names, labels.
_csv_bytes = st.lists(
    st.sampled_from([b",", b'"', b"\n", b"\r", b"\x00", b"\xff", b"a", b"x.com", b"normal", b"none", b"tunneling"])
).map(b"".join)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.csv"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(), _csv_bytes, st.one_of(st.binary(), _csv_bytes).map(lambda b: _HEADER + b)))
def test_read_corpus_fails_only_with_located_value_error(corpus_path, data):
    corpus_path.write_bytes(data)
    try:
        samples = read_corpus(corpus_path)
    except ValueError as exc:
        assert str(corpus_path) in str(exc)
    else:
        assert isinstance(samples, list)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30), st.text(max_size=30), st.integers(1, 20))
def test_equal_encoding_keys_encode_equal_rows(name, tail, length):
    variants = [name, name.swapcase(), name.upper(), name[:length] + tail, name + tail, tail]
    for a in variants:
        assert len(encoding_key(a, length)) <= length
        for b in variants:
            if encoding_key(a, length) == encoding_key(b, length):
                np.testing.assert_array_equal(encode_batch([a], length), encode_batch([b], length))


_SMALL_HP = Hyperparams(nf=2, ks=2, sl=1, d=2, l=3, hn=2)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("model") / "model.bin"


@pytest.fixture(scope="module")
def small_model_bytes(model_path):
    model_store.save(init_params(_SMALL_HP, seed=3), _SMALL_HP, model_path)
    return model_path.read_bytes()


def _mutate(blob: bytes, edits) -> bytes:
    for kind, offset, chunk in edits:
        offset %= len(blob) + 1
        if kind == "truncate":
            blob = blob[:offset]
        elif kind == "extend":
            blob += chunk
        else:  # overwrite
            blob = blob[:offset] + chunk + blob[offset + len(chunk):]
    return blob


_edits = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "extend", "overwrite"]),
        st.integers(0, 2**16),
        st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from([b"\xff" * 8, b"\x00" * 8])),
    ),
    min_size=1, max_size=3,
)


def _assert_loads_or_format_error(path, data: bytes):
    path.write_bytes(data)
    try:
        params, hp, vocab = model_store.load(path)
    except model_store.ModelFormatError:
        return
    assert {name: arr.shape for name, arr in params.arrays()} == expected_shapes(hp)
    assert vocab.literals == LITERALS


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(), st.binary().map(lambda b: model_store.MAGIC + struct.pack("<I", model_store.VERSION) + b)))
def test_load_of_arbitrary_bytes_fails_only_with_format_errors(model_path, data):
    _assert_loads_or_format_error(model_path, data)


@settings(max_examples=300, deadline=None)
@given(_edits)
def test_load_of_mutated_model_fails_only_with_format_errors(model_path, small_model_bytes, edits):
    _assert_loads_or_format_error(model_path, _mutate(small_model_bytes, edits))




# The CLI driven whole: each subcommand on small drawn files and flags.
# Every hyperparameter is at most 8, a corpus at most 20 rows and
# training one epoch, so no example allocates much or runs long. "@/"
# in an argument stands for the example's directory.

_CLI_MODEL_HP = Hyperparams(nf=4, ks=3, sl=1, d=4, l=8, hn=4)
# The inputs and flags of each subcommand that an example may spoil
_CLI_FAULTS = {
    "generate-data": ["spec", "size", "--per-class", "--seed", "--apex", "--normal-feed"],
    "train": ["corpus", "--hp", "--epochs", "--batch", "--lr", "--seed"],
    "grid-search": ["corpus", "grid", "--folds", "--epochs", "--batch", "--lr", "--seed"],
    "evaluate": ["model", "corpus", "--threshold"],
    "classify": ["model", "--threshold", "--apex"],
}
_apexes = st.sampled_from(["exfiltest.com", "Case.Example", "a.io"])
_bad_apexes = st.sampled_from(["bad apex!", "", "a..b", "\u00e4.com"])
_row_names = st.text(st.sampled_from("az09-"), min_size=1, max_size=8).map(lambda s: s + ".com")


@st.composite
def _hp_line(draw):
    """Hyperparameters from 1 to 8, the kernel within the sequence."""
    l = draw(st.integers(1, 8))
    nf, ks, sl, d, hn = (draw(st.integers(1, top)) for top in (8, l, 8, 8, 8))
    return f"nf={nf} ks={ks} sl={sl} d={d} l={l} hn={hn}"


_bad_hp_line = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["nf=0 ks=1 sl=1 d=1 l=1 hn=1", "nf=1 ks=5 sl=1 d=1 l=4 hn=1", "nf=1 ks=1", "nf=x"]),
)
_spec = st.fixed_dictionaries(
    {
        "tunneling": st.dictionaries(st.sampled_from(sorted(TUNNELING_WEIGHTS)), st.integers(0, 8), max_size=2),
        "normal": st.dictionaries(st.sampled_from(sorted(NORMAL_WEIGHTS)), st.integers(0, 8), max_size=2),
    },
    optional={"apexes": st.lists(_apexes, min_size=1, max_size=2), "seed": st.integers(0, 2**33)},
)
_bad_spec = st.one_of(
    st.sampled_from(["", "{", "\x00", "[]", '"text"', "7", "null"]),
    st.one_of(
        _spec.map(lambda spec: {**spec, "tunneling": {"bogus": 1}}),
        _spec.map(lambda spec: {**spec, "normal": {"bogus-like": 1}}),
        _spec.map(lambda spec: {**spec, "tunneling": {"iodine": -1}}),
        _spec.map(lambda spec: {**spec, "normal": {"cz-like": True}}),
        _spec.map(lambda spec: {**spec, "tunneling": [1]}),
        st.tuples(_spec, st.lists(_bad_apexes, max_size=2)).map(lambda t: {**t[0], "apexes": t[1]}),
        st.tuples(_spec, st.sampled_from([-1, "7", 7.0, True, None])).map(lambda t: {**t[0], "seed": t[1]}),
        st.tuples(_spec, st.sampled_from(["apex", "seeds", ""])).map(lambda t: {**t[0], t[1]: 1}),
        _spec.map(lambda spec: {k: v for k, v in spec.items() if k != "normal"}),
    ).map(json.dumps),
)
_bad_rows = st.sampled_from([
    ["a b.com", LABEL_NORMAL, "none", "synthetic"],
    ["x.com", "bogus", "none", "synthetic"],
    ["x.com", LABEL_NORMAL, "iodine", "synthetic"],
    ["x.com", LABEL_TUNNELING, "none", "synthetic"],
    ["x.com", LABEL_NORMAL],
    ['"x.com', LABEL_NORMAL, "none", "synthetic"],
])


@st.composite
def _cli_runs(draw, command, fault):
    """argv of `command`, the text of each file in its directory, the
    edits that spoil its model file, and the files it may write. Only
    the input or flag named by `fault`, if any, takes a bad value."""

    def pick(name, good, bad):
        return draw(bad if fault == name else good)

    def flag(name, good, bad):
        """[] or [name, a good value]; [name, a bad value] for the fault."""
        return [name, draw(bad)] if fault == name else draw(st.one_of(st.just([]), good.map(lambda v: [name, v])))

    kinds = st.sampled_from([(LABEL_NORMAL, "none"), (LABEL_TUNNELING, "iodine")])
    rows = [[name, *kind, "synthetic"] for name, kind in draw(st.lists(st.tuples(_row_names, kinds), min_size=1, max_size=20))]
    corpus_path = "@/corpus.csv"
    if fault == "corpus":
        spoil = draw(st.sampled_from(["row", "text", "absent", "empty"]))
        rows = {"row": rows[:19] + [draw(_bad_rows)], "empty": []}.get(spoil, rows)
        corpus_path = "@/absent.csv" if spoil == "absent" else corpus_path
    files = {
        "spec.json": json.dumps(draw(_spec)) if fault != "spec" else draw(_bad_spec),
        "corpus.csv": "".join(",".join(row) + "\n" for row in [CSV_HEADER, *rows]),
        "grid.txt": "\n".join(draw(st.lists(_hp_line(), min_size=1, max_size=3))
                              + ([draw(_bad_hp_line)] if fault == "grid" else [])),
        "log.txt": "\n".join(draw(st.lists(st.one_of(_log_text, _row_names), max_size=20))),
        "feed.txt": "\n".join(draw(st.lists(st.one_of(_log_text, _row_names), max_size=20))),
    }
    if fault == "corpus" and spoil == "text":
        files["corpus.csv"] = draw(st.text(max_size=40))
    model_edits = draw(_edits) if fault == "model" else []

    corpus = ["--corpus", corpus_path]
    training = [
        *flag("--epochs", st.just("1"), st.sampled_from(["0", "-1", "x"])),
        *flag("--batch", st.integers(1, 8).map(str), st.sampled_from(["0", "-1", "x"])),
        *flag("--lr", st.just("0.01"), st.sampled_from(["0", "-1", "nan", "inf", "1e300"])),
        *flag("--seed", st.integers(0, 2**33).map(str), st.sampled_from(["-1", "x"])),
    ]
    training += [] if "--epochs" in training else ["--epochs", "1"]
    threshold = flag("--threshold", st.sampled_from(["0.5", "0.9"]), st.sampled_from(["0", "1", "nan", "x"]))
    outputs = []
    if command == "generate-data":
        outputs = ["@/out.csv"]
        size = "--spec" if fault == "spec" else pick("size", st.sampled_from(["--per-class", "--spec"]), st.just("both"))
        argv = ["--out", *outputs]
        if size != "--spec":
            argv += ["--per-class", pick("--per-class", st.integers(0, 8).map(str), st.sampled_from(["-1", "x"]))]
        argv += ["--spec", "@/spec.json"] if size != "--per-class" else []
        argv += flag("--seed", st.integers(0, 2**33).map(str), st.sampled_from(["-1", "x"]))
        argv += flag("--apex", _apexes, _bad_apexes)
        argv += flag("--normal-feed", st.sampled_from(["alexa-like=@/feed.txt", "cz-like=@/feed.txt"]),
                     st.sampled_from(["bogus=@/feed.txt", "alexa-like=@/absent.txt", "alexa-like"]))
    elif command == "train":
        outputs = ["@/model-out.bin"]
        argv = [*corpus, "--out", *outputs, "--hp", pick("--hp", _hp_line(), _bad_hp_line), *training]
    elif command == "grid-search":
        outputs = draw(st.sampled_from([[], ["@/report.json"]]))
        argv = [*corpus, "--grid", "@/grid.txt", *training,
                *flag("--folds", st.sampled_from(["2", "3"]), st.sampled_from(["-1", "0", "1", "8"]))]
        argv += ["--report", *outputs] if outputs else []
    elif command == "evaluate":
        argv = ["--model", "@/model.bin", *corpus, *threshold]
        for name in draw(st.lists(st.sampled_from(["--report", "--scatter"]), unique=True)):
            outputs.append(f"@/{name[2:]}.out")
            argv += [name, outputs[-1]]
    else:
        argv = ["--model", "@/model.bin", "--input", "@/log.txt", "--format", draw(st.sampled_from(["plain", "dnsmasq", "bind"])),
                *threshold, *flag("--apex", _apexes, _bad_apexes)]
    return [command, *argv], files, model_edits, outputs


@pytest.fixture(scope="module")
def cli_model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.bin"
    model_store.save(init_params(_CLI_MODEL_HP, seed=2), _CLI_MODEL_HP, path)
    return path.read_bytes()


@pytest.mark.parametrize("command, fault", [(c, f) for c, faults in _CLI_FAULTS.items() for f in [None, *faults]])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_cli_exits_only_with_documented_codes(cli_model_bytes, command, fault, data):
    """Exit 0, 2, 3 or 4, never a traceback, and a failed run writes no
    file."""
    argv, files, model_edits, outputs = data.draw(_cli_runs(command, fault))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        Path(tmp, "model.bin").write_bytes(_mutate(cli_model_bytes, model_edits) if model_edits else cli_model_bytes)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([arg.replace("@/", tmp + os.sep) for arg in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            assert all(Path(tmp, out[2:]).exists() for out in outputs)
        else:  # no output, no manifest
            assert sorted(os.listdir(tmp)) == sorted([*files, "model.bin"]), (code, stderr.getvalue())
