"""Hypothesis property tests over arbitrary inputs."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tunneldetect import model_store
from tunneldetect.datagen import CSV_HEADER, LABEL_NORMAL, DomainSample, read_corpus
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
