"""Hypothesis property tests over arbitrary inputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunneldetect.datagen import CSV_HEADER, read_corpus
from tunneldetect.evaluation import SCORE_CHUNK, score
from tunneldetect.hostnames import is_plausible_hostname
from tunneldetect.logparse import FORMATS, parse_line
from tunneldetect.network import forward_batch, init_params
from tunneldetect.tokenizer import encode_batch, encode_domain, encoding_key

from conftest import TINY_HP

TINY_MODEL = init_params(TINY_HP, seed=5)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(st.text(max_size=20), min_size=SCORE_CHUNK - 8, max_size=2 * SCORE_CHUNK + 8))
def test_score_is_independent_of_chunking(names):
    got = score(TINY_MODEL, TINY_HP, names)
    want = forward_batch(TINY_MODEL, TINY_HP, encode_batch(names, TINY_HP.l))
    np.testing.assert_array_equal(got, want)


# Text shaped like resolver log lines, so that some of it parses.
_log_text = st.one_of(
    st.text(),
    st.builds(
        "{}query[{}] {} from {}".format,
        st.text(max_size=8), st.text(max_size=4), st.text(max_size=30), st.text(max_size=8),
    ),
    st.builds("{}query: {} IN {}".format, st.text(max_size=8), st.text(max_size=30), st.text(max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORMATS), _log_text)
def test_parse_line_is_total(fmt, line):
    rec = parse_line(fmt, line, 1)
    if rec is not None:
        assert is_plausible_hostname(rec.qname)


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
                np.testing.assert_array_equal(encode_domain(a, length), encode_domain(b, length))
