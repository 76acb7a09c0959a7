"""Hypothesis property tests over arbitrary inputs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunneldetect.evaluation import SCORE_CHUNK, score
from tunneldetect.network import forward_batch, init_params
from tunneldetect.tokenizer import encode_batch

from conftest import TINY_HP

TINY_MODEL = init_params(TINY_HP, seed=5)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.lists(st.text(max_size=20), min_size=SCORE_CHUNK - 8, max_size=2 * SCORE_CHUNK + 8))
def test_score_is_independent_of_chunking(names):
    got = score(TINY_MODEL, TINY_HP, names)
    want = forward_batch(TINY_MODEL, TINY_HP, encode_batch(names, TINY_HP.l))
    np.testing.assert_array_equal(got, want)
