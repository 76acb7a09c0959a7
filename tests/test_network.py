import dataclasses
import gc
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from tunneldetect import network
from tunneldetect.network import (
    DEFAULT_HYPERPARAMS,
    Hyperparams,
    ModelParams,
    _forward_cached,
    _mean_bce,
    backward_batch,
    expected_shapes,
    forward_batch,
    init_params,
)
from tunneldetect.tokenizer import PAD_IDX, encode_batch

from conftest import CONV_HPS, CONV_IDS, loaded_float32
from oracles import (
    GRADCHECK_CASES,
    KINK_CLEARANCE,
    dense_reference,
    gathered_backward,
    gradcheck_inputs,
    gradient_relative_error,
    naive_forward,
    numeric_gradients,
    relu_kink_clearance,
)
from test_evaluation import SCORE_BATCH_BOUND, SCORE_BATCH_BOUND_F32


def packed_windows(cache):
    """(row, position) of each packed conv window, in packed order; row
    -1 marks the all-PAD window that stands for a position's dead rows."""
    rows, pos = [], []
    for p, (lo, k, m) in enumerate(cache["blocks"]):
        assert lo == len(rows)
        rows += cache["order"][:k].tolist() + [-1] * (m - k)
        pos += [p] * m
    return np.array(rows, dtype=np.int64), np.array(pos, dtype=np.int64)


class TestHyperparams:
    def test_reference_configuration(self):
        hp = DEFAULT_HYPERPARAMS
        assert (hp.nf, hp.ks, hp.sl, hp.d, hp.l, hp.hn) == (1024, 4, 1, 100, 45, 256)
        assert hp.conv_out_len == 42
        assert hp.flat_width == 43008

    def test_single_window(self):
        assert Hyperparams(nf=2, ks=4, sl=1, d=3, l=4, hn=2).conv_out_len == 1

    def test_flat_width_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            l = int(rng.integers(2, 64))
            ks = int(rng.integers(1, l + 1))
            sl = int(rng.integers(1, 4))
            hp = Hyperparams(nf=int(rng.integers(1, 16)), ks=ks, sl=sl, d=2, l=l, hn=2)
            assert hp.conv_out_len == (l - ks) // sl + 1
            assert hp.conv_out_len >= 1
            assert hp.flat_width == hp.conv_out_len * hp.nf

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(nf=0, ks=1, sl=1, d=1, l=1, hn=1)
        with pytest.raises(ValueError):
            Hyperparams(nf=1, ks=5, sl=1, d=1, l=4, hn=1)


class TestInitParams:
    def test_deterministic(self, tiny_hp):
        a = init_params(tiny_hp, seed=7)
        b = init_params(tiny_hp, seed=7)
        for (name, arr_a), (_, arr_b) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)

    def test_biases_zero(self, tiny_model):
        assert not tiny_model.conv_b.any()
        assert not tiny_model.dense1_b.any()
        assert not tiny_model.dense2_b.any()

    def test_embedding_bound(self, tiny_model):
        assert np.abs(tiny_model.embedding).max() <= 0.05

    def test_shapes(self, tiny_hp, tiny_model):
        for name, arr in tiny_model.arrays():
            assert arr.shape == expected_shapes(tiny_hp)[name]

    def test_seeds_differ(self, tiny_hp):
        a = init_params(tiny_hp, seed=1)
        b = init_params(tiny_hp, seed=2)
        assert np.abs(a.conv_w - b.conv_w).max() > 0


class TestForward:
    """Single rows through forward_batch: a (1, l) batch per sequence."""

    def test_zero_weights_give_half(self, tiny_hp, tiny_model):
        zero = ModelParams.zeros_like(tiny_model)
        x = encode_batch(["abcdef.com"], tiny_hp.l)
        assert forward_batch(zero, tiny_hp, x)[0] == 0.5

    def test_matches_naive_reference(self, tiny_hp):
        rng = np.random.default_rng(10)
        for seed in range(5):
            params = init_params(tiny_hp, seed)
            # break symmetry of zero biases
            params.conv_b[:] = rng.normal(0, 0.3, size=params.conv_b.shape)
            params.dense1_b[:] = rng.normal(0, 0.3, size=params.dense1_b.shape)
            x = rng.integers(0, 45, size=tiny_hp.l)
            got = forward_batch(params, tiny_hp, x[None, :])[0]
            want = naive_forward(params, tiny_hp, x)
            assert got == pytest.approx(want, rel=1e-12)

    def test_deterministic_bitwise(self, tiny_hp, tiny_model):
        x = encode_batch(["payload123.example.com"], tiny_hp.l)
        np.testing.assert_array_equal(
            forward_batch(tiny_model, tiny_hp, x), forward_batch(tiny_model, tiny_hp, x)
        )

    def test_probability_in_open_interval(self, tiny_hp, tmp_path):
        rng = np.random.default_rng(11)
        for scale in (1.0, 50.0, 5000.0):
            params = init_params(tiny_hp, 3)
            params.dense2_w[:] = rng.normal(0, scale, size=params.dense2_w.shape)
            params.dense2_b[:] = rng.normal(0, scale)
            x = rng.integers(0, 45, size=(20, tiny_hp.l))
            # float32 weights as classify loads them: the logit is cast to
            # float64 before the sigmoid
            for weights in (params, loaded_float32(params, tiny_hp, tmp_path / "model.bin")):
                p = forward_batch(weights, tiny_hp, x)
                assert p.dtype == np.float64
                assert np.all(p > 0.0)
                assert np.all(p < 1.0)

    def test_length_mismatch_raises(self, tiny_hp, tiny_model):
        with pytest.raises(ValueError, match="length"):
            forward_batch(tiny_model, tiny_hp, np.zeros((1, tiny_hp.l + 1), dtype=np.int64))

    def test_batch_matches_single(self, tiny_hp, tiny_model):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 45, size=(8, tiny_hp.l))
        batch_p = forward_batch(tiny_model, tiny_hp, x)
        for i in range(8):
            assert batch_p[i] == forward_batch(tiny_model, tiny_hp, x[i : i + 1])[0]

    def test_out_of_range_symbol_raises(self, tiny_hp, tiny_model):
        for bad in (-1, tiny_model.embedding.shape[0]):
            x = np.zeros((2, tiny_hp.l), dtype=np.int64)
            x[1, -1] = bad
            with pytest.raises(ValueError, match="symbol indices"):
                forward_batch(tiny_model, tiny_hp, x)

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    def test_conv_table_equals_im2col_reference(self, hp):
        # the conv sums per-tap rows of (embedding @ conv_w[j]) over the
        # packed windows; each must match the embedding lookup followed by
        # an im2col GEMM, and the packed windows must be exactly the
        # windows that start at or before a row's last non-PAD symbol
        params = init_params(hp, seed=4)
        params.conv_b[:] = np.random.default_rng(13).normal(0, 0.3, size=hp.nf)
        w_flat = params.conv_w.reshape(hp.ks * hp.d, hp.nf)
        pad_window = np.zeros(hp.ks * hp.d)
        for j in range(hp.ks):
            pad_window[j * hp.d : (j + 1) * hp.d] = params.embedding[PAD_IDX]
        rng = np.random.default_rng(14)
        for batch in (1, 2, 7, 128, 257):
            x = rng.integers(0, 45, size=(batch, hp.l))
            for row, length in zip(x, rng.integers(0, hp.l + 1, size=batch)):
                row[length:] = PAD_IDX
            emb = params.embedding[x]                                   # (B, l, d)
            windows = np.stack(
                [emb[:, p * hp.sl : p * hp.sl + hp.ks].reshape(batch, -1) for p in range(hp.conv_out_len)],
                axis=1,
            )                                                           # (B, P, ks*d)
            _, cache = _forward_cached(params, hp, x)
            rows, pos = packed_windows(cache)
            live = {
                (b, p)
                for b in range(batch)
                for p in range(hp.conv_out_len)
                if any(x[b, i] != PAD_IDX for i in range(p * hp.sl, hp.l))
            }
            assert sorted(zip(rows[rows >= 0], pos[rows >= 0])) == sorted(live)
            want = np.where((rows >= 0)[:, None], windows[rows, pos], pad_window) @ w_flat + params.conv_b
            # summation order differs, so entries that cancel to near zero
            # carry absolute rounding error on the scale of the whole output
            np.testing.assert_allclose(
                cache["ac"], np.maximum(want, 0.0), rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )


# Largest |library - dense reference| allowed in each output and
# gradient block, relative to that block's largest |reference| entry.
DENSE_REFERENCE_BOUND = 1e-12


def _rows_of_lengths(hp, lengths, rng):
    """Rows holding lengths[i] non-PAD symbols, then PAD; a length of
    "hole" is a full row with ks + sl PADs in the middle, so at least one
    window inside the name reads only PAD."""
    x = rng.integers(PAD_IDX + 1, 45, size=(len(lengths), hp.l))
    for row, length in zip(x, lengths):
        if length == "hole":
            row[hp.l // 2 - hp.ks - hp.sl : hp.l // 2] = PAD_IDX
        else:
            row[length:] = PAD_IDX
    return x


class TestDenseReference:
    """The packed forward and backward against the dense computation:
    every im2col window of every row, and one GEMM over the whole
    flattened conv output."""

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    @pytest.mark.parametrize("lengths", [
        [5],
        [0],
        ["full"],
        [0, "full", "hole", 1, 2, 7, 3, "full", 0, 4],
        [0, 0, 0],
    ], ids=["one-row", "one-all-pad-row", "one-full-row", "mixed", "all-pad"])
    def test_probabilities_and_gradients(self, hp, lengths, monkeypatch):
        rng = np.random.default_rng(15)
        params = init_params(hp, seed=6)
        params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
        params.dense1_b[:] = rng.normal(0, 0.3, size=hp.hn)
        x = _rows_of_lengths(hp, [hp.l if n == "full" else n for n in lengths], rng)
        x = x[rng.permutation(len(x))]
        y = rng.integers(0, 2, size=len(x)).astype(float)

        want_p, want_grads, want_loss = dense_reference(params, hp, x, y)
        got_p = forward_batch(params, hp, x)
        with monkeypatch.context() as patch:
            force_distinct_windows(patch, hp)
            distinct_p = forward_batch(params, hp, x)
        grads, loss = gathered_backward(params, hp, x, y)

        def close(got, want, what):
            assert np.abs(got - want).max() <= DENSE_REFERENCE_BOUND * np.abs(want).max(), what

        close(got_p, want_p, "probabilities")
        close(distinct_p, want_p, "probabilities, each distinct window once")
        close(np.array([loss]), np.array([want_loss]), "loss")
        for name, g in grads.arrays():
            close(g, want_grads[name], name)

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    @pytest.mark.parametrize("block", [1, 5, 96, 1000])
    def test_dense1_gradient_blocks(self, hp, block, monkeypatch):
        # buffers of `block` scalars: one row when hn is larger, ending
        # mid-position, spanning positions, or one partial buffer
        monkeypatch.setattr(network, "CACHE_BLOCK", block)
        rng = np.random.default_rng(16)
        params = init_params(hp, seed=7)
        params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
        x = _rows_of_lengths(hp, [hp.l, 0, 3, "hole", 1, hp.l // 2], rng)
        y = rng.integers(0, 2, size=len(x)).astype(float)
        _, want, _ = dense_reference(params, hp, x, y)

        blocks = []
        grads, _ = backward_batch(params, hp, x, y, dense1_update=lambda off, g: blocks.append((off, g.copy())))
        assert grads.dense1_w is None
        rows = max(1, block // hp.hn)
        assert [off for off, _ in blocks] == run_order_offsets(hp, block)
        # every buffer is full but the one that ends the gradient
        assert all(g.size == min(rows * hp.hn, hp.flat_width * hp.hn - off) for off, g in blocks)
        got = np.concatenate([g for _, g in sorted(blocks, key=lambda b: b[0])]).reshape(want["dense1_w"].shape)
        assert np.abs(got - want["dense1_w"]).max() <= DENSE_REFERENCE_BOUND * np.abs(want["dense1_w"]).max()
        gathered, _ = gathered_backward(params, hp, x, y)
        np.testing.assert_array_equal(gathered.dense1_w, got)


def run_order_offsets(hp, cache_block):
    """Flat offsets of the dense1_w gradient blocks in the order
    backward_batch documents: runs of rows // gcd(rows, nf) positions
    (rows: gradient rows per block), visited run 0, the last run, run 1,
    the last but one, ...; within a run, blocks in flat order."""
    rows = max(1, cache_block // hp.hn)
    run = rows // math.gcd(rows, hp.nf)
    n = -(-hp.conv_out_len // run)
    offsets = []
    for i in range(n):
        r = i // 2 if i % 2 == 0 else n - 1 - i // 2
        first, end = r * run * hp.nf, min((r + 1) * run, hp.conv_out_len) * hp.nf
        offsets += [row * hp.hn for row in range(first, end, rows)]
    return offsets


def force_distinct_windows(monkeypatch, hp):
    """Make the scoring forward of `hp` compute each distinct window of a
    position once: one position's dense1 block is then a cache block."""
    assert hp.nf * hp.hn < network.CACHE_BLOCK  # else it already does
    monkeypatch.setattr(network, "CACHE_BLOCK", hp.nf * hp.hn)


def distinct_windows(hp, x):
    """The distinct (position, window) pairs over every row and position
    of `x`, dead windows included: a dead window is the all-PAD window
    that the packed layout holds once per position with dead rows."""
    return {
        (p, tuple(row[p * hp.sl : p * hp.sl + hp.ks].tolist()))
        for row in x
        for p in range(hp.conv_out_len)
    }


def _repeating_batch(hp, case, rng):
    """A batch whose windows repeat at the same positions."""
    if case == "copies":
        return encode_batch(["a1b2c3d4.t.example.com"] * 256, hp.l)
    if case == "shared-apex":
        labels = ["".join(rng.choice(list("abc0123"), size=n)) for n in rng.integers(1, 9, size=64)]
        return encode_batch([f"{label}.t.exfil.com" for label in labels], hp.l)
    if case == "holes-and-empty":
        holes = _rows_of_lengths(hp, ["hole", "hole", 0, hp.l, 3, 3], rng)
        return np.vstack([holes, encode_batch(["", "example.com", "example.com", ""], hp.l)])
    assert case == "one-row"
    return encode_batch(["example.com"], hp.l)


class TestDistinctWindows:
    """Scoring computes each distinct window of a position once when one
    position's dense1 block (nf * hn) is at least CACHE_BLOCK. Its
    probabilities equal the forward over every packed window within
    score's batch bound, in float64 and float32; training's forward keeps
    one row per packed window, which backward reads."""

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("case", ["copies", "shared-apex", "holes-and-empty", "one-row"])
    def test_probabilities_match_the_per_window_forward(self, hp, dtype, case, monkeypatch, tmp_path):
        rng = np.random.default_rng(17)
        params = init_params(hp, seed=8)
        params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
        params.dense1_b[:] = rng.normal(0, 0.3, size=hp.hn)
        if dtype == np.float32:
            params = loaded_float32(params, hp, tmp_path / "model.bin")
        x = _repeating_batch(hp, case, rng)
        want = forward_batch(params, hp, x)
        force_distinct_windows(monkeypatch, hp)
        got, cache = _forward_cached(params, hp, x)
        assert cache["ac"].shape[0] == len(distinct_windows(hp, x))
        bound = SCORE_BATCH_BOUND if dtype == np.float64 else SCORE_BATCH_BOUND_F32
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    def test_copies_of_one_name_forward_one_window_per_position(self, hp, monkeypatch):
        # at most one live window and the all-PAD window per position
        x = encode_batch(["a1b2c3d4.t.example.com"] * 256, hp.l)
        force_distinct_windows(monkeypatch, hp)
        _, cache = _forward_cached(init_params(hp, seed=8), hp, x)
        assert cache["ac"].shape[0] <= hp.conv_out_len + 1

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_kernel_as_long_as_the_sequence(self, dtype, monkeypatch, tmp_path):
        # nf * hn is exactly CACHE_BLOCK, so scoring takes the path unpatched;
        # 45 symbols over 45 taps are far more windows than an int64 code holds
        hp = Hyperparams(nf=256, ks=45, sl=1, d=4, l=45, hn=128)
        assert hp.nf * hp.hn == network.CACHE_BLOCK and hp.conv_out_len == 1
        params = init_params(hp, seed=9)
        if dtype == np.float32:
            params = loaded_float32(params, hp, tmp_path / "model.bin")
        names = ["a" * 44 + c for c in "bcdefghijklmnopqrstuvwxyz0123456789"] * 3 + ["b" + "a" * 44, ""]
        x = encode_batch(names, hp.l)
        got, cache = _forward_cached(params, hp, x)
        assert cache["ac"].shape[0] == len(set(names)) == len(distinct_windows(hp, x))
        with monkeypatch.context() as patch:
            patch.setattr(network, "CACHE_BLOCK", hp.nf * hp.hn + 1)
            want, per_window = _forward_cached(params, hp, x)
        assert per_window["ac"].shape[0] == len(x)
        bound = SCORE_BATCH_BOUND if dtype == np.float64 else SCORE_BATCH_BOUND_F32
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    def test_training_forward_keeps_every_packed_window(self, hp, monkeypatch):
        x = encode_batch(["a1b2c3d4.t.example.com"] * 16, hp.l)
        force_distinct_windows(monkeypatch, hp)
        _, cache = _forward_cached(init_params(hp, seed=8), hp, x, training=True)
        assert cache["ac"].shape[0] == sum(m for _, _, m in cache["blocks"])

    def test_small_models_score_every_packed_window(self):
        # below CACHE_BLOCK the sort would cost more than the repeats save
        hp = CONV_HPS[1]
        x = encode_batch(["a1b2c3d4.t.example.com"] * 16, hp.l)
        _, cache = _forward_cached(init_params(hp, seed=8), hp, x)
        assert cache["ac"].shape[0] == sum(m for _, _, m in cache["blocks"])


def _bce(p, y):
    return _mean_bce(np.array([p]), np.array([float(y)]))


class TestBceLoss:
    """_mean_bce on single predictions."""

    def test_half_prediction(self):
        assert _bce(0.5, 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_near_perfect(self):
        assert _bce(1 - 1e-7, 1) == pytest.approx(1e-7, rel=1e-3)

    def test_confident_wrong(self):
        assert _bce(0.9, 0) == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_clamped_at_extremes(self):
        assert math.isfinite(_bce(0.0, 1))
        assert math.isfinite(_bce(1.0, 0))


def _discard(offset, block):
    """A dense1_update consumer for tests that read no dense1_w gradient."""


class TestBackward:
    def test_consumer_is_required(self, tiny_hp, tiny_model):
        x = encode_batch(["test.org"], tiny_hp.l)
        with pytest.raises(TypeError, match="dense1_update"):
            backward_batch(tiny_model, tiny_hp, x, np.array([0.0]))

    def test_unreferenced_embedding_row_gets_zero_gradient(self, tiny_hp):
        params = init_params(tiny_hp, 2)
        x = np.full((1, tiny_hp.l), 2, dtype=np.int64)  # only index 2 used
        grads, _ = backward_batch(params, tiny_hp, x, np.array([1.0]), dense1_update=_discard)
        assert not grads.embedding[7].any()
        assert grads.embedding[2].any()

    def test_gradients_follow_embedding_rows(self, tiny_hp):
        full = init_params(tiny_hp, 6)
        params = dataclasses.replace(full, embedding=full.embedding[:3].copy())
        x = np.resize([0, 2], (2, tiny_hp.l))  # embedding row 1 unused
        grads, _ = gathered_backward(params, tiny_hp, x, np.array([0.0, 1.0]))
        for (name, g), (_, p) in zip(grads.arrays(), params.arrays()):
            assert g.shape == p.shape, name
        assert grads.embedding.shape == (3, tiny_hp.d)
        assert not grads.embedding[1].any()
        assert grads.embedding[0].any() and grads.embedding[2].any()

    def test_duplicate_batch_equals_single(self, tiny_hp):
        params = init_params(tiny_hp, 3)
        x = encode_batch(["abc123.example.com"], tiny_hp.l)
        g1, l1 = gathered_backward(params, tiny_hp, x, np.array([1.0]))
        g2, l2 = gathered_backward(params, tiny_hp, np.concatenate([x, x]), np.array([1.0, 1.0]))
        assert l1 == pytest.approx(l2, rel=1e-12)
        for (name, a), (_, b) in zip(g1.arrays(), g2.arrays()):
            np.testing.assert_allclose(a, b, rtol=1e-12, err_msg=name)

    def test_float32_weights_rejected(self, tiny_hp, tiny_model, tmp_path):
        # training and the gradient check are float64 only
        params = loaded_float32(tiny_model, tiny_hp, tmp_path / "model.bin")
        x = encode_batch(["abc123.example.com"], tiny_hp.l)
        with pytest.raises(ValueError, match="float64"):
            backward_batch(params, tiny_hp, x, np.array([1.0]), dense1_update=_discard)

    def test_empty_batch_raises(self, tiny_hp, tiny_model):
        with pytest.raises(ValueError, match="nonempty"):
            backward_batch(tiny_model, tiny_hp, np.zeros((0, tiny_hp.l), dtype=np.int64), np.zeros(0), dense1_update=_discard)

    def test_gradient_shapes_match_params(self, tiny_hp, tiny_model):
        x = encode_batch(["test.org"], tiny_hp.l)
        grads, _ = gathered_backward(tiny_model, tiny_hp, x, np.array([0.0]))
        for (name, g), (_, p) in zip(grads.arrays(), tiny_model.arrays()):
            assert g.shape == p.shape, name

    def test_relu_sparsity_in_conv_kernels(self, tiny_hp):
        # a filter whose activations are all clamped to zero cannot move
        params = init_params(tiny_hp, 4)
        params.conv_b[0] = -1e6
        x = np.arange(tiny_hp.l, dtype=np.int64)[None, :] % 45
        grads, _ = backward_batch(params, tiny_hp, x, np.array([1.0]), dense1_update=_discard)
        assert not grads.conv_w[:, :, 0].any()
        assert grads.conv_b[0] == 0.0

    def test_finite_differences_single_case(self):
        hp, batch_size, seed, lengths = GRADCHECK_CASES[0]
        params = init_params(hp, seed)
        x, y = gradcheck_inputs(hp, batch_size, seed, lengths)
        assert relu_kink_clearance(params, hp, x) > KINK_CLEARANCE
        analytic, _ = gathered_backward(params, hp, x, y)
        numeric = numeric_gradients(params, hp, x, y)
        assert gradient_relative_error(analytic, numeric) < 1e-4

    def test_conv_gradient_overwrites_the_activations(self):
        # nf far above the 45-symbol alphabet, so the packed conv
        # activations dwarf every per-symbol table: a second array of
        # their size (or a whole-array mask and one-hot) would exceed 1.5x
        hp = Hyperparams(nf=512, ks=4, sl=1, d=8, l=45, hn=8)
        params = init_params(hp, 1)
        rng = np.random.default_rng(2)
        x = _rows_of_lengths(hp, rng.integers(1, hp.l + 1, size=128), rng)
        y = rng.integers(0, 2, size=128).astype(float)
        windows = _forward_cached(params, hp, x)[1]["ac"].shape[0]
        tracemalloc.start()
        try:
            backward_batch(params, hp, x, y, dense1_update=_discard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * windows * hp.nf * 8

    def test_loss_matches_mean_bce(self, tiny_hp, tiny_model):
        x = encode_batch(["aaa.com", "zzz999.net"], tiny_hp.l)
        probs = forward_batch(tiny_model, tiny_hp, x)
        _, loss = backward_batch(tiny_model, tiny_hp, x, np.array([0.0, 1.0]), dense1_update=_discard)
        want = -(math.log(1.0 - probs[0]) + math.log(probs[1])) / 2
        assert loss == pytest.approx(want, rel=1e-12)


class TestDense1Worker:
    """backward_batch hands each dense1_w gradient block to one worker
    thread; every consumer call has returned by the time backward_batch
    returns or raises. Blocks of 8 scalars give the tiny model 30 blocks,
    more than the ring holds, and make its nf * hn (24) at least
    CACHE_BLOCK, so the worker takes its shares of the step too."""

    @pytest.fixture
    def case(self, tiny_hp, tiny_model, monkeypatch):
        monkeypatch.setattr(network, "CACHE_BLOCK", 8)
        x = _rows_of_lengths(tiny_hp, [tiny_hp.l, 0, 3, "hole", 5], np.random.default_rng(17))
        return tiny_model, tiny_hp, x, np.array([1.0, 0.0, 1.0, 0.0, 1.0])

    def test_consumer_error_is_raised_and_no_call_outlives_it(self, case):
        class Boom(Exception):
            pass

        calls = []

        def third_fails(offset, block):
            calls.append(offset)
            if len(calls) == 3:
                raise Boom

        with pytest.raises(Boom):
            backward_batch(*case, dense1_update=third_fails)
        assert calls == [0, 8, 16]
        time.sleep(0.05)
        assert calls == [0, 8, 16]

        blocks = {}
        grads, _ = backward_batch(*case, dense1_update=lambda offset, g: blocks.setdefault(offset, g.copy()))
        assert grads.dense1_w is None
        got = np.concatenate([blocks[offset] for offset in sorted(blocks)])
        np.testing.assert_array_equal(got, gathered_backward(*case)[0].dense1_w.reshape(-1))

    def test_slow_consumer_has_finished_every_block_on_return(self, case):
        finished, threads = [], set()

        def slow(offset, block):
            time.sleep(0.001)
            threads.add(threading.get_ident())
            finished.append(offset)

        hp = case[1]
        backward_batch(*case, dense1_update=slow)
        assert finished == run_order_offsets(hp, 8)
        assert finished[:6] == [0, 8, 16, 216, 224, 232]  # position 0, then position 9
        assert len(threads) == 1

    def test_ring_holds_at_most_ring_slots_blocks_and_no_more_than_the_gradient(self):
        # the ring has a memory map of its own, which tracemalloc does not
        # see; a fresh thread starts without one
        sizes = []

        def run():
            for nf in (8, 64):  # dense1_w gradients of 2.6 and 21 blocks
                hp = Hyperparams(nf=nf, ks=4, sl=1, d=8, l=45, hn=256)
                x = encode_batch(["a1b2c3.example.com", "x" * 45], hp.l)
                backward_batch(init_params(hp, 0), hp, x, np.array([1.0, 0.0]), dense1_update=_discard)
                sizes.append(network._buffers.ring.size)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert sizes == [3 * network.CACHE_BLOCK, network.RING_SLOTS * network.CACHE_BLOCK]

    def test_activations_buffer_is_allocated_once_per_thread(self):
        # TestBackward::test_conv_gradient_overwrites_the_activations in a
        # fresh thread, whose first backward pass allocates the buffer
        hp = Hyperparams(nf=512, ks=4, sl=1, d=8, l=45, hn=8)
        params = init_params(hp, 1)
        rng = np.random.default_rng(2)
        x = _rows_of_lengths(hp, rng.integers(1, hp.l + 1, size=128), rng)
        y = rng.integers(0, 2, size=128).astype(float)
        activations = _forward_cached(params, hp, x)[1]["ac"].nbytes
        peaks = []

        def run():
            for _ in range(2):
                tracemalloc.start()
                try:
                    backward_batch(params, hp, x, y, dense1_update=_discard)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert activations <= peaks[0] < 1.5 * activations
        assert peaks[1] < 0.5 * activations

    @pytest.mark.parametrize("shares", [True, False], ids=["shares", "no-shares"])
    def test_concurrent_callers_share_the_worker_and_keep_their_bits(self, case, shares, monkeypatch):
        # three callers and the worker on two CPUs, switching threads as
        # often as the interpreter allows: a ring slot overwritten while
        # in flight, or a block handed to another caller, changes a gradient
        hp = case[1]
        monkeypatch.setattr(network, "CACHE_BLOCK", 8 if shares else hp.nf * hp.hn + 1)
        assert (hp.nf * hp.hn >= network.CACHE_BLOCK) == shares
        want = gathered_backward(*case)[0].dense1_w
        got = [[] for _ in range(3)]

        def run(out):
            for _ in range(20):
                out.append(gathered_backward(*case)[0].dense1_w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert [len(out) for out in got] == [20, 20, 20]
        for out in got:
            for g in out:
                np.testing.assert_array_equal(g, want)

    def test_worker_holds_nothing_of_a_finished_pass(self, case):
        # a training consumer holds the whole model and its Adam moments
        class Consumer:
            def __call__(self, offset, block):
                pass

        consumer = Consumer()
        ref = weakref.ref(consumer)
        backward_batch(*case, dense1_update=consumer)
        del consumer
        gc.collect()
        assert ref() is None

    def test_a_failing_pass_stops_only_its_own_calls(self, case):
        # one thread's passes fail on their third block while two others
        # run whole passes on the same worker
        class Boom(Exception):
            pass

        want = gathered_backward(*case)[0].dense1_w
        got, stops = [[], []], []

        def failing():
            for _ in range(20):
                calls = []

                def third_fails(offset, block):
                    calls.append(offset)
                    if len(calls) == 3:
                        raise Boom

                try:
                    backward_batch(*case, dense1_update=third_fails)
                except Boom:
                    stops.append(list(calls))

        def run(out):
            for _ in range(20):
                out.append(gathered_backward(*case)[0].dense1_w)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=failing)] + [threading.Thread(target=run, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert stops == [[0, 8, 16]] * 20
        assert [len(out) for out in got] == [20, 20]
        for out in got:
            for g in out:
                np.testing.assert_array_equal(g, want)

    def test_consumer_runs_under_the_callers_error_state(self, case):
        def overflows(offset, block):
            np.multiply(np.full(2, 1e308), 10.0)

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            backward_batch(*case, dense1_update=overflows)
        # warnings turned into errors reach the worker thread too
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            backward_batch(*case, dense1_update=overflows)


def force_shares(monkeypatch, hp, on=True):
    """Give the worker thread its shares of a training step of `hp` (one
    position's dense1 block is then a cache block), or take them away."""
    monkeypatch.setattr(network, "CACHE_BLOCK", hp.nf * hp.hn + (not on))


def spy_on_shares(monkeypatch):
    """The numpy error state each share task of the worker starts under,
    one entry per task, in the order they run."""
    seen, shared = [], network._shared

    def spy(task):
        def run():
            seen.append(np.geterr())
            task()

        return shared(run)

    monkeypatch.setattr(network, "_shared", spy)
    return seen


def _share_case(hp, seed=18):
    rng = np.random.default_rng(seed)
    params = init_params(hp, seed=9)
    params.conv_b[:] = rng.normal(0, 0.3, size=hp.nf)
    params.dense1_b[:] = rng.normal(0, 0.3, size=hp.hn)
    x = _rows_of_lengths(hp, [hp.l, 0, 3, "hole", 1, hp.l // 2, hp.l, 2], rng)
    return params, x, rng.integers(0, 2, size=len(x)).astype(float)


class TestShares:
    """With nf * hn >= CACHE_BLOCK, the worker thread runs the light tail
    positions' dense1 GEMMs of the training forward and every other tap's
    one-hot GEMM of backward. Each runs the caller's GEMMs on the same
    operands, so outputs keep their bits; CACHE_BLOCK moves the conv's
    row blocking too, but that is elementwise."""

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    def test_training_forward_keeps_its_bits(self, hp, monkeypatch):
        params, x, _ = _share_case(hp)
        seen = spy_on_shares(monkeypatch)
        out = {}
        for on in (True, False):
            force_shares(monkeypatch, hp, on)
            probs, cache = _forward_cached(params, hp, x, training=True)
            out[on] = probs, cache["z1"].copy(), cache["ac"].copy()
        assert len(seen) == 1  # the forward share ran with the shares on only
        for got, want in zip(out[True], out[False]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    def test_gradients_keep_their_bits(self, hp, monkeypatch):
        params, x, y = _share_case(hp)
        seen = spy_on_shares(monkeypatch)
        force_shares(monkeypatch, hp, on=False)
        want, want_loss = gathered_backward(params, hp, x, y)
        assert seen == []  # no share below a cache block
        force_shares(monkeypatch, hp)
        got, loss = gathered_backward(params, hp, x, y)
        assert len(seen) == 2  # the forward's share and the one-hot share
        assert loss == want_loss
        for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
            if name != "dense1_w":  # its blocks are cut by CACHE_BLOCK
                np.testing.assert_array_equal(g, w, err_msg=name)
        _, reference, _ = dense_reference(params, hp, x, y)
        bound = DENSE_REFERENCE_BOUND * np.abs(reference["dense1_w"]).max()
        assert np.abs(got.dense1_w - reference["dense1_w"]).max() <= bound

    def test_shares_run_under_the_callers_error_state(self, tiny_hp, monkeypatch):
        params, x, y = _share_case(tiny_hp)
        seen = spy_on_shares(monkeypatch)
        force_shares(monkeypatch, tiny_hp)
        with np.errstate(over="raise", invalid="ignore"):
            backward_batch(params, tiny_hp, x, y, dense1_update=_discard)
        assert [(e["over"], e["invalid"]) for e in seen] == [("raise", "ignore")] * 2

    @pytest.mark.parametrize("failing", [0, 1], ids=["forward-share", "one-hot-share"])
    def test_a_failing_share_is_raised_and_the_next_pass_works(self, tiny_hp, failing, monkeypatch):
        class Boom(Exception):
            pass

        params, x, y = _share_case(tiny_hp)
        force_shares(monkeypatch, tiny_hp)
        want = gathered_backward(params, tiny_hp, x, y)[0]
        worker = network._worker[0]
        shared, queued = network._shared, []

        def fails(task):
            def run():
                if index == failing:
                    raise Boom
                task()

            index = len(queued)
            queued.append(index)
            return shared(run)

        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(network, "_shared", fails)
            with pytest.raises(Boom):
                backward_batch(params, tiny_hp, x, y, dense1_update=lambda offset, g: calls.append(offset))
        # the forward fails before the handoff; the one-hot GEMMs after it
        assert len(calls) == (0 if failing == 0 else len(run_order_offsets(tiny_hp, network.CACHE_BLOCK)))
        got = gathered_backward(params, tiny_hp, x, y)[0]
        for (name, g), (_, w) in zip(got.arrays(), want.arrays()):
            np.testing.assert_array_equal(g, w, err_msg=name)
        assert network._worker[0] is worker and worker.is_alive()


def test_model_scalar_count_matches_expected_shapes(tiny_hp, tiny_model):
    want = sum(int(np.prod(s)) for s in expected_shapes(tiny_hp).values())
    assert sum(a.size for _, a in tiny_model.arrays()) == want
