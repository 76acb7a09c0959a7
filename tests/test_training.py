import copy
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from tunneldetect import network, training
from tunneldetect.datagen import LABEL_NORMAL, LABEL_TUNNELING, DomainSample, build_corpus, desk_scale_spec
from tunneldetect.network import DEFAULT_HYPERPARAMS, Hyperparams, ModelParams, backward_batch, count_parameters, init_params
from tunneldetect.tokenizer import PAD_IDX, encode_batch
from tunneldetect.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    GridResult,
    TrainConfig,
    adam_step,
    dense1_adam,
    default_grid,
    grid_search,
    kfold_cross_validate,
    parse_grid_file,
    parse_grid_line,
    stratified_folds,
    train,
)
from tunneldetect.network import forward_batch

from conftest import CONV_HPS, CONV_IDS, make_separable_corpus


class TestCountParameters:
    def test_reference_configuration(self):
        assert count_parameters(DEFAULT_HYPERPARAMS) == 11_425_685

    def test_minimal_configuration(self):
        hp = Hyperparams(nf=1, ks=1, sl=1, d=1, l=1, hn=1)
        assert count_parameters(hp) == 51  # 45 embedding rows of width 1, then 6

    def test_embedding_term(self):
        hp = DEFAULT_HYPERPARAMS
        conv = hp.ks * hp.d * hp.nf + hp.nf
        dense1 = hp.conv_out_len * hp.nf * hp.hn + hp.hn
        dense2 = hp.hn + 1
        assert count_parameters(hp) - conv - dense1 - dense2 == 4_500

    def test_matches_allocation_for_default_grid(self):
        for hp in default_grid():
            params = init_params(hp, 0)
            assert sum(a.size for _, a in params.arrays()) == count_parameters(hp), hp


def _one_weight_model():
    """Minimal model where every block but the embedding has one scalar,
    for hand-checkable optimizer arithmetic."""
    hp = Hyperparams(nf=1, ks=1, sl=1, d=1, l=1, hn=1)
    params = init_params(hp, 0)
    for _, arr in params.arrays():
        arr[:] = 0.0
    return hp, params


class TestAdamStep:
    def test_zero_gradients_leave_params_unchanged(self):
        _, params = _one_weight_model()
        before = copy.deepcopy(params)
        grads = ModelParams.zeros_like(params)
        state = AdamState.fresh(params)
        adam_step(params, grads, state)
        for (name, a), (_, b) in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert state.t == 1

    def test_single_step_hand_computed(self):
        # w=0, g=1, defaults: m_hat=1, v_hat=1 -> w ~= -lr
        _, params = _one_weight_model()
        grads = ModelParams.zeros_like(params)
        grads.dense2_b[0] = 1.0
        state = AdamState.fresh(params)
        adam_step(params, grads, state)
        assert params.dense2_b[0] == pytest.approx(-0.001, rel=1e-6)

    def test_momentum_keeps_moving_after_gradient_stops(self):
        _, params = _one_weight_model()
        state = AdamState.fresh(params)
        grads = ModelParams.zeros_like(params)
        grads.dense2_b[0] = 1.0
        adam_step(params, grads, state)
        after_first = params.dense2_b[0]
        grads.dense2_b[0] = 0.0
        adam_step(params, grads, state)
        assert params.dense2_b[0] != after_first

    def test_zero_learning_rate_freezes_params(self):
        _, params = _one_weight_model()
        state = AdamState.fresh(params)
        state.lr = 0.0
        grads = ModelParams.zeros_like(params)
        for _, arr in grads.arrays():
            arr[:] = 3.7
        before = copy.deepcopy(params)
        adam_step(params, grads, state)
        for (name, a), (_, b) in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_shape_mismatch_rejected(self):
        hp, params = _one_weight_model()
        other = init_params(Hyperparams(nf=2, ks=1, sl=1, d=1, l=1, hn=1), 0)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, other, AdamState.fresh(params))


    def test_non_contiguous_block_rejected(self):
        # a flat view of a transposed block would be a copy, and its
        # update would be lost
        params = init_params(Hyperparams(nf=3, ks=2, sl=1, d=2, l=4, hn=2), 0)
        params.dense1_w = np.asfortranarray(params.dense1_w)
        grads = ModelParams(*(np.ones_like(p) for _, p in params.arrays()))
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(params, grads, AdamState.fresh(params))

    @staticmethod
    def _model_with_block(size):
        """Tiny blocks plus one dense1_w of `size` scalars; adam_step
        reads only shapes, so the blocks need not form a network."""
        rng = np.random.default_rng(size)
        shapes = [(3, 2), (1, 2, 2), (2,), (size,), (1,), (1,), (1,)]
        return ModelParams(*(rng.normal(size=s) for s in shapes))

    def test_blocked_update_equals_whole_array_expression(self):
        # 100,003 scalars: several CACHE_BLOCK slices and a ragged tail
        params = self._model_with_block(100_003)
        want = copy.deepcopy(params)
        state = AdamState.fresh(params)
        m, v = ModelParams.zeros_like(want), ModelParams.zeros_like(want)
        lr, b1, b2, eps = state.lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        rng = np.random.default_rng(21)
        for t in range(1, 4):
            grads = ModelParams(*(rng.normal(0, 10.0 ** -t, size=p.shape) for _, p in params.arrays()))
            adam_step(params, grads, state)
            for (_, p), (_, g), (_, mm), (_, vv) in zip(want.arrays(), grads.arrays(), m.arrays(), v.arrays()):
                mm[:] = b1 * mm + (1.0 - b1) * g
                vv[:] = b2 * vv + (1.0 - b2) * np.square(g)
                p -= lr * (mm / (1.0 - b1 ** t)) / (np.sqrt(vv / (1.0 - b2 ** t)) + eps)
        assert state.t == 3
        for got, exp in ((params, want), (state.m, m), (state.v, v)):
            for (name, a), (_, b) in zip(got.arrays(), exp.arrays()):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_step_allocates_no_block_sized_temporary(self):
        params = self._model_with_block(1_000_003)
        grads = ModelParams(*(np.ones_like(p) for _, p in params.arrays()))
        state = AdamState.fresh(params)
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.dense1_w.nbytes / 10


def _training_steps(hp, fused, steps, batch=12):
    """`steps` Adam steps from a fresh model on random batches of names
    of random lengths; with `fused`, dense1_w is updated inside
    backward_batch by dense1_adam, else from the whole gradient."""
    rng = np.random.default_rng(31)
    params = init_params(hp, seed=8)
    state = AdamState.fresh(params)
    update = dense1_adam(params, state) if fused else None
    for _ in range(steps):
        x = rng.integers(PAD_IDX + 1, 45, size=(batch, hp.l))
        for row, n in zip(x, rng.integers(0, hp.l + 1, size=batch)):
            row[n:] = PAD_IDX
        y = rng.integers(0, 2, size=batch).astype(float)
        grads, _ = backward_batch(params, hp, x, y, dense1_update=update)
        assert (grads.dense1_w is None) == fused
        adam_step(params, grads, state)
    return params, state


def _digest(params, state):
    h = hashlib.sha256()
    for blocks in (params, state.m, state.v):
        for _, arr in blocks.arrays():
            h.update(arr.tobytes())
    h.update(str(state.t).encode())
    return h.hexdigest()


class TestFusedStep:
    """Adam applied to dense1_w block by block inside backward_batch,
    then adam_step on the other blocks, is bitwise the unfused step:
    the whole gradient from the same blocked loop, then adam_step on
    all seven blocks."""

    @pytest.mark.parametrize("hp", CONV_HPS, ids=CONV_IDS)
    @pytest.mark.parametrize("block", [None, 5, 96])
    def test_fused_steps_equal_unfused(self, hp, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(network, "CACHE_BLOCK", block)
            monkeypatch.setattr(training, "CACHE_BLOCK", block)
        fused, fused_state = _training_steps(hp, True, steps=3)
        unfused, unfused_state = _training_steps(hp, False, steps=3)
        assert fused_state.t == unfused_state.t == 3
        for got, want in ((fused, unfused), (fused_state.m, unfused_state.m), (fused_state.v, unfused_state.v)):
            for (name, a), (_, b) in zip(got.arrays(), want.arrays()):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_reference_config_step(self):
        # digests, so that only one reference-size model is held at a time
        assert _digest(*_training_steps(DEFAULT_HYPERPARAMS, True, steps=1, batch=16)) == _digest(
            *_training_steps(DEFAULT_HYPERPARAMS, False, steps=1, batch=16)
        )

    def test_train_equals_unfused_train(self, monkeypatch, separable_corpus):
        cfg = TrainConfig(epochs=2, batch_size=32, seed=9)
        fused = train(separable_corpus, TOY_HP, cfg)
        monkeypatch.setattr(training, "backward_batch", lambda *args, dense1_update: backward_batch(*args))
        unfused = train(separable_corpus, TOY_HP, cfg)
        for (name, a), (_, b) in zip(fused.arrays(), unfused.arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_step_never_holds_the_dense1_gradient(self):
        # dense1_w is 688,128 of this model's 691,113 scalars
        hp = Hyperparams(nf=64, ks=4, sl=1, d=8, l=45, hn=256)
        params = init_params(hp, seed=2)
        state = AdamState.fresh(params)
        update = dense1_adam(params, state)
        x = encode_batch(["a1b2c3d4e5f6g7h8.t.example.com", "example.org", "x" * 45, "q.io"], hp.l)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        tracemalloc.start()
        try:
            grads, _ = backward_batch(params, hp, x, y, dense1_update=update)
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.dense1_w.nbytes / 2

    def test_non_contiguous_dense1_rejected(self):
        params = init_params(Hyperparams(nf=3, ks=2, sl=1, d=2, l=4, hn=2), 0)
        params.dense1_w = np.asfortranarray(params.dense1_w)
        with pytest.raises(ValueError, match="contiguous"):
            dense1_adam(params, AdamState.fresh(params))


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(lr=lr)

    def test_positive_learning_rates_accepted(self):
        for lr in (1e-300, 0.001, 10.0):
            assert TrainConfig(lr=lr).lr == lr

    def test_frozen(self):
        # one TrainConfig() instance is the default argument of train,
        # kfold_cross_validate, grid_search and AdamState.fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().lr = 1.0


TOY_HP = Hyperparams(nf=8, ks=3, sl=1, d=8, l=10, hn=8)


class TestTrain:
    def test_deterministic(self, separable_corpus):
        cfg = TrainConfig(epochs=2, batch_size=32, seed=9)
        a = train(separable_corpus, TOY_HP, cfg)
        b = train(separable_corpus, TOY_HP, cfg)
        for (name, arr_a), (_, arr_b) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(arr_a, arr_b, err_msg=name)

    def test_separable_corpus_reaches_full_training_accuracy(self):
        corpus = make_separable_corpus(100, seed=1)
        params = train(corpus, TOY_HP, TrainConfig(epochs=10, batch_size=128, seed=3))
        x = encode_batch([s.name for s in corpus], TOY_HP.l)
        y = np.array([s.label == LABEL_TUNNELING for s in corpus])
        p = forward_batch(params, TOY_HP, x)
        assert np.mean((p >= 0.5) == y) == 1.0

    def test_epoch_losses_finite_and_decreasing_on_separable(self):
        corpus = make_separable_corpus(100, seed=2)
        losses = []
        train(corpus, TOY_HP, TrainConfig(epochs=10, batch_size=32, seed=4),
              progress=lambda e, loss: losses.append(loss))
        assert len(losses) == 10
        assert all(np.isfinite(l) for l in losses)
        assert losses[-1] < losses[0]

    def test_divergence_stops_training_at_the_first_non_finite_step(self, monkeypatch):
        # one step per epoch: step 1 of epoch 1 leaves weights near ±1e300,
        # so the loss of epoch 2's step is NaN and epoch 3 must never start
        steps = []

        def counted_backward(*args, **kwargs):
            steps.append(len(steps) + 1)
            return backward_batch(*args, **kwargs)

        monkeypatch.setattr(training, "backward_batch", counted_backward)
        epochs = []
        cfg = TrainConfig(epochs=3, batch_size=256, seed=4, lr=1e300)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"diverged: loss is nan at epoch 2, step 1 "):
            train(make_separable_corpus(100, seed=2), TOY_HP, cfg, progress=lambda e, loss: epochs.append(e))
        assert epochs == [1]
        assert steps == [1, 2]

    def test_single_class_rejected(self):
        corpus = [DomainSample("zz" * i, LABEL_TUNNELING, "iodine") for i in range(2, 12)]
        with pytest.raises(ValueError, match="both classes"):
            train(corpus, TOY_HP, TrainConfig(epochs=1, seed=0))


class TestStratifiedFolds:
    def test_partition(self, separable_corpus):
        labels = [s.label for s in separable_corpus]
        folds = stratified_folds(labels, 5, seed=0)
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(len(labels)))

    def test_each_sample_in_exactly_one_fold(self, separable_corpus):
        labels = [s.label for s in separable_corpus]
        folds = stratified_folds(labels, 5, seed=1)
        counts = np.zeros(len(labels), dtype=int)
        for fold in folds:
            for i in fold:
                counts[i] += 1
        assert np.all(counts == 1)

    def test_class_counts_within_one_of_even_split(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n_a = int(rng.integers(10, 60))
            n_b = int(rng.integers(10, 60))
            labels = ["normal"] * n_a + ["tunneling"] * n_b
            k = int(rng.integers(2, 7))
            folds = stratified_folds(labels, k, seed=trial)
            for fold in folds:
                got_a = sum(1 for i in fold if labels[i] == "normal")
                got_b = len(fold) - got_a
                assert abs(got_a - n_a / k) < 1.0 + 1e-9
                assert abs(got_b - n_b / k) < 1.0 + 1e-9

    @staticmethod
    def _balanced_labels(n=100):
        return [s.label for s in build_corpus(desk_scale_spec(seed=6, per_class=n // 2))]

    def test_fold_zero_of_five_holds_out_twenty_percent_per_class(self):
        labels = self._balanced_labels()
        held_out = stratified_folds(labels, 5, seed=7)[0]
        assert len(held_out) == 20
        for label in (LABEL_NORMAL, LABEL_TUNNELING):
            assert sum(1 for i in held_out if labels[i] == label) == 10

    def test_disjoint_union(self):
        corpus = build_corpus(desk_scale_spec(seed=6, per_class=50))
        held_out = set(stratified_folds([s.label for s in corpus], 5, seed=8)[0])
        train_names = {s.name for i, s in enumerate(corpus) if i not in held_out}
        test_names = {corpus[i].name for i in held_out}
        assert not train_names & test_names
        assert sorted(train_names | test_names) == sorted(s.name for s in corpus)

    def test_deterministic(self):
        labels = self._balanced_labels()
        assert stratified_folds(labels, 5, seed=9) == stratified_folds(labels, 5, seed=9)

    def test_k_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            stratified_folds(["normal", "tunneling"], 3, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(["normal", "tunneling"], 1, seed=0)


class TestKfold:
    def test_perfectly_separable_gives_f1_one_sd_zero(self):
        corpus = make_separable_corpus(50, seed=3)
        cfg = TrainConfig(epochs=10, batch_size=8, seed=6)
        mean_f1, sd_f1 = kfold_cross_validate(corpus, TOY_HP, cfg, k=5)
        assert mean_f1 == 1.0
        assert sd_f1 == 0.0


class TestGridSearch:
    def test_single_point_grid(self):
        corpus = make_separable_corpus(30, seed=4)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=7)
        results = grid_search(corpus, [TOY_HP], cfg, k=2)
        assert len(results) == 1
        assert results[0].hp == TOY_HP
        assert results[0].parameter_count == count_parameters(TOY_HP)

    def test_duplicate_combinations_score_identically(self):
        corpus = make_separable_corpus(30, seed=5)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=8)
        results = grid_search(corpus, [TOY_HP, TOY_HP], cfg, k=2)
        assert results[0].mean_f1 == results[1].mean_f1
        assert results[0].sd_f1 == results[1].sd_f1

    def test_ordering_and_tie_breaks(self, monkeypatch, separable_corpus):
        small = Hyperparams(nf=4, ks=3, sl=1, d=6, l=10, hn=4)
        big = TOY_HP
        weak = Hyperparams(nf=2, ks=2, sl=1, d=2, l=10, hn=2)
        scores = {big: (0.9, 0.0), small: (0.9, 0.0), weak: (0.4, 0.1)}
        monkeypatch.setattr(
            "tunneldetect.training.kfold_cross_validate",
            lambda dataset, hp, cfg=None, k=5: scores[hp],
        )
        results = grid_search(separable_corpus, [weak, big, small], TrainConfig(), k=5)
        # descending by mean F1; the 0.9 tie resolves to fewer parameters
        assert [r.hp for r in results] == [small, big, weak]

    def test_grid_order_breaks_full_ties(self, monkeypatch, separable_corpus):
        # same window count, hence same parameter count, different hp
        a = Hyperparams(nf=4, ks=3, sl=1, d=6, l=10, hn=4)
        b = Hyperparams(nf=4, ks=3, sl=2, d=6, l=17, hn=4)
        assert count_parameters(a) == count_parameters(b)
        monkeypatch.setattr(
            "tunneldetect.training.kfold_cross_validate",
            lambda dataset, hp, cfg=None, k=5: (0.8, 0.0),
        )
        results = grid_search(separable_corpus, [b, a], TrainConfig(), k=5)
        assert [r.hp for r in results] == [b, a]

    def test_empty_grid_rejected(self, separable_corpus):
        with pytest.raises(ValueError):
            grid_search(separable_corpus, [], TrainConfig(epochs=1))


class TestGridParsing:
    def test_parse_line(self):
        hp = parse_grid_line("nf=1024 ks=4 sl=1 d=100 l=45 hn=256")
        assert hp == DEFAULT_HYPERPARAMS

    def test_parse_line_with_commas(self):
        hp = parse_grid_line("nf=256, ks=2, sl=1, d=50, l=45, hn=128")
        assert hp == Hyperparams(nf=256, ks=2, sl=1, d=50, l=45, hn=128)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_grid_line("nf=256 ks=2 sl=1 d=50 l=45")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bad grid token"):
            parse_grid_line("nf=256 ks=2 sl=1 d=50 l=45 hn=128 bogus=3")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_grid_line("nf=abc ks=2 sl=1 d=50 l=45 hn=128")

    def test_parse_file(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(
            "# comment\n"
            "nf=256 ks=4 sl=1 d=50 l=45 hn=128\n"
            "\n"
            "nf=1024 ks=4 sl=1 d=100 l=45 hn=256\n"
        )
        grid = parse_grid_file(path)
        assert len(grid) == 2
        assert grid[1] == DEFAULT_HYPERPARAMS

    def test_parse_file_reports_line_number(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("nf=1\n")
        with pytest.raises(ValueError, match="grid.txt:1"):
            parse_grid_file(path)

    def test_default_grid_includes_reference_point(self):
        grid = default_grid()
        assert len(grid) == 16
        assert DEFAULT_HYPERPARAMS in grid
        assert len(set(grid)) == 16
