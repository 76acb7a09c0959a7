"""Training machinery: Adam updates, the 10-epoch minibatch loop,
stratified k-fold cross-validation and hyperparameter grid search
ranked by mean F1 of the tunneling class.

Each training step calls backward_batch with dense1_adam as its
dense1_w consumer, so Adam updates dense1_w block by block, on
backward_batch's worker thread, while backward forms the next gradient
blocks; then adam_step updates the other blocks. Every dense1_w update
of a step has returned before backward_batch does, and each block gets
the same arithmetic on the same slice as the whole-array update, so the
thread changes no bits.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .datagen import LABEL_TUNNELING, DomainSample
from .evaluation import compute_metrics, predict_samples
from .network import CACHE_BLOCK, Hyperparams, ModelParams, backward_batch, count_parameters, init_params
from .tokenizer import encode_batch

# Adam's decay rates and denominator guard: the defaults of Kingma & Ba
# (arXiv 1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DEFAULT_FOLDS = 5  # k of k-fold cross-validation, in grid search too


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    lr: float = 0.001

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")


@dataclass
class AdamState:
    """First/second-moment accumulators shaped like the parameters, the
    learning rate and the step counter."""

    m: ModelParams
    v: ModelParams
    lr: float
    t: int = 0

    @classmethod
    def fresh(cls, params: ModelParams, cfg: TrainConfig = TrainConfig()) -> "AdamState":
        return cls(m=ModelParams.zeros_like(params), v=ModelParams.zeros_like(params), lr=cfg.lr)


def _adam(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float, t: int, scratch: np.ndarray) -> None:
    """Adam step t on flat, equal-length p, m and v with gradient g, in
    place, CACHE_BLOCK scalars at a time through the two rows of
    `scratch`, so no temporary as large as p is made. Every slice goes
    through the same operations, in the same order, as the whole-array
    update p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is
    the same bit for bit however p is cut into calls."""
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for lo in range(0, p.size, CACHE_BLOCK):
        hi = lo + CACHE_BLOCK
        ps, gs, ms, vs = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = scratch[0, : ps.size], scratch[1, : ps.size]
        ms *= beta1
        np.multiply(gs, 1.0 - beta1, out=a)
        ms += a
        vs *= beta2
        np.square(gs, out=a)
        a *= 1.0 - beta2
        vs += a
        np.divide(ms, bc1, out=a)
        a *= lr
        np.divide(vs, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        ps -= a


def dense1_adam(params: ModelParams, state: AdamState) -> Callable[[int, np.ndarray], None]:
    """The dense1_update consumer for backward_batch: applies Adam step
    state.t + 1 to each dense1_w block as its gradient is formed. The
    adam_step call that follows on the same state moves t to that step
    and updates the other blocks."""
    arrays = (params.dense1_w, state.m.dense1_w, state.v.dense1_w)
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("dense1_w: parameters and moments must be C-contiguous to update in place")
    p, m, v = (a.reshape(-1) for a in arrays)
    scratch = np.empty((2, CACHE_BLOCK))

    def update(offset: int, g: np.ndarray) -> None:
        hi = offset + g.size
        _adam(p[offset:hi], g, m[offset:hi], v[offset:hi], state.lr, state.t + 1, scratch)

    return update


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> None:
    """One bias-corrected Adam update of `params` and `state`, in place.

    Moves the step counter once. A block whose gradient is None is
    skipped: backward_batch returns None for dense1_w, which dense1_adam
    has already given this step; a whole dense1_w gradient is updated
    like any other block.
    """
    blocks = list(zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()))
    for (name, p), (_, g), (_, m), (_, v) in blocks:
        if g is not None and p.shape != g.shape:
            raise ValueError(f"gradient shape mismatch for {name}: {p.shape} vs {g.shape}")
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError(f"{name}: parameters and moments must be C-contiguous to update in place")
    state.t += 1
    scratch = np.empty((2, CACHE_BLOCK))
    for (_, p), (_, g), (_, m), (_, v) in blocks:
        if g is not None:
            _adam(p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1), state.lr, state.t, scratch)


def train(
    dataset: Sequence[DomainSample],
    hp: Hyperparams,
    cfg: TrainConfig = TrainConfig(),
    progress: Callable[[int, float], None] | None = None,
) -> ModelParams:
    """Train a fresh model with Adam on seeded, shuffled minibatches.

    Deterministic given (dataset order, hp, cfg.seed). `progress`,
    if given, receives (epoch, mean epoch loss) after each epoch. A step
    whose loss is not finite raises ValueError naming its epoch and
    step: the loss is clipped, so it is NaN only once the weights are.
    The loss does not see the last step's update, so after that step a
    weight that is not finite or lies beyond float32's range (which
    load enforces when evaluate and classify read the model) raises
    ValueError too. Steps run without numpy's overflow and invalid-value
    warnings, so divergence reports only that error.
    """
    if len({s.label for s in dataset}) < 2:
        raise ValueError("training requires samples from both classes")
    x = encode_batch([s.name for s in dataset], hp.l)
    y = np.array([1.0 if s.label == LABEL_TUNNELING else 0.0 for s in dataset])

    params = init_params(hp, cfg.seed)
    state = AdamState.fresh(params, cfg)
    dense1_update = dense1_adam(params, state)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for step, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = perm[start : start + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                grads, loss = backward_batch(params, hp, x[idx], y[idx], dense1_update=dense1_update)
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged: loss is {loss} at epoch {epoch}, step {step} (learning rate {cfg.lr})")
                adam_step(params, grads, state)
            total += loss * len(idx)
        if progress is not None:
            progress(epoch, total / n)
    for name, p in params.arrays():
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(np.float32(np.maximum(p.max(), -p.min()))):
                raise ValueError(
                    f"training diverged: {name} holds a weight that is not finite or lies beyond the range of "
                    f"float32 after epoch {epoch}, step {step} (learning rate {cfg.lr})"
                )
    return params


def stratified_folds(labels: Sequence[str], k: int, seed: int) -> list[list[int]]:
    """Partition indices into k folds, dealing each class round-robin,
    from the fold after the one where the previous class stopped. Every
    fold's class counts are within 1 of an even split, and fold sizes
    differ by at most 1. While each class's count is a multiple of k,
    the next class starts at fold 0."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(labels):
        raise ValueError(f"k={k} exceeds dataset size {len(labels)}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    start = 0
    for label in sorted(set(labels)):
        idx = np.array([i for i, lbl in enumerate(labels) if lbl == label])
        idx = idx[rng.permutation(len(idx))]
        for j, i in enumerate(idx):
            folds[(start + j) % k].append(int(i))
        start = (start + len(idx)) % k
    return folds


def kfold_cross_validate(
    dataset: Sequence[DomainSample],
    hp: Hyperparams,
    cfg: TrainConfig = TrainConfig(),
    k: int = DEFAULT_FOLDS,
) -> tuple[float, float]:
    """Stratified k-fold CV; returns (mean, population sd) of the held-out
    tunneling-class F1 at threshold 0.5. Raises ValueError before any
    training when some fold holds every sample of a class, so that its
    training split would lack the class."""
    labels = [s.label for s in dataset]
    folds = stratified_folds(labels, k, cfg.seed)
    counts = Counter(labels)
    for held_out in folds:
        held = Counter(labels[i] for i in held_out)
        if any(held[label] == n for label, n in counts.items()):
            per_class = ", ".join(f"{label} {n}" for label, n in sorted(counts.items()))
            raise ValueError(f"{k}-fold cross-validation leaves a training split without a class (class counts: {per_class})")
    scores = []
    for held_out in folds:
        val_set = set(held_out)
        train_split = [s for i, s in enumerate(dataset) if i not in val_set]
        params = train(train_split, hp, cfg)
        val_split = [dataset[i] for i in held_out]
        probs = predict_samples(params, hp, val_split)
        scores.append(compute_metrics(val_split, probs, 0.5).per_class[LABEL_TUNNELING].f1)
    scores = np.array(scores)
    return float(scores.mean()), float(scores.std())


@dataclass(frozen=True)
class GridResult:
    hp: Hyperparams
    mean_f1: float
    sd_f1: float
    parameter_count: int


def grid_search(
    dataset: Sequence[DomainSample],
    grid: Sequence[Hyperparams],
    cfg: TrainConfig = TrainConfig(),
    k: int = DEFAULT_FOLDS,
) -> list[GridResult]:
    """Cross-validate every combination; results sorted by mean F1
    descending, ties broken by fewer parameters, then grid order."""
    if not grid:
        raise ValueError("grid must contain at least one combination")
    results = []
    for hp in grid:
        mean_f1, sd_f1 = kfold_cross_validate(dataset, hp, cfg, k=k)
        results.append(GridResult(hp, mean_f1, sd_f1, count_parameters(hp)))
    return sorted(results, key=lambda r: (-r.mean_f1, r.parameter_count))


def default_grid() -> list[Hyperparams]:
    """The stock search grid; includes the reference configuration."""
    combos = itertools.product((256, 1024), (2, 4), (50, 100), (128, 256))
    return [Hyperparams(nf=nf, ks=ks, sl=1, d=d, l=45, hn=hn) for nf, ks, d, hn in combos]


_GRID_KEYS = tuple(f.name for f in fields(Hyperparams))


def parse_grid_line(line: str) -> Hyperparams:
    """One combination as labeled key=value pairs, e.g.
    'nf=1024 ks=4 sl=1 d=100 l=45 hn=256'."""
    values = {}
    for token in line.replace(",", " ").split():
        key, sep, raw = token.partition("=")
        if not sep or key not in _GRID_KEYS:
            raise ValueError(f"bad grid token {token!r} (expected one of {_GRID_KEYS})")
        if key in values:
            raise ValueError(f"duplicate grid key {key!r}")
        try:
            values[key] = int(raw)
        except ValueError:
            raise ValueError(f"grid value for {key!r} is not an integer: {raw!r}") from None
    missing = [k for k in _GRID_KEYS if k not in values]
    if missing:
        raise ValueError(f"grid line missing keys: {missing}")
    return Hyperparams(**values)


def parse_grid_file(path) -> list[Hyperparams]:
    """Grid file: one combination per line; blank lines and '#' comments
    are skipped."""
    grid = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                grid.append(parse_grid_line(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not grid:
        raise ValueError(f"grid file {path} contains no combinations")
    return grid
