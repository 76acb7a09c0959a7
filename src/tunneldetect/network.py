"""Forward and backward passes for the character-level 1D-CNN.

Layer stack: trainable embedding lookup -> 1D "valid" convolution with
ReLU -> flatten (position-major, filter-minor) -> dense ReLU -> dense
sigmoid, trained against binary cross-entropy. Everything is plain
numpy in float64 so the analytic gradients can be checked tightly
against finite differences.

The input is a sequence of symbol indices, so the embedding lookup and
the convolution fold into one table: embedding[x] @ conv_w[j] equals
(embedding @ conv_w[j])[x]. The forward pass builds the (ks, vocab, nf)
table once per batch and sums, for each window, one table row per
kernel tap. Backward sums the conv gradient into the same table shape
(one one-hot GEMM over all windows) and maps it back to the embedding
and kernel gradients with vocab-row products.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tokenizer import VOCAB_SIZE

BCE_EPS = 1e-7

# float64 scalars in one cache-sized working block (256 KB): the conv
# layer and the Adam update each work through their arrays in pieces of
# about this size, so that every pass over a piece hits cache
CACHE_BLOCK = 2**15

# Open-interval bounds for the sigmoid output, so probabilities are
# never exactly 0.0 or 1.0 even for saturated logits.
_P_LO = np.nextafter(0.0, 1.0)
_P_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class Hyperparams:
    """Tunable sizes: filters, kernel width, stride, embedding dim,
    sequence length, hidden dense width."""

    nf: int
    ks: int
    sl: int
    d: int
    l: int
    hn: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"hyperparameter {f.name} must be a positive integer, got {v!r}")
            object.__setattr__(self, f.name, int(v))
        if self.ks > self.l:
            raise ValueError(f"kernel size {self.ks} exceeds sequence length {self.l}")

    @property
    def conv_out_len(self) -> int:
        return (self.l - self.ks) // self.sl + 1

    @property
    def flat_width(self) -> int:
        return self.conv_out_len * self.nf


# Best configuration found by the grid search (see training.default_grid).
DEFAULT_HYPERPARAMS = Hyperparams(nf=1024, ks=4, sl=1, d=100, l=45, hn=256)


@dataclass
class ModelParams:
    """All trainable weights. Also used as the container for gradients,
    which share these shapes exactly."""

    embedding: np.ndarray  # (vocab, d)
    conv_w: np.ndarray     # (ks, d, nf)
    conv_b: np.ndarray     # (nf,)
    dense1_w: np.ndarray   # (conv_out_len * nf, hn)
    dense1_b: np.ndarray   # (hn,)
    dense2_w: np.ndarray   # (hn,)
    dense2_b: np.ndarray   # (1,)

    FIELD_ORDER = ("embedding", "conv_w", "conv_b", "dense1_w", "dense1_b", "dense2_w", "dense2_b")

    def arrays(self):
        """Yield (name, array) pairs in a fixed order."""
        for name in self.FIELD_ORDER:
            yield name, getattr(self, name)

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, n).copy() for n in self.FIELD_ORDER))

    def num_scalars(self) -> int:
        return sum(arr.size for _, arr in self.arrays())

    @classmethod
    def zeros_like(cls, other: "ModelParams") -> "ModelParams":
        return cls(*(np.zeros_like(getattr(other, n)) for n in cls.FIELD_ORDER))


def expected_shapes(hp: Hyperparams, vocab_size: int = VOCAB_SIZE) -> dict[str, tuple[int, ...]]:
    """Shape of every weight block for a given configuration."""
    return {
        "embedding": (vocab_size, hp.d),
        "conv_w": (hp.ks, hp.d, hp.nf),
        "conv_b": (hp.nf,),
        "dense1_w": (hp.flat_width, hp.hn),
        "dense1_b": (hp.hn,),
        "dense2_w": (hp.hn,),
        "dense2_b": (1,),
    }


def init_params(hp: Hyperparams, seed: int, vocab_size: int = VOCAB_SIZE) -> ModelParams:
    """Fresh weights: embedding uniform in [-0.05, 0.05], conv/dense
    Glorot-uniform, biases zero. Deterministic for a given seed."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    embedding = rng.uniform(-0.05, 0.05, size=(vocab_size, hp.d))
    conv_w = glorot((hp.ks, hp.d, hp.nf), fan_in=hp.ks * hp.d, fan_out=hp.ks * hp.nf)
    dense1_w = glorot((hp.flat_width, hp.hn), fan_in=hp.flat_width, fan_out=hp.hn)
    dense2_w = glorot((hp.hn,), fan_in=hp.hn, fan_out=1)
    return ModelParams(
        embedding=embedding,
        conv_w=conv_w,
        conv_b=np.zeros(hp.nf),
        dense1_w=dense1_w,
        dense1_b=np.zeros(hp.hn),
        dense2_w=dense2_w,
        dense2_b=np.zeros(1),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _taps(x: np.ndarray, hp: Hyperparams, j: int) -> np.ndarray:
    """(B, P) symbol indices seen by kernel tap j at each window position."""
    span = (hp.conv_out_len - 1) * hp.sl + 1
    return x[:, j : j + span : hp.sl]


def _forward_cached(params: ModelParams, hp: Hyperparams, x_batch: np.ndarray):
    """Batched forward pass keeping every activation needed by backward."""
    xb = np.atleast_2d(np.asarray(x_batch))
    if xb.shape[-1] != hp.l:
        raise ValueError(f"input length {xb.shape[-1]} does not match sequence length {hp.l}")
    vocab = params.embedding.shape[0]
    if xb.size and (xb.min() < 0 or xb.max() >= vocab):
        raise ValueError(f"symbol indices must lie in [0, {vocab})")
    batch = xb.shape[0]

    table = np.matmul(params.embedding, params.conv_w)  # (ks, vocab, nf)
    zc = np.empty((batch, hp.conv_out_len, hp.nf))
    ac = np.empty_like(zc)
    # blocks of rows small enough to stay in cache while their taps add up
    rows = max(1, CACHE_BLOCK // (hp.conv_out_len * hp.nf))
    for r in range(0, batch, rows):
        xr, block = xb[r : r + rows], zc[r : r + rows]
        block[...] = table[0][_taps(xr, hp, 0)]
        for j in range(1, hp.ks):
            block += table[j][_taps(xr, hp, j)]
        block += params.conv_b
        np.maximum(block, 0.0, out=ac[r : r + rows])
    flat = ac.reshape(batch, hp.flat_width)         # position-major, filter-minor
    z1 = flat @ params.dense1_w + params.dense1_b   # (B, hn)
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.dense2_w + params.dense2_b[0]  # (B,)
    p = np.clip(_sigmoid(z2), _P_LO, _P_HI)

    cache = {"x": xb, "zc": zc, "z1": z1, "a1": a1, "flat": flat}
    return p, cache


def forward_batch(params: ModelParams, hp: Hyperparams, x_batch: np.ndarray) -> np.ndarray:
    """Probabilities for a (B, l) batch of index sequences."""
    p, _ = _forward_cached(params, hp, x_batch)
    return p


def _mean_bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0 and 1."""
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def backward_batch(
    params: ModelParams, hp: Hyperparams, x_batch: np.ndarray, y_batch: np.ndarray
) -> tuple[ModelParams, float]:
    """Gradients of the mean BCE loss over an encoded batch.

    Sigmoid and BCE are fused analytically (dL/dz = p - y), so the
    backward pass never divides by a near-zero probability.
    """
    xb = np.atleast_2d(np.asarray(x_batch))
    yb = np.asarray(y_batch, dtype=np.float64).reshape(-1)
    if xb.shape[0] == 0:
        raise ValueError("backward requires a nonempty batch")
    if xb.shape[0] != yb.shape[0]:
        raise ValueError(f"batch size mismatch: {xb.shape[0]} sequences, {yb.shape[0]} labels")

    p, cache = _forward_cached(params, hp, xb)
    batch = xb.shape[0]
    loss = _mean_bce(p, yb)

    dz2 = (p - yb) / batch                              # (B,)
    da1 = np.outer(dz2, params.dense2_w)                # (B, hn)
    dz1 = da1 * (cache["z1"] > 0.0)
    dzc = (dz1 @ params.dense1_w.T).reshape(batch * hp.conv_out_len, hp.nf)  # (B*P, nf)
    dzc *= cache["zc"].reshape(dzc.shape) > 0.0

    # dL/dtable[j][v] sums dzc over the windows whose tap j reads symbol
    # v: one GEMM of a (ks*vocab, B*P) one-hot matrix with dzc
    vocab = params.embedding.shape[0]
    cols = np.arange(dzc.shape[0])
    onehot = np.zeros((hp.ks * vocab, dzc.shape[0]))
    for j in range(hp.ks):
        onehot[j * vocab + _taps(cache["x"], hp, j).reshape(-1), cols] = 1.0
    dtable = np.empty((hp.ks, vocab, hp.nf))
    np.matmul(onehot, dzc, out=dtable.reshape(hp.ks * vocab, hp.nf))
    embedding = dtable[0] @ params.conv_w[0].T
    for j in range(1, hp.ks):
        embedding += dtable[j] @ params.conv_w[j].T

    g = ModelParams(
        embedding=embedding,
        conv_w=np.matmul(params.embedding.T, dtable),   # (ks, d, nf)
        conv_b=dzc.sum(axis=0),
        dense1_w=cache["flat"].T @ dz1,
        dense1_b=dz1.sum(axis=0),
        dense2_w=cache["a1"].T @ dz2,
        dense2_b=np.array([dz2.sum()]),
    )
    return g, loss
