"""Forward and backward passes for the character-level 1D-CNN.

Layer stack: trainable embedding lookup -> 1D "valid" convolution with
ReLU -> flatten (position-major, filter-minor) -> dense ReLU -> dense
sigmoid, trained against binary cross-entropy. Training is plain
numpy in float64 so the analytic gradients can be checked tightly
against finite differences. The forward pass works in the dtype of the
weights, so float32 weights (as evaluate and classify load them) give a
float32 forward; the logit is cast to float64 before the sigmoid, and
probabilities are always float64.

The input is a sequence of symbol indices, so the embedding lookup and
the convolution fold into one table: embedding[x] @ conv_w[j] equals
(embedding @ conv_w[j])[x]. The forward pass builds the (ks, vocab, nf)
table once per batch and sums, for each window, one table row per
kernel tap. Backward sums the conv gradient into the same table shape
(one one-hot GEMM per tap over the packed windows) and maps it back to
the embedding and kernel gradients with vocab-row products.

Names are right-padded with PAD, and a window that starts past a row's
last non-PAD symbol reads only PAD, so all such windows share one
activation. Only live windows are computed. Rows are sorted by their
live-window count and the conv activations are packed position-major,
as in PyTorch's pack_padded_sequence: at each position the live rows
are a prefix of the sorted rows, followed by one all-PAD window that
stands for the rest. dense1 is then one GEMM per position, and in
backward the all-PAD window carries the sum of dz1 over the rows dead
at that position. The result is exact for any input (a PAD window
inside a name stays live) up to summation order.

dense1_w holds almost all the weights (11.0 M of 11.4 M at the
reference configuration). backward_batch forms its gradient one
cache-sized block at a time and hands each block to a consumer that
may update dense1_w in place (training's Adam step), so a training step
never holds the whole dense1_w gradient. Each backward pass queues one
task on a persistent worker thread, which calls the consumer on each
block while backward forms the next ones in a ring of RING_SLOTS
buffers; the task has ended by the time backward_batch returns or
raises. backward_batch also overwrites the packed conv activations
with their gradient, so a step holds one array of that size, not two.
A thread that has trained keeps that array and the ring in buffers it
reuses at every step, and holds them until it exits.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .tokenizer import PAD_IDX, VOCAB_SIZE

BCE_EPS = 1e-7

# float64 scalars in one cache-sized working block (256 KB): the conv
# layer and the Adam update each work through their arrays in pieces of
# about this size, so that every pass over a piece hits cache
CACHE_BLOCK = 2**15

# dense1_w gradient blocks of CACHE_BLOCK scalars that one backward pass
# may have formed but the worker thread not yet consumed (2 MB in all)
RING_SLOTS = 8

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
    which share these shapes exactly; backward_batch leaves dense1_w
    None when a consumer took its gradient block by block."""

    embedding: np.ndarray  # (vocab, d)
    conv_w: np.ndarray     # (ks, d, nf)
    conv_b: np.ndarray     # (nf,)
    dense1_w: np.ndarray   # (conv_out_len * nf, hn)
    dense1_b: np.ndarray   # (hn,)
    dense2_w: np.ndarray   # (hn,)
    dense2_b: np.ndarray   # (1,)

    def arrays(self):
        """Yield (name, array) pairs in field order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    @classmethod
    def zeros_like(cls, other: "ModelParams") -> "ModelParams":
        return cls(*(np.zeros_like(arr) for _, arr in other.arrays()))


def expected_shapes(hp: Hyperparams) -> dict[str, tuple[int, ...]]:
    """Shape of every weight block for a given configuration."""
    return {
        "embedding": (VOCAB_SIZE, hp.d),
        "conv_w": (hp.ks, hp.d, hp.nf),
        "conv_b": (hp.nf,),
        "dense1_w": (hp.flat_width, hp.hn),
        "dense1_b": (hp.hn,),
        "dense2_w": (hp.hn,),
        "dense2_b": (1,),
    }


def count_parameters(hp: Hyperparams) -> int:
    """Total trainable scalars over every weight block."""
    return sum(math.prod(shape) for shape in expected_shapes(hp).values())


def init_params(hp: Hyperparams, seed: int) -> ModelParams:
    """Fresh weights: embedding uniform in [-0.05, 0.05], conv/dense
    Glorot-uniform, biases zero. Deterministic for a given seed; the
    weight blocks are drawn in field order."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        return np.sqrt(6.0 / (fan_in + fan_out))

    bounds = {
        "embedding": 0.05,
        "conv_w": glorot(hp.ks * hp.d, hp.ks * hp.nf),
        "dense1_w": glorot(hp.flat_width, hp.hn),
        "dense2_w": glorot(hp.hn, 1),
    }
    return ModelParams(**{
        name: rng.uniform(-bounds[name], bounds[name], size=shape) if name in bounds else np.zeros(shape)
        for name, shape in expected_shapes(hp).items()
    })


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pack(xb: np.ndarray, hp: Hyperparams):
    """Packed window layout of a (B, l) batch.

    Window p of a row is live iff p * sl is at most the index of the
    row's last non-PAD symbol; every later window reads only PAD. Rows
    are sorted by live count (stable), so at each position the live
    rows are a prefix of the sorted rows. The layout is position-major:
    for each position, its live windows in sorted-row order, then, if
    some row is dead there, one all-PAD window standing for all of them.

    Returns (order, live, blocks, sym): the sorting permutation, each
    sorted row's live count, one (lo, k, m) per position p (packed rows
    lo:lo+m hold p's k live windows and, when m > k, the all-PAD window
    after them), and the (ks, packed windows) symbol indices each kernel
    tap reads.
    """
    batch, positions = xb.shape[0], hp.conv_out_len
    symbols = xb != PAD_IDX
    last = np.where(symbols.any(axis=1), hp.l - 1 - np.argmax(symbols[:, ::-1], axis=1), -1)
    live = np.minimum(last // hp.sl + 1, positions)
    order = np.argsort(-live, kind="stable")
    live = live[order]
    counts = np.count_nonzero(live[:, None] > np.arange(positions), axis=0)
    widths = counts + (counts < batch)
    starts = np.cumsum(widths) - widths
    pos = np.repeat(np.arange(positions), widths)
    # the all-PAD window after a position's live rows is that of the
    # first sorted row dead there
    row = np.arange(pos.size) - starts[pos]
    xs = xb[order]
    sym = np.stack([xs[row, pos * hp.sl + j] for j in range(hp.ks)])
    return order, live, list(zip(starts.tolist(), counts.tolist(), widths.tolist())), sym


def _forward_cached(params: ModelParams, hp: Hyperparams, x_batch: np.ndarray, training: bool = False):
    """Batched forward pass keeping every activation needed by backward.

    The conv runs over the packed windows only (see _pack). dense1 is
    one GEMM per position over its packed rows; a row dead from
    position k on then adds suffix[k], the sum over p >= k of the
    all-PAD window's product with W1[p]. Activations take the dtype of
    the weights. Cached arrays are in sorted-row or packed order;
    probabilities come back in input order, as float64. The cache is
    backward_batch's to consume: it overwrites cache["ac"] with the
    gradient of the conv output. With `training` (float64 weights only),
    cache["ac"] is a view of this thread's reused activations buffer.
    """
    xb = np.atleast_2d(np.asarray(x_batch))
    if xb.shape[-1] != hp.l:
        raise ValueError(f"input length {xb.shape[-1]} does not match sequence length {hp.l}")
    vocab = params.embedding.shape[0]
    if xb.size and (xb.min() < 0 or xb.max() >= vocab):
        raise ValueError(f"symbol indices must lie in [0, {vocab})")
    batch = xb.shape[0]
    order, live, blocks, sym = _pack(xb, hp)

    dtype = params.dense1_w.dtype
    table = np.matmul(params.embedding, params.conv_w)  # (ks, vocab, nf)
    shape = (sym.shape[1], hp.nf)
    ac = _buffer("ac", math.prod(shape)).reshape(shape) if training else np.empty(shape, dtype)
    # blocks of windows small enough to stay in cache while their taps add up
    rows = max(1, CACHE_BLOCK // hp.nf)
    for r in range(0, ac.shape[0], rows):
        block = ac[r : r + rows]
        block[...] = table[0][sym[0, r : r + rows]]
        for j in range(1, hp.ks):
            block += table[j][sym[j, r : r + rows]]
        block += params.conv_b
        np.maximum(block, 0.0, out=block)

    w1 = params.dense1_w.reshape(hp.conv_out_len, hp.nf, hp.hn)
    z1 = np.empty((batch, hp.hn), dtype)
    z1[...] = params.dense1_b
    out = np.empty((batch, hp.hn), dtype)
    # pad[p] is the all-PAD window times W1[p]; pad[P] = 0 serves rows live throughout
    pad = np.zeros((hp.conv_out_len + 1, hp.hn), dtype)
    for p, (lo, k, m) in enumerate(blocks):
        np.matmul(ac[lo : lo + m], w1[p], out=out[:m])
        z1[:k] += out[:k]
        if m > k:
            pad[p] = out[k]
    z1 += np.cumsum(pad[::-1], axis=0)[::-1][live]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.dense2_w + params.dense2_b[0]  # (B,)
    probs = np.empty(batch)
    probs[order] = np.clip(_sigmoid(z2.astype(np.float64, copy=False)), _P_LO, _P_HI)

    cache = {"order": order, "blocks": blocks, "sym": sym, "ac": ac, "z1": z1, "a1": a1}
    return probs, cache


def forward_batch(params: ModelParams, hp: Hyperparams, x_batch: np.ndarray) -> np.ndarray:
    """Probabilities for a (B, l) batch of index sequences."""
    p, _ = _forward_cached(params, hp, x_batch)
    return p


_worker_lock = threading.Lock()
_worker: tuple[threading.Thread, queue.SimpleQueue] | None = None
_buffers = threading.local()


def _serve(tasks: queue.SimpleQueue) -> None:
    """The worker thread's loop: run each task, in the order queued."""
    while True:
        tasks.get()()


def _on_worker(task: Callable[[], None]) -> None:
    """Queue `task` for the one dense1 worker thread, started on first use
    (and again in a forked child, which inherits no threads). A task must
    not raise: the thread would end with it."""
    global _worker
    with _worker_lock:
        if _worker is None or not _worker[0].is_alive():
            tasks = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(tasks,), name="tunneldetect-dense1", daemon=True)
            thread.start()
            _worker = (thread, tasks)
        _worker[1].put(task)


def _buffer(name: str, size: int) -> np.ndarray:
    """`size` float64 scalars of this thread's buffer `name`, which is
    allocated once, grown when a call needs more, and reused by every
    later backward pass of the thread.

    Training keeps its two largest per-step arrays here: the packed conv
    activations and the gradient ring. Taken from the malloc heap and
    given back at every step, activations of a size the heap's free
    space could not hold went to a fresh mapping while the heap stayed
    resident, and a reference `train` peaked 21 MB higher (361 against
    340 MB, 2 vCPU, 1 BLAS thread) on some corpora."""
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_buffers, name, buf)
    return buf[:size]


class _Handoff:
    """One backward pass's dense1_w gradient blocks on their way to the
    worker thread, where one task calls dense1_update on each, in the
    order put, under the numpy error state of the caller (numpy keeps
    that state per thread).

    The ring's free slots are its only bookkeeping: `done` starts with
    every slot, and the task puts each slot back once its block's call
    has returned. Once a call has failed, the task puts back later slots
    without calling, and free() raises that call's exception. Exit waits
    for the task to end, so no call is running or starts once the body
    has left the context. Then the body's exception goes through, or, if
    the body raised none, the exception of the call that failed.
    """

    def __init__(self, dense1_update: Callable[[int, np.ndarray], None], slots: int):
        self.update, self.errs, self.slots = dense1_update, np.geterr(), slots
        self.jobs, self.done = queue.SimpleQueue(), queue.SimpleQueue()
        for slot in range(slots):
            self.done.put(slot)
        self.error: BaseException | None = None
        _on_worker(self._work)

    def _work(self) -> None:
        with np.errstate(**self.errs):
            for slot, offset, block in iter(self.jobs.get, None):
                if self.error is None:
                    try:
                        self.update(offset, block)
                    except BaseException as exc:
                        self.error = exc
                self.done.put(slot)
        self.done.put(None)

    def free(self) -> int:
        """A ring slot whose block the task is done with."""
        slot = self.done.get()
        if self.error is not None:
            raise self.error
        return slot

    def put(self, slot: int, offset: int, block: np.ndarray) -> None:
        self.jobs.put((slot, offset, block))

    def __enter__(self) -> "_Handoff":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.jobs.put(None)
        while self.done.get() is not None:
            pass
        self.update = None  # the worker may not have left the task yet, but holds no consumer
        if exc_type is None and self.error is not None:
            raise self.error


def _mean_bce(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0 and 1."""
    pc = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))


def backward_batch(
    params: ModelParams,
    hp: Hyperparams,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    dense1_update: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[ModelParams, float]:
    """Gradients of the mean BCE loss over an encoded batch.

    Sigmoid and BCE are fused analytically (dL/dz = p - y), so the
    backward pass never divides by a near-zero probability. The weights
    must be float64: training and the gradient check are float64 only.

    The dense1_w gradient is formed one buffer of CACHE_BLOCK scalars
    (or one row, if hn is larger) at a time, in flat order, and each
    full or final buffer goes to dense1_update(flat offset, block). The
    calls run in that order on one worker thread, under the numpy error
    state of the caller, while backward forms the next buffers (up to
    RING_SLOTS of them); all have returned when backward_batch returns
    or raises. If a call raises, no later block is handed to the
    consumer and backward_batch raises that exception. A consumer may
    update dense1_w in place: every position's blocks are handed over
    after the GEMMs that read its rows of dense1_w. It must not call
    backward_batch itself. With a consumer, the returned dense1_w
    gradient is None; without one, the blocks are gathered (on the same
    worker) into the full gradient.

    The forward cache is consumed: each position's block of the packed
    conv activations is overwritten with its gradient once the dense1
    GEMMs have read it, so the largest array of a step exists once.
    """
    xb = np.atleast_2d(np.asarray(x_batch))
    yb = np.asarray(y_batch, dtype=np.float64).reshape(-1)
    for name, arr in params.arrays():
        if arr.dtype != np.float64:
            raise ValueError(f"backward needs float64 weights, {name} is {arr.dtype}")
    if xb.shape[0] == 0:
        raise ValueError("backward requires a nonempty batch")
    if xb.shape[0] != yb.shape[0]:
        raise ValueError(f"batch size mismatch: {xb.shape[0]} sequences, {yb.shape[0]} labels")

    dense1_grad = None
    if dense1_update is None:
        dense1_grad = np.empty(hp.flat_width * hp.hn)

        def dense1_update(offset, block):
            dense1_grad[offset : offset + block.size] = block

    rows = max(1, CACHE_BLOCK // hp.hn)  # gradient rows per ring slot
    with _Handoff(dense1_update, min(RING_SLOTS, -(-hp.flat_width // rows))) as handoff:
        g, loss = _backward(params, hp, xb, yb, rows, handoff)
    if dense1_grad is not None:
        g.dense1_w = dense1_grad.reshape(hp.flat_width, hp.hn)
    return g, loss


def _backward(params: ModelParams, hp: Hyperparams, xb: np.ndarray, yb: np.ndarray, rows: int, handoff: _Handoff):
    """backward_batch's passes, handing each dense1_w gradient block of
    `rows` rows to `handoff`; the returned dense1_w gradient is None."""
    probs, cache = _forward_cached(params, hp, xb, training=True)
    batch = xb.shape[0]
    loss = _mean_bce(probs, yb)
    order, ac, sym = cache["order"], cache["ac"], cache["sym"]

    dz2 = (probs[order] - yb[order]) / batch                # (B,), sorted rows
    da1 = np.outer(dz2, params.dense2_w)                # (B, hn)
    dz1 = da1 * (cache["z1"] > 0.0)
    dense1_b = dz1.sum(axis=0)

    # Position p's GEMMs take its k live rows of dz1, then, in the all-PAD
    # window's slot k, the sum of dz1 over the rows dead at p, written into
    # dz1 in place. Counts never grow with p, so no later position reads a
    # row that slot overwrote. Each position's conv gradient goes to
    # `scratch` while its dense1 GEMMs still read the activations, then
    # over those activations, so after the loop `ac` holds dL/dconv-out.
    dead_sum = np.cumsum(dz1[::-1], axis=0)[::-1]       # dead_sum[k] = sum of dz1[k:]
    w1 = params.dense1_w.reshape(hp.conv_out_len, hp.nf, hp.hn)
    scratch = np.empty((batch, hp.nf))
    ring = _buffer("ring", handoff.slots * rows * hp.hn).reshape(handoff.slots, rows, hp.hn)
    slot, filled, offset = handoff.free(), 0, 0  # ring slot being filled, its rows in use; flat offset of its first row
    for p, (lo, k, m) in enumerate(cache["blocks"]):
        if m > k:
            dz1[k] = dead_sum[k]
        np.matmul(dz1[:m], w1[p].T, out=scratch[:m])
        a = ac[lo : lo + m]
        r = 0
        while r < hp.nf:
            n = min(rows - filled, hp.nf - r)
            np.matmul(a[:, r : r + n].T, dz1[:m], out=ring[slot, filled : filled + n])
            filled += n
            r += n
            if filled == rows:
                handoff.put(slot, offset, ring[slot].reshape(-1))
                offset += rows * hp.hn
                slot, filled = handoff.free(), 0
        np.multiply(scratch[:m], a > 0.0, out=a)
    if filled:
        handoff.put(slot, offset, ring[slot, :filled].reshape(-1))
    dzc = ac

    # dL/dtable[j][v] sums dzc over the packed windows whose tap j reads
    # symbol v: one GEMM per tap of a (vocab, windows) one-hot matrix with
    # dzc. That is about vocab times the multiply-adds of a scatter-add,
    # yet faster: at the reference config (128 desk names, 2,746 packed
    # windows, 1 BLAS thread, numpy 2.4.6) 25 ms against 183 ms for
    # np.add.at and for a sort + np.add.reduceat. One GEMM of all ks taps'
    # one-hot rows is ~8 ms faster (BLAS packs dzc once, not ks times) but
    # holds a one-hot matrix ks times larger (2.2 MB more train VmHWM).
    vocab = params.embedding.shape[0]
    cols = np.arange(dzc.shape[0])
    onehot = np.zeros((vocab, dzc.shape[0]))
    dtable = np.empty((hp.ks, vocab, hp.nf))
    for j in range(hp.ks):
        if j:
            onehot[sym[j - 1], cols] = 0.0
        onehot[sym[j], cols] = 1.0
        np.matmul(onehot, dzc, out=dtable[j])
    embedding = dtable[0] @ params.conv_w[0].T
    for j in range(1, hp.ks):
        embedding += dtable[j] @ params.conv_w[j].T

    g = ModelParams(
        embedding=embedding,
        conv_w=np.matmul(params.embedding.T, dtable),   # (ks, d, nf)
        conv_b=dzc.sum(axis=0),
        dense1_w=None,
        dense1_b=dense1_b,
        dense2_w=cache["a1"].T @ dz2,
        dense2_b=np.array([dz2.sum()]),
    )
    return g, loss
