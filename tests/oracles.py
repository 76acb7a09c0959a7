"""Independent oracles the tests check the library against.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared code with the package internals) so a bug in the
library cannot hide in its own verification.
"""

import math

import numpy as np

from tunneldetect.network import Hyperparams, backward_batch, forward_batch, _mean_bce
from tunneldetect.tokenizer import PAD_IDX, VOCAB_SIZE


def naive_forward(params, hp, x):
    """Loop-based reference forward pass for one index sequence."""
    emb = np.array([params.embedding[i] for i in x])  # (l, d)

    conv = []
    pos = 0
    while pos + hp.ks <= hp.l:
        window = emb[pos : pos + hp.ks]  # (ks, d)
        row = []
        for f in range(hp.nf):
            acc = params.conv_b[f]
            for j in range(hp.ks):
                for k in range(hp.d):
                    acc += window[j, k] * params.conv_w[j, k, f]
            row.append(max(acc, 0.0))
        conv.append(row)
        pos += hp.sl

    flat = [conv[p][f] for p in range(len(conv)) for f in range(hp.nf)]

    hidden = []
    for h in range(hp.hn):
        acc = params.dense1_b[h]
        for i, v in enumerate(flat):
            acc += v * params.dense1_w[i, h]
        hidden.append(max(acc, 0.0))

    z = params.dense2_b[0]
    for h in range(hp.hn):
        z += hidden[h] * params.dense2_w[h]
    return 1.0 / (1.0 + math.exp(-z))


def dense_preactivations(params, hp, x):
    """The dense computation up to dense1: every im2col window of every
    row through the conv, then the whole flattened conv output through
    one dense1 GEMM. Returns (windows, zc, flat, z1)."""
    batch, positions = x.shape[0], hp.conv_out_len
    w_flat = params.conv_w.reshape(hp.ks * hp.d, hp.nf)
    emb = params.embedding[x]                                          # (B, l, d)
    windows = np.stack(
        [emb[:, q * hp.sl : q * hp.sl + hp.ks].reshape(batch, -1) for q in range(positions)], axis=1
    )                                                                  # (B, P, ks*d)
    zc = windows @ w_flat + params.conv_b
    flat = np.maximum(zc, 0.0).reshape(batch, -1)
    return windows, zc, flat, flat @ params.dense1_w + params.dense1_b


def dense_reference(params, hp, x, y):
    """Probabilities, mean BCE gradients and loss from the dense
    computation (see dense_preactivations). Returns
    (p, {block name: gradient}, loss)."""
    batch, positions = x.shape[0], hp.conv_out_len
    w_flat = params.conv_w.reshape(hp.ks * hp.d, hp.nf)
    windows, zc, flat, z1 = dense_preactivations(params, hp, x)
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.dense2_w + params.dense2_b[0]
    p = 1.0 / (1.0 + np.exp(-z2))

    dz2 = (p - y) / batch
    dz1 = np.outer(dz2, params.dense2_w) * (z1 > 0.0)
    dzc = (dz1 @ params.dense1_w.T).reshape(zc.shape) * (zc > 0.0)    # (B, P, nf)
    dwin = (dzc @ w_flat.T).reshape(batch, positions, hp.ks, hp.d)
    dembedding = np.zeros_like(params.embedding)
    for q in range(positions):
        for j in range(hp.ks):
            np.add.at(dembedding, x[:, q * hp.sl + j], dwin[:, q, j])
    grads = {
        "embedding": dembedding,
        "conv_w": np.einsum("bpk,bpf->kf", windows, dzc).reshape(params.conv_w.shape),
        "conv_b": dzc.sum(axis=(0, 1)),
        "dense1_w": flat.T @ dz1,
        "dense1_b": dz1.sum(axis=0),
        "dense2_w": a1.T @ dz2,
        "dense2_b": np.array([dz2.sum()]),
    }
    return p, grads, _mean_bce(p, y)


def gathered_backward(params, hp, x, y):
    """backward_batch with a consumer that copies each dense1_w gradient
    block into place; returns its gradients with the whole dense1_w
    gradient attached, and its loss."""
    dense1_w = np.empty(params.dense1_w.shape)

    def gather(offset, block):
        dense1_w.reshape(-1)[offset : offset + block.size] = block

    grads, loss = backward_batch(params, hp, x, y, dense1_update=gather)
    grads.dense1_w = dense1_w
    return grads, loss


def numeric_gradients(params, hp, x, y, h=1e-4):
    """Central finite differences of the mean BCE loss, one parameter at
    a time, probing only through the forward pass."""
    out = {}
    for name, arr in params.arrays():
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = _mean_bce(forward_batch(params, hp, x), y)
            flat[i] = orig - h
            lm = _mean_bce(forward_batch(params, hp, x), y)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * h)
        out[name] = grad
    return out


def gradient_relative_error(analytic, numeric):
    """Worst per-parameter relative error between gradient sets; pairs
    where both sides are ~0 count as exact."""
    worst = 0.0
    for name, num in numeric.items():
        ana = getattr(analytic, name)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-10)
        rel = np.abs(num - ana) / denom
        rel[(np.abs(num) < 1e-10) & (np.abs(ana) < 1e-10)] = 0.0
        worst = max(worst, float(rel.max()))
    return worst


# Small configurations for the finite-difference check: (hp, batch size,
# seed, name lengths). Each seed is pinned so that every conv/dense
# pre-activation sits farther from the ReLU kink than the probe step can
# reach; the clearance is re-asserted at run time so a drifted RNG fails
# loudly instead of flaking. With lengths None every symbol is drawn at
# random; otherwise row i holds lengths[i] non-PAD symbols, then PAD, so
# the batch has windows that read only PAD.
GRADCHECK_CASES = [
    (Hyperparams(nf=4, ks=3, sl=1, d=5, l=6, hn=3), 4, 23, None),
    (Hyperparams(nf=8, ks=4, sl=2, d=6, l=8, hn=4), 3, 28, None),
    (Hyperparams(nf=2, ks=2, sl=1, d=3, l=4, hn=2), 5, 9, None),
    (Hyperparams(nf=6, ks=5, sl=1, d=4, l=7, hn=4), 4, 51, None),
    (Hyperparams(nf=3, ks=8, sl=1, d=6, l=8, hn=2), 3, 1, None),
    (Hyperparams(nf=4, ks=3, sl=1, d=5, l=8, hn=3), 4, 15, (0, 8, 2, 5)),
]

KINK_CLEARANCE = 1.5e-3  # 15x the finite-difference step


def gradcheck_inputs(hp, batch_size, seed, lengths=None):
    rng = np.random.default_rng(seed * 7919)
    if lengths is None:
        x = rng.integers(0, VOCAB_SIZE, size=(batch_size, hp.l))
    else:
        x = rng.integers(PAD_IDX + 1, VOCAB_SIZE, size=(batch_size, hp.l))
        for row, length in zip(x, lengths, strict=True):
            row[length:] = PAD_IDX
    y = rng.integers(0, 2, size=batch_size).astype(float)
    return x, y


def relu_kink_clearance(params, hp, x):
    """Smallest |pre-activation| across both ReLU layers, over every
    im2col window of every row: the live windows the packed conv
    computes and the all-PAD windows its one all-PAD window stands for,
    so a kink there is caught too."""
    _, zc, _, z1 = dense_preactivations(params, hp, x)
    return float(min(np.abs(zc).min(), np.abs(z1).min()))


def confusion_recount(truths, verdicts, positive):
    """Brute-force confusion counts with `positive` as the positive class."""
    tp = fp = fn = tn = 0
    for truth, verdict in zip(truths, verdicts):
        if verdict == positive:
            if truth == positive:
                tp += 1
            else:
                fp += 1
        else:
            if truth == positive:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def recount_metrics(truths, verdicts, positive):
    """Precision/recall/FPR/F1 recomputed from scratch (0 on empty
    denominators), for cross-checking compute_metrics."""
    tp, fp, fn, tn = confusion_recount(truths, verdicts, positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, fpr, f1, tp + fn


def derive_seed_32(seed, *stream):
    """The corpus seed rule before seeds kept all their bits: the seed and
    each stream number cut to their low 32 bits, then one SeedSequence
    word. Every corpus of a seed below 2**32 was built with it."""
    entropy = [int(seed) & 0xFFFFFFFF] + [s & 0xFFFFFFFF for s in stream]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
