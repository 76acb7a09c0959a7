"""Character-level tokenizer mapping domain names to fixed-length index sequences.

The vocabulary is fixed: index 0 is PAD, index 1 is OOV, and 43 literal
characters cover lowercase letters, digits and the separator/padding
characters that show up in encoded DNS payloads (base32, base64/base64url,
hex). Encoding is a total function: any string maps to a sequence of
exactly ``length`` indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_IDX = 0
OOV_IDX = 1

# Literal characters, in index order starting at 2.
LITERALS = "abcdefghijklmnopqrstuvwxyz0123456789-._=+/~"

VOCAB_SIZE = 2 + len(LITERALS)  # 45

_INDEX = {ch: 2 + i for i, ch in enumerate(LITERALS)}


@dataclass(frozen=True)
class Vocabulary:
    """The literal characters a model file was saved with, in index order."""

    literals: str


def build_vocabulary() -> Vocabulary:
    """Return the fixed alphabet: PAD, OOV, a-z, 0-9, '-._=+/~' (45 entries)."""
    return Vocabulary(LITERALS)


def encoding_key(name: str, length: int) -> str:
    """The characters of ``name`` that encode_domain maps to indices: the
    name lowercased, then its first ``length`` characters. Names with
    equal keys encode to identical rows."""
    return name.lower()[:length]


def encode_domain(name: str, length: int) -> np.ndarray:
    """Encode a domain name as ``length`` vocabulary indices.

    The name is lowercased, the first ``length`` characters are mapped to
    indices (unknown characters become OOV) and shorter names are
    right-padded with PAD. Truncation keeps the leftmost characters, where
    the payload-bearing labels of tunneling queries live.
    """
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    out = np.full(length, PAD_IDX, dtype=np.int64)
    for i, ch in enumerate(encoding_key(name, length)):
        out[i] = _INDEX.get(ch, OOV_IDX)
    return out


def encode_batch(names: list[str], length: int) -> np.ndarray:
    """Encode many names into an (n, length) int64 array."""
    batch = np.full((len(names), length), PAD_IDX, dtype=np.int64)
    for i, name in enumerate(names):
        batch[i] = encode_domain(name, length)
    return batch

