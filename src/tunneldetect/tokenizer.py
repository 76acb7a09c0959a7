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

# Index of every byte of an ASCII-encoded key: each literal its own,
# 0xFF (padding, never produced by ASCII encoding) PAD, any other OOV.
_BYTE_INDEX = np.full(256, OOV_IDX, dtype=np.int64)
_BYTE_INDEX[np.frombuffer(LITERALS.encode("ascii"), dtype=np.uint8)] = np.arange(2, VOCAB_SIZE)
_BYTE_INDEX[0xFF] = PAD_IDX


@dataclass(frozen=True)
class Vocabulary:
    """The literal characters a model file was saved with, in index order."""

    literals: str


def encoding_key(name: str, length: int) -> str:
    """The characters of ``name`` that encode_batch maps to indices: the
    name lowercased, then its first ``length`` characters. Names with
    equal keys encode to identical rows."""
    return name.lower()[:length]


def encode_batch(names: list[str], length: int) -> np.ndarray:
    """Encode names into an (n, length) int64 array of vocabulary indices.

    Row i is the indices of ``encoding_key(names[i], length)``,
    right-padded with PAD, so truncation keeps the leftmost characters,
    where the payload-bearing labels of tunneling queries live. Encoding
    to ASCII with "replace" makes each non-ASCII character one '?' (OOV).
    """
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    raw = b"".join(encoding_key(name, length).encode("ascii", "replace").ljust(length, b"\xff") for name in names)
    return _BYTE_INDEX[np.frombuffer(raw, dtype=np.uint8)].reshape(len(names), length)
