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
_LITERALS = (
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789"
    "-._=+/~"
)

VOCAB_SIZE = 2 + len(_LITERALS)  # 45


@dataclass(frozen=True)
class Vocabulary:
    """Fixed 45-symbol alphabet: PAD, OOV, then 43 literal characters."""

    literals: str

    def __post_init__(self):
        if len(set(self.literals)) != len(self.literals):
            raise ValueError("vocabulary literals must be unique")

    @property
    def size(self) -> int:
        return 2 + len(self.literals)

    def lookup(self, ch: str) -> int:
        """Index of a single character, OOV if it is not a literal."""
        pos = self.literals.find(ch)
        return OOV_IDX if pos < 0 else 2 + pos

    def char_at(self, index: int) -> str | None:
        """Literal character for an index; None for PAD and OOV."""
        if index < 2 or index >= self.size:
            return None
        return self.literals[index - 2]


_VOCAB = Vocabulary(_LITERALS)


def build_vocabulary() -> Vocabulary:
    """Return the fixed alphabet: PAD, OOV, a-z, 0-9, '-._=+/~' (45 entries)."""
    return _VOCAB


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
        out[i] = _VOCAB.lookup(ch)
    return out


def encode_batch(names: list[str], length: int) -> np.ndarray:
    """Encode many names into an (n, length) int64 array."""
    batch = np.full((len(names), length), PAD_IDX, dtype=np.int64)
    for i, name in enumerate(names):
        batch[i] = encode_domain(name, length)
    return batch


def decode_indices(indices) -> str:
    """Best-effort inverse of encode_domain, for debugging.

    Stops at the first PAD; OOV decodes to '?' (itself not a literal, so
    re-encoding a decoded string reproduces the same indices).
    """
    chars = []
    for idx in indices:
        if idx == PAD_IDX:
            break
        ch = _VOCAB.char_at(int(idx))
        chars.append("?" if ch is None else ch)
    return "".join(chars)
