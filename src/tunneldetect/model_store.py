"""Versioned binary persistence for trained models.

File layout (all integers little-endian):

    magic        8 bytes  b"DNSTCNN\\x01"
    version      u32
    hyperparams  6 x u32  (nf, ks, sl, d, l, hn)
    vocabulary   u32 byte length + UTF-8 literal characters (indices 2..)
    block count  u32
    per block    u8 name length + ASCII name,
                 u8 ndim + ndim x u32 dims,
                 float64 LE values
    checksum     u32 CRC-32 over all preceding bytes

Weights are stored as raw 64-bit floats so save/load round-trips are
bitwise exact at float64; load can also convert them to another dtype
(classify loads float32). Every corruption class raises its own error
type, except that a damaged length, count or dims field may report
truncation: it misplaces every later field, so the bytes can run out
before the checksum is compared.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import astuple

import numpy as np

from .network import Hyperparams, ModelParams, expected_shapes
from .tokenizer import LITERALS, Vocabulary

MAGIC = b"DNSTCNN\x01"
VERSION = 1


class ModelFormatError(Exception):
    """Base class for model-file problems."""


class TruncatedModelError(ModelFormatError):
    """File ends before the declared content."""


class BadMagicError(ModelFormatError):
    """File does not start with the model magic tag."""


class UnsupportedVersionError(ModelFormatError):
    """Format version is not one this reader understands."""


class ChecksumError(ModelFormatError):
    """Stored CRC-32 does not match the file contents."""


class ShapeMismatchError(ModelFormatError):
    """Declared shapes disagree with the declared hyperparameters."""


class VocabularyMismatchError(ModelFormatError):
    """Stored vocabulary literals differ from the fixed alphabet."""


class WeightRangeError(ModelFormatError):
    """A stored weight is finite but lies beyond the range of the dtype
    it is loaded as (|w| > 3.4e38 for float32)."""


def save(params: ModelParams, hp: Hyperparams, path) -> None:
    """Write the model file with the fixed alphabet; byte output is
    deterministic. Each weight block's values are written from the
    array's own buffer, with the checksum kept running, so no copy of
    the weights is made."""
    shapes = expected_shapes(hp)
    for name, arr in params.arrays():
        if arr.shape != shapes[name]:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shapes[name]} for these hyperparameters")

    literals = LITERALS.encode("utf-8")
    blocks = list(params.arrays())
    with open(path, "wb") as fh:
        crc = 0

        def write(data) -> None:
            nonlocal crc
            crc = zlib.crc32(data, crc)
            fh.write(data)

        write(MAGIC + struct.pack("<I6II", VERSION, *astuple(hp), len(literals)) + literals)
        write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            encoded = name.encode("ascii")
            write(struct.pack(f"<B{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
            write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))
        fh.write(struct.pack("<I", crc))


class _Cursor:
    """Reads fields off a memoryview; take() returns views, not copies."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncatedModelError(
                f"file ends at byte {len(self.data)}, needed {self.pos + n}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load(path, dtype=np.float64) -> tuple[ModelParams, Hyperparams, Vocabulary]:
    """Read a model file back, converting each weight block once from
    its stored float64 values into an array of `dtype`. At float64 the
    weights are bitwise what save() wrote; at float32 each is rounded to
    nearest, and a finite weight beyond float32's range raises
    WeightRangeError naming its block instead of becoming inf.

    Hostile bytes raise only ModelFormatError subclasses: nothing is
    decoded strictly, and no array is built before the checksum and the
    declared shapes hold.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())

    cur = _Cursor(data)
    if cur.take(len(MAGIC)) != MAGIC:
        raise BadMagicError(f"not a model file: bad magic in {path}")
    version = cur.u32()
    if version != VERSION:
        raise UnsupportedVersionError(f"model format version {version}, reader supports {VERSION}")

    stored_hp = [cur.u32() for _ in range(6)]
    try:
        hp = Hyperparams(*stored_hp)
    except ValueError as exc:
        raise ShapeMismatchError(f"invalid stored hyperparameters: {exc}") from None
    literals = bytes(cur.take(cur.u32()))

    blocks: list[tuple[str, tuple[int, ...], memoryview]] = []
    for _ in range(cur.u32()):
        name = bytes(cur.take(cur.u8())).decode("ascii", "replace")
        shape = tuple(cur.u32() for _ in range(cur.u8()))
        blocks.append((name, shape, cur.take(math.prod(shape) * 8)))

    body_end = cur.pos
    stored = cur.u32()
    if cur.pos != len(data):
        raise TruncatedModelError(f"{len(data) - cur.pos} unexpected trailing bytes")
    if stored != zlib.crc32(data[:body_end]):
        raise ChecksumError(f"checksum mismatch in {path}")

    if literals != LITERALS.encode("utf-8"):
        raise VocabularyMismatchError(
            f"stored vocabulary {literals!r} differs from the fixed alphabet {LITERALS!r}"
        )
    shapes = expected_shapes(hp)
    names = [name for name, _, _ in blocks]
    if sorted(names) != sorted(shapes):
        raise ShapeMismatchError(f"weight blocks {sorted(names)} do not match expected {sorted(shapes)}")
    arrays = {}
    for name, shape, raw in blocks:
        if shape != shapes[name]:
            raise ShapeMismatchError(f"{name} stored as {shape}, hyperparameters imply {shapes[name]}")
        try:
            with np.errstate(over="raise"):
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(dtype)
        except FloatingPointError:
            raise WeightRangeError(f"{name} holds a weight beyond the range of {np.dtype(dtype).name}") from None

    return ModelParams(**arrays), hp, Vocabulary(LITERALS)
