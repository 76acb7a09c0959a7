"""Versioned binary persistence for trained models.

File layout (all integers little-endian):

    magic        8 bytes  b"DNSTCNN\\x01"
    version      u32      2
    hyperparams  6 x u32  (nf, ks, sl, d, l, hn)
    weights      float64 LE values of the seven ModelParams blocks, in
                 field order, each shaped as expected_shapes(hp) says
    checksum     u32 CRC-32 over all preceding bytes

The hyperparameters fix the shape of every block, so the file holds no
block names, counts or dims, and its size follows from the header. The
version stands for the fixed alphabet (tokenizer.LITERALS), the field
order and this layout; changing any of them means a new version.
Weights are stored as raw 64-bit floats so save/load round-trips are
bitwise exact at float64; load can also convert them to another dtype
(classify loads float32). Every corruption class raises its own error
type.
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
VERSION = 2

_HEADER = struct.Struct("<8sI6I")  # magic, version, hyperparameters
_CHECKSUM = struct.Struct("<I")
_FINITE_CHUNK = 1 << 16  # values per isfinite pass: a 64 KB mask, not one the size of dense1_w


class ModelFormatError(Exception):
    """Base class for model-file problems."""


class TruncatedModelError(ModelFormatError):
    """File is shorter or longer than its header implies, and its
    checksum fails: it was cut short or extended."""


class BadMagicError(ModelFormatError):
    """File does not start with the model magic tag."""


class UnsupportedVersionError(ModelFormatError):
    """Format version is not one this reader understands."""


class ChecksumError(ModelFormatError):
    """Stored CRC-32 does not match the file contents."""


class ShapeMismatchError(ModelFormatError):
    """Stored hyperparameters are invalid, or a checksummed file's size
    disagrees with the one they imply."""


class WeightRangeError(ModelFormatError):
    """A stored weight is NaN or infinite, or is finite but lies beyond
    the range of the dtype it is loaded as (|w| > 3.4e38 for float32)."""


def _all_finite(arr: np.ndarray) -> bool:
    flat = arr.reshape(-1)
    return all(np.isfinite(flat[i : i + _FINITE_CHUNK]).all() for i in range(0, flat.size, _FINITE_CHUNK))


def save(params: ModelParams, hp: Hyperparams, path) -> None:
    """Write the model file; byte output is deterministic. Each weight
    block's values are written from the array's own buffer, with the
    checksum kept running, so no copy of the weights is made. A block
    of the wrong shape or holding a non-finite weight raises ValueError
    before the file is opened."""
    shapes = expected_shapes(hp)
    for name, arr in params.arrays():
        if arr.shape != shapes[name]:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shapes[name]} for these hyperparameters")
        if not _all_finite(arr):
            raise ValueError(f"{name} holds a non-finite weight")

    with open(path, "wb") as fh:
        header = _HEADER.pack(MAGIC, VERSION, *astuple(hp))
        fh.write(header)
        crc = zlib.crc32(header)
        for _, arr in params.arrays():
            values = memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B")
            crc = zlib.crc32(values, crc)
            fh.write(values)
        fh.write(_CHECKSUM.pack(crc))


def load(path, dtype=np.float64) -> tuple[ModelParams, Hyperparams, Vocabulary]:
    """Read a model file back, converting each weight block once from
    its stored float64 values into an array of `dtype`. At float64 the
    weights are bitwise what save() wrote; at float32 each is rounded to
    nearest. A NaN or infinite weight, or a finite one beyond the range
    of `dtype`, raises WeightRangeError naming its block.

    Hostile bytes raise only ModelFormatError subclasses. The file size
    the stored hyperparameters imply and the checksum are both checked
    before any array is built, so a header claiming an enormous model
    allocates nothing. Files of any other version, version 1 included,
    raise UnsupportedVersionError.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())

    if len(data) < _HEADER.size + _CHECKSUM.size:
        raise TruncatedModelError(f"file has {len(data)} bytes, fewer than a model file's header and checksum")
    magic, version, *stored_hp = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagicError(f"not a model file: bad magic in {path}")
    if version != VERSION:
        raise UnsupportedVersionError(
            f"model format version {version}, this reader supports only version {VERSION}; "
            f"retrain the model to write a version {VERSION} file"
        )
    try:
        hp = Hyperparams(*stored_hp)
    except ValueError as exc:
        raise ShapeMismatchError(f"invalid stored hyperparameters: {exc}") from None

    shapes = expected_shapes(hp)
    size = _HEADER.size + 8 * sum(math.prod(shape) for shape in shapes.values()) + _CHECKSUM.size
    checksum_holds = _CHECKSUM.unpack_from(data, len(data) - _CHECKSUM.size)[0] == zlib.crc32(data[:-_CHECKSUM.size])
    if len(data) != size:
        if checksum_holds:
            raise ShapeMismatchError(f"file has {len(data)} bytes, its hyperparameters {hp} imply {size}")
        raise TruncatedModelError(f"file has {len(data)} bytes, its header implies {size}")
    if not checksum_holds:
        raise ChecksumError(f"checksum mismatch in {path}")

    arrays = {}
    offset = _HEADER.size
    for name, shape in shapes.items():
        stored = np.frombuffer(data, dtype="<f8", count=math.prod(shape), offset=offset).reshape(shape)
        offset += stored.nbytes
        with np.errstate(over="ignore"):
            arrays[name] = stored.astype(dtype)
        if not _all_finite(arrays[name]):
            fault = f"a weight beyond the range of {np.dtype(dtype).name}" if _all_finite(stored) else "a non-finite weight"
            raise WeightRangeError(f"{name} holds {fault}")

    return ModelParams(**arrays), hp, Vocabulary(LITERALS)
