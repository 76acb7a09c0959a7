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
(evaluate and classify load float32). Every corruption class raises its
own error type.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import zlib
from dataclasses import astuple

import numpy as np

from .network import Hyperparams, ModelParams, count_parameters, expected_shapes
from .tokenizer import LITERALS, Vocabulary

MAGIC = b"DNSTCNN\x01"
VERSION = 2

_HEADER = struct.Struct("<8sI6I")  # magic, version, hyperparameters
_CHECKSUM = struct.Struct("<I")
_FINITE_CHUNK = 1 << 16  # values per isfinite pass and per read in load: a 64 KB mask, not one the size of dense1_w


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

    Hostile bytes raise only ModelFormatError subclasses, checked in
    this order: the header, the file size the stored hyperparameters
    imply, the checksum, then the weights' range. The size is checked
    before any weight is allocated, so a header claiming an enormous
    model allocates none; a file of the wrong size is passed through
    the checksum one _FINITE_CHUNK-value piece at a time to tell a
    ShapeMismatchError from a TruncatedModelError.
    Each block is then read straight into its array (through one
    _FINITE_CHUNK-value staging buffer when `dtype` is not the stored
    little-endian float64), with the checksum kept running, so the file
    bytes are never held beside the weights; the checksum is verified
    before load returns. A pipe or other file without a size raises
    ModelFormatError. Files of any other version, version 1 included,
    raise UnsupportedVersionError.
    """
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise ModelFormatError(f"{path} is not a regular file, so its size cannot be checked before it is read")
        file_size = status.st_size
        if file_size < _HEADER.size + _CHECKSUM.size:
            raise TruncatedModelError(f"file has {file_size} bytes, fewer than a model file's header and checksum")
        header = _read_exactly(fh, bytearray(_HEADER.size))
        magic, version, *stored_hp = _HEADER.unpack(header)
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

        size = _HEADER.size + 8 * count_parameters(hp) + _CHECKSUM.size
        crc = zlib.crc32(header)
        if file_size != size:
            chunk = bytearray(8 * _FINITE_CHUNK)
            for left in range(file_size - _HEADER.size - _CHECKSUM.size, 0, -len(chunk)):
                crc = zlib.crc32(_read_exactly(fh, memoryview(chunk)[:left]), crc)
            if _CHECKSUM.unpack(_read_exactly(fh, bytearray(_CHECKSUM.size)))[0] == crc:
                raise ShapeMismatchError(f"file has {file_size} bytes, its hyperparameters {hp} imply {size}")
            raise TruncatedModelError(f"file has {file_size} bytes, its header implies {size}")

        direct = np.dtype(dtype) == np.dtype("<f8")
        staging = None if direct else np.empty(_FINITE_CHUNK, "<f8")
        arrays, fault = {}, None
        for name, shape in expected_shapes(hp).items():
            flat = np.empty(math.prod(shape), dtype)
            for i in range(0, flat.size, _FINITE_CHUNK):
                dest = flat[i : i + _FINITE_CHUNK]
                stored = dest if direct else staging[: dest.size]
                crc = zlib.crc32(_read_exactly(fh, memoryview(stored).cast("B")), crc)
                if not direct:
                    with np.errstate(over="ignore"):
                        dest[...] = stored
                if fault is None and not np.isfinite(dest).all():
                    beyond = not direct and np.isfinite(stored).all()
                    fault = f"{name} holds " + (
                        f"a weight beyond the range of {np.dtype(dtype).name}" if beyond else "a non-finite weight"
                    )
            arrays[name] = flat.reshape(shape)
        if _CHECKSUM.unpack(_read_exactly(fh, bytearray(_CHECKSUM.size)))[0] != crc:
            raise ChecksumError(f"checksum mismatch in {path}")
    if fault is not None:
        raise WeightRangeError(fault)

    return ModelParams(**arrays), hp, Vocabulary(LITERALS)


def _read_exactly(fh, buf):
    """Fill `buf` from `fh` and return it; a short read means the file
    shrank after its size was taken."""
    if fh.readinto(buf) != len(buf):
        raise TruncatedModelError(f"{fh.name} ended before the size its header implies")
    return buf
