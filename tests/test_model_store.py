import hashlib
import math
import os
import struct
import tracemalloc
import zlib
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from tunneldetect.model_store import (
    _FINITE_CHUNK,
    BadMagicError,
    ChecksumError,
    MAGIC,
    ModelFormatError,
    ShapeMismatchError,
    TruncatedModelError,
    UnsupportedVersionError,
    VERSION,
    WeightRangeError,
    load,
    save,
)
from tunneldetect.network import Hyperparams, ModelParams, expected_shapes, forward_batch, init_params
from tunneldetect.tokenizer import LITERALS

ONES_HP = Hyperparams(nf=1, ks=1, sl=1, d=1, l=1, hn=1)
BLOCKS = list(expected_shapes(ONES_HP))
HEADER_SIZE = len(MAGIC) + 4 + 6 * 4  # magic, version, hyperparameters


@pytest.fixture
def saved_model(tmp_path, tiny_hp):
    params = init_params(tiny_hp, seed=42)
    path = tmp_path / "model.bin"
    save(params, tiny_hp, path)
    return params, tiny_hp, path


def rewrite_with_checksum(path, body: bytes):
    """Write `body` to `path` followed by its valid CRC-32."""
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def store_weight(path, hp, block, value):
    """Overwrite the last stored value of `block` in the model file at
    `path` with `value` and fix the checksum: a well-formed file that
    save() would refuse to write."""
    shapes = expected_shapes(hp)
    offset = HEADER_SIZE + 8 * sum(math.prod(shapes[name]) for name in BLOCKS[: BLOCKS.index(block) + 1]) - 8
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<d", body, offset, value)
    rewrite_with_checksum(path, bytes(body))


def with_version(path, version):
    """Rewrite the model file at `path` to declare `version`, with a
    valid checksum."""
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<I", body, len(MAGIC), version)
    rewrite_with_checksum(path, bytes(body))


class TestRoundtrip:
    def test_weights_bitwise_equal(self, saved_model):
        params, hp, path = saved_model
        loaded, loaded_hp, vocab = load(path)
        assert loaded_hp == hp
        assert vocab.literals == LITERALS
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_forward_outputs_bitwise_equal(self, saved_model):
        params, hp, path = saved_model
        loaded, loaded_hp, _ = load(path)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 45, size=(100, hp.l))
        np.testing.assert_array_equal(
            forward_batch(params, hp, x), forward_batch(loaded, loaded_hp, x)
        )

    def test_save_is_deterministic(self, tmp_path, tiny_hp):
        params = init_params(tiny_hp, seed=3)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save(params, tiny_hp, a)
        save(params, tiny_hp, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_field_order(self, tmp_path):
        hp = Hyperparams(nf=2, ks=3, sl=1, d=5, l=7, hn=11)
        path = tmp_path / "model.bin"
        save(init_params(hp, seed=0), hp, path)
        start = len(MAGIC) + 4
        assert path.read_bytes()[start : start + 24] == struct.pack("<6I", 2, 3, 1, 5, 7, 11)

    def test_save_rejects_mismatched_shapes(self, tmp_path, tiny_hp):
        params = init_params(tiny_hp, seed=3)
        other = Hyperparams(nf=tiny_hp.nf + 1, ks=tiny_hp.ks, sl=tiny_hp.sl,
                            d=tiny_hp.d, l=tiny_hp.l, hn=tiny_hp.hn)
        with pytest.raises(ValueError, match="shape"):
            save(params, other, tmp_path / "bad.bin")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_weights(self, tmp_path, tiny_hp, value):
        params = init_params(tiny_hp, seed=3)
        params.conv_b[1] = value
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match="^conv_b holds a non-finite weight"):
            save(params, tiny_hp, path)
        assert not path.exists()


def test_version_pins_alphabet_field_order_and_layout(tmp_path):
    # The file stores neither the alphabet nor block names: VERSION stands
    # for both. Changing the alphabet, the field order or the layout
    # without bumping VERSION fails here.
    assert VERSION == 2
    assert LITERALS == "abcdefghijklmnopqrstuvwxyz0123456789-._=+/~"
    assert [f.name for f in fields(ModelParams)] == BLOCKS == [
        "embedding", "conv_w", "conv_b", "dense1_w", "dense1_b", "dense2_w", "dense2_b",
    ]
    shapes = expected_shapes(ONES_HP)
    values = np.arange(sum(math.prod(shape) for shape in shapes.values()), dtype=np.float64)
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    params = ModelParams(*(v.reshape(shape) for v, shape in zip(np.split(values, ends[:-1]), shapes.values())))
    path = tmp_path / "model.bin"
    save(params, ONES_HP, path)
    blob = path.read_bytes()
    body = MAGIC + struct.pack("<7I", 2, 1, 1, 1, 1, 1, 1) + values.astype("<f8").tobytes()
    assert blob == body + struct.pack("<I", zlib.crc32(body))
    assert len(blob) == 448
    assert hashlib.sha256(blob).hexdigest() == "df96419e968e9b5879a8b868198e8e266fc5b7dccde35de4bc1063e3a9b3488f"


class TestCorruption:
    def test_truncated_file(self, saved_model):
        _, _, path = saved_model
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedModelError):
            load(path)

    def test_flipped_checksum_byte(self, saved_model):
        _, _, path = saved_model
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load(path)

    def test_flipped_payload_byte(self, saved_model):
        _, _, path = saved_model
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError):
            load(path)

    def test_bad_magic(self, saved_model):
        _, _, path = saved_model
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load(path)

    def test_unsupported_version(self, saved_model):
        _, _, path = saved_model
        with_version(path, 99)
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_version_1_file_asks_for_retraining(self, saved_model):
        _, _, path = saved_model
        with_version(path, 1)
        with pytest.raises(UnsupportedVersionError, match="version 1, .* only version 2; retrain"):
            load(path)

    def test_declared_hyperparams_disagree_with_blocks(self, saved_model):
        _, hp, path = saved_model
        data = bytearray(path.read_bytes())
        # hn is the last of the six u32 hyperparameter fields
        hn_offset = len(MAGIC) + 4 + 5 * 4
        struct.pack_into("<I", data, hn_offset, hp.hn * 2)
        rewrite_with_checksum(path, bytes(data[:-4]))
        with pytest.raises(ShapeMismatchError):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "absent.bin")

    def test_trailing_garbage(self, saved_model):
        _, _, path = saved_model
        with open(path, "ab") as fh:
            fh.write(b"extra")
        with pytest.raises(ModelFormatError):
            load(path)

    def test_file_cut_short_after_its_size_was_taken(self, saved_model, monkeypatch):
        # the size load checks comes from fstat; a file cut short between
        # that and the reads must still fail as truncation
        _, _, path = saved_model
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], len(data), *fstat(fd)[7:])))
        with pytest.raises(TruncatedModelError, match="ended before"):
            load(path)

    def test_pipe_is_refused_before_it_is_read(self, saved_model):
        _, _, path = saved_model
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, path.read_bytes()[:4096])
            with pytest.raises(ModelFormatError, match="not a regular file"):
                load(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_every_single_bit_flip_is_a_format_error(self, tmp_path):
        params = init_params(ONES_HP, seed=1)
        path = tmp_path / "smallest.bin"
        save(params, ONES_HP, path)
        blob = path.read_bytes()
        fields = ["magic"] * len(MAGIC) + ["version"] * 4 + ["hyperparameters"] * 24
        fields += ["values"] * (8 * sum(arr.size for _, arr in params.arrays())) + ["checksum"] * 4
        assert len(fields) == len(blob) == 448
        raised = {field: Counter() for field in fields}
        for offset in range(len(blob)):
            for bit in range(8):
                corrupt = bytearray(blob)
                corrupt[offset] ^= 1 << bit
                path.write_bytes(bytes(corrupt))
                with pytest.raises(ModelFormatError) as info:
                    load(path)
                raised[fields[offset]][type(info.value)] += 1
        # A hyperparameter flip to 0, or of ks above l = 1, is invalid
        # (6 + 31 flips); one that changes the implied file size leaves
        # the size wrong and the checksum failing; a stride flip keeps
        # the size (l = ks = 1 gives one conv window at any stride).
        assert raised == {
            "magic": {BadMagicError: 64},
            "version": {UnsupportedVersionError: 32},
            "hyperparameters": {ShapeMismatchError: 37, TruncatedModelError: 124, ChecksumError: 31},
            "values": {ChecksumError: 8 * 408},
            "checksum": {ChecksumError: 32},
        }

    def test_header_implying_an_enormous_model_allocates_nothing(self, saved_model):
        _, _, path = saved_model
        body = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<6I", body, len(MAGIC) + 4, 2**32 - 1, 1, 1, 1, 1, 2**32 - 2)
        rewrite_with_checksum(path, bytes(body))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("edit", ["first-block-appended", "last-block-dropped"])
    def test_values_fill_the_implied_shapes(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        save(init_params(ONES_HP, seed=1), ONES_HP, path)
        body = path.read_bytes()[:-4]
        # the embedding block is (45, 1) values, dense2_b is one
        body = body + body[HEADER_SIZE : HEADER_SIZE + 45 * 8] if edit == "first-block-appended" else body[:-8]
        rewrite_with_checksum(path, body)
        with pytest.raises(ShapeMismatchError, match="imply"):
            load(path)

    @pytest.mark.parametrize("checksum, error", [("valid", ShapeMismatchError), ("failing", TruncatedModelError)])
    def test_wrong_size_file_is_classified_in_bounded_memory(self, tmp_path, checksum, error):
        # a smallest-model header followed by 50 MB more values than it implies
        path = tmp_path / "model.bin"
        save(init_params(ONES_HP, seed=1), ONES_HP, path)
        body = path.read_bytes()[:-4]
        crc = zlib.crc32(body)
        zeros = bytes(1 << 20)
        with open(path, "wb") as fh:
            fh.write(body)
            for _ in range(50):
                fh.write(zeros)
                crc = zlib.crc32(zeros, crc)
            fh.write(struct.pack("<I", crc if checksum == "valid" else crc ^ 1))
        tracemalloc.start()
        try:
            with pytest.raises(error):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_checksum_is_compared_before_the_weights_range(saved_model, dtype):
    _, hp, path = saved_model
    store_weight(path, hp, "conv_w", np.nan)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load(path, dtype)


@pytest.mark.parametrize("dtype, bound", [(np.float64, 1.1), (np.float32, 0.6)], ids=["float64", "float32"])
def test_load_holds_the_weights_not_the_file_beside_them(tmp_path, dtype, bound):
    hp = Hyperparams(nf=64, ks=4, sl=1, d=16, l=45, hn=256)  # 5.6 MB, almost all dense1_w
    path = tmp_path / "model.bin"
    save(init_params(hp, seed=3), hp, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load(path, dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    staging = 0 if dtype == np.float64 else 8 * _FINITE_CHUNK
    assert peak < bound * size + staging


class TestFloat32Load:
    def test_each_block_rounded_to_nearest(self, saved_model):
        params, hp, path = saved_model
        loaded, loaded_hp, _ = load(path, np.float32)
        assert loaded_hp == hp
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert b.dtype == np.float32, name
            np.testing.assert_array_equal(a.astype(np.float32), b, err_msg=name)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_finite_weight_beyond_float32_range_names_its_block(self, tmp_path, tiny_hp, block):
        params = init_params(tiny_hp, seed=4)
        getattr(params, block).reshape(-1)[-1] = -1e39
        path = tmp_path / "model.bin"
        save(params, tiny_hp, path)  # a well-formed file: its checksum holds
        wide, _, _ = load(path)
        assert getattr(wide, block).reshape(-1)[-1] == -1e39
        with pytest.raises(WeightRangeError, match=f"^{block} holds a weight beyond the range of float32"):
            load(path, np.float32)

    def test_float32_maximum_loads(self, tmp_path, tiny_hp):
        params = init_params(tiny_hp, seed=4)
        top = float(np.finfo(np.float32).max)
        params.dense1_w[0, 0], params.dense1_w[0, 1] = top, -top
        path = tmp_path / "model.bin"
        save(params, tiny_hp, path)
        loaded, _, _ = load(path, np.float32)
        assert loaded.dense1_w[0, :2].tolist() == [top, -top]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("block", BLOCKS)
def test_non_finite_weight_names_its_block(saved_model, block, value, dtype):
    _, hp, path = saved_model
    store_weight(path, hp, block, value)
    with pytest.raises(WeightRangeError, match=f"^{block} holds a non-finite weight"):
        load(path, dtype)
