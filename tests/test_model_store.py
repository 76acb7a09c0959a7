import struct
import zlib

import numpy as np
import pytest

from tunneldetect.model_store import (
    BadMagicError,
    ChecksumError,
    MAGIC,
    ModelFormatError,
    ShapeMismatchError,
    TruncatedModelError,
    UnsupportedVersionError,
    VocabularyMismatchError,
    WeightRangeError,
    load,
    save,
)
from tunneldetect.network import Hyperparams, expected_shapes, forward_batch, init_params
from tunneldetect.tokenizer import LITERALS


@pytest.fixture
def saved_model(tmp_path, tiny_hp):
    params = init_params(tiny_hp, seed=42)
    path = tmp_path / "model.bin"
    save(params, tiny_hp, path)
    return params, tiny_hp, path


LITERALS_OFFSET = len(MAGIC) + 4 + 6 * 4 + 4  # magic, version, hyperparameters, literal length


def _rewrite_with_checksum(path, body: bytes):
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


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
        data = bytearray(path.read_bytes())
        # version field sits right after the magic
        data[len(MAGIC)] = 99
        _rewrite_with_checksum(path, bytes(data[:-4]))
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_declared_hyperparams_disagree_with_blocks(self, saved_model):
        _, hp, path = saved_model
        data = bytearray(path.read_bytes())
        # hn is the last of the six u32 hyperparameter fields
        hn_offset = len(MAGIC) + 4 + 5 * 4
        struct.pack_into("<I", data, hn_offset, hp.hn * 2)
        _rewrite_with_checksum(path, bytes(data[:-4]))
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

    def test_every_single_bit_flip_is_a_format_error(self, tmp_path):
        hp = Hyperparams(nf=1, ks=1, sl=1, d=1, l=1, hn=1)
        params = init_params(hp, seed=1)
        path = tmp_path / "smallest.bin"
        save(params, hp, path)
        blob = path.read_bytes()
        # the header field under each byte; "size" is every length, count,
        # ndim and dims field
        fields = ["magic"] * len(MAGIC) + ["version"] * 4 + ["hyperparameters"] * 24
        fields += ["size"] * 4 + ["literals"] * len(LITERALS) + ["size"] * 4
        for name, arr in params.arrays():
            fields += ["size"] + ["block name"] * len(name) + ["size"] * (1 + 4 * arr.ndim)
            fields += ["values"] * (8 * arr.size)
        fields += ["checksum"] * 4
        assert len(fields) == len(blob)
        raised = {field: set() for field in fields}
        for offset in range(len(blob)):
            for bit in range(8):
                corrupt = bytearray(blob)
                corrupt[offset] ^= 1 << bit
                path.write_bytes(bytes(corrupt))
                with pytest.raises(ModelFormatError) as info:
                    load(path)
                raised[fields[offset]].add(type(info.value))
        # a damaged size field misplaces every later field, so the bytes
        # can run out (truncation) before the checksum is compared
        assert raised == {
            "magic": {BadMagicError},
            "version": {UnsupportedVersionError},
            "hyperparameters": {ShapeMismatchError, ChecksumError},
            "size": {TruncatedModelError, ChecksumError},
            "literals": {ChecksumError},
            "block name": {ChecksumError},
            "values": {ChecksumError},
            "checksum": {ChecksumError},
        }

    def test_overflowing_dims_report_truncation(self, saved_model):
        _, _, path = saved_model
        data = bytearray(path.read_bytes())
        literals = LITERALS.encode("utf-8")
        # first block: u32 block count, u8 name length, "embedding", u8 ndim, dims
        dims_offset = LITERALS_OFFSET + len(literals) + 4 + 1 + len(b"embedding") + 1
        assert data[dims_offset - 1] == 2
        struct.pack_into("<2I", data, dims_offset, 0xFFFFFFFF, 0xFFFFFFFF)
        _rewrite_with_checksum(path, bytes(data[:-4]))
        with pytest.raises(TruncatedModelError):
            load(path)

    @pytest.mark.parametrize("edit", ["repeated-first-block", "last-block-dropped"])
    def test_block_names_must_be_the_expected_seven(self, tmp_path, edit):
        hp = Hyperparams(nf=1, ks=1, sl=1, d=1, l=1, hn=1)
        path = tmp_path / "model.bin"
        save(init_params(hp, seed=1), hp, path)
        body = path.read_bytes()[:-4]
        count_offset = LITERALS_OFFSET + len(LITERALS.encode("utf-8"))
        assert struct.unpack_from("<I", body, count_offset) == (7,)
        blocks = body[count_offset + 4 :]
        # the embedding block: name, ndim 2, dims (45, 1), 45 values
        first = 1 + len(b"embedding") + 1 + 2 * 4 + 45 * 8
        assert blocks[1 : 1 + len(b"embedding")] == b"embedding"
        # dense2_b: name, ndim 1, dims (1,), one value
        last = 1 + len(b"dense2_b") + 1 + 4 + 8
        count, blocks = (8, blocks + blocks[:first]) if edit == "repeated-first-block" else (6, blocks[:-last])
        _rewrite_with_checksum(path, body[:count_offset] + struct.pack("<I", count) + blocks)
        with pytest.raises(ShapeMismatchError, match="weight blocks"):
            load(path)

    def test_foreign_vocabulary_rejected(self, saved_model):
        _, _, path = saved_model
        data = bytearray(path.read_bytes())
        literals = LITERALS.encode("utf-8")
        assert data[LITERALS_OFFSET : LITERALS_OFFSET + len(literals)] == literals
        data[LITERALS_OFFSET : LITERALS_OFFSET + len(literals)] = literals[::-1]
        _rewrite_with_checksum(path, bytes(data[:-4]))
        with pytest.raises(VocabularyMismatchError):
            load(path)


class TestFloat32Load:
    def test_each_block_rounded_to_nearest(self, saved_model):
        params, hp, path = saved_model
        loaded, loaded_hp, _ = load(path, np.float32)
        assert loaded_hp == hp
        for (name, a), (_, b) in zip(params.arrays(), loaded.arrays()):
            assert b.dtype == np.float32, name
            np.testing.assert_array_equal(a.astype(np.float32), b, err_msg=name)

    @pytest.mark.parametrize("block", list(expected_shapes(Hyperparams(1, 1, 1, 1, 1, 1))))
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
