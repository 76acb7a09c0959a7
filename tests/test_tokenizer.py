import numpy as np
import pytest

from tunneldetect.tokenizer import (
    LITERALS,
    OOV_IDX,
    PAD_IDX,
    VOCAB_SIZE,
    encode_batch,
)


def _index(ch: str) -> int:
    return int(encode_batch([ch], 1)[0, 0])


def _encode(name: str, length: int) -> list[int]:
    return encode_batch([name], length)[0].tolist()


class TestVocabulary:
    def test_size_is_45(self):
        assert VOCAB_SIZE == 2 + len(LITERALS) == 45

    def test_indices_are_a_bijection(self):
        indices = _encode(LITERALS, len(LITERALS))
        assert len(set(indices)) == len(LITERALS)
        assert {PAD_IDX, OOV_IDX, *indices} == set(range(45))

    def test_pad_and_oov_have_no_literal(self):
        assert PAD_IDX != OOV_IDX
        assert {PAD_IDX, OOV_IDX}.isdisjoint(_index(ch) for ch in LITERALS)

    def test_first_and_last_literals(self):
        assert _index("a") == 2
        assert _index("~") == 44

    def test_expected_character_classes(self):
        for ch in "abcdefghijklmnopqrstuvwxyz0123456789-._=+/~":
            assert _index(ch) != OOV_IDX
            assert _index(ch.upper()) == _index(ch)
        for ch in " !,:§\t":
            assert _index(ch) == OOV_IDX

    def test_byte_table_padding_byte_is_not_pad(self):
        # U+00FF is one character outside the alphabet; the byte 0xFF pads
        # rows, but no character of a name encodes to it
        assert _index("ÿ") == OOV_IDX
        assert _encode("aÿb", 5) == [2, OOV_IDX, 3, PAD_IDX, PAD_IDX]

    @pytest.mark.parametrize("ch", ["\x00", "?", "\ud800", "\udfff", "\U0001f600"],
                             ids=["nul", "question-mark", "lone-high-surrogate", "lone-low-surrogate", "astral"])
    def test_non_literals_are_one_oov(self, ch):
        assert _encode(f"a{ch}b", 4) == [2, OOV_IDX, 3, PAD_IDX]


class TestEncodeDomain:
    """A single domain name through encode_batch, as a one-row batch."""

    def test_basic(self):
        assert _encode("abc", 5) == [2, 3, 4, 0, 0]

    def test_empty_string_pads_fully(self):
        assert _encode("", 3) == [0, 0, 0]

    def test_case_fold_and_oov(self):
        assert _encode("A§c", 4) == [2, 1, 4, 0]
        # KELVIN SIGN lowercases to the literal 'k'
        assert _encode("\u212a", 2) == [_index("k"), PAD_IDX]

    def test_truncation_keeps_leftmost(self):
        full = _encode("abcdefgh", 8)
        assert _encode("abcdefgh", 3) == full[:3]

    def test_lowercase_expansion_is_cut_to_length(self):
        # 'İ' lowercases to 'i' plus U+0307 COMBINING DOT ABOVE: two
        # characters, the second OOV, cut like any other at `length`
        assert _encode("İİ", 3) == [10, OOV_IDX, 10]
        assert _encode("İstanbul.tr", 2) == [10, OOV_IDX]
        assert _encode("aİ", 2) == [2, 10]

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            encode_batch(["abc"], 0)

    def test_empty_batch(self):
        assert encode_batch([], 4).shape == (0, 4)
        with pytest.raises(ValueError):
            encode_batch([], 0)

    def test_output_length_always_l(self):
        rng = np.random.default_rng(1)
        pool = "abcXYZ019.-_=+/~§ü"
        for _ in range(300):
            n = int(rng.integers(0, 30))
            s = "".join(rng.choice(list(pool), size=n))
            length = int(rng.integers(1, 64))
            out = encode_batch([s], length)
            assert out.shape == (1, length) and out.dtype == np.int64

    def test_prefix_determinism(self):
        rng = np.random.default_rng(2)
        pool = "abcdefghij0123.-"
        for _ in range(200):
            length = int(rng.integers(1, 12))
            s = "".join(rng.choice(list(pool), size=int(rng.integers(length, 40))))
            suffix = "".join(rng.choice(list(pool), size=5))
            assert _encode(s, length) == _encode(s + suffix, length)

    def test_trailing_pads_only(self):
        rng = np.random.default_rng(3)
        pool = "abz01~ §A"
        for _ in range(300):
            s = "".join(rng.choice(list(pool), size=int(rng.integers(0, 20))))
            seq = encode_batch([s], 16)[0]
            nonpad = np.flatnonzero(seq != PAD_IDX)
            if nonpad.size:
                assert seq[: nonpad[-1] + 1].min() > PAD_IDX


def test_encode_batch_matches_single():
    names = ["example.com", "A§c", "", "x" * 80, "ÿ.com", "İstanbul.tr"]
    batch = encode_batch(names, 20)
    assert batch.shape == (6, 20)
    for row, name in zip(batch, names):
        assert row.tolist() == _encode(name, 20)
