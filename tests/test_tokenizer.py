import numpy as np
import pytest

from tunneldetect.tokenizer import (
    LITERALS,
    OOV_IDX,
    PAD_IDX,
    VOCAB_SIZE,
    encode_batch,
    encode_domain,
)


def _index(ch: str) -> int:
    return int(encode_domain(ch, 1)[0])


class TestVocabulary:
    def test_size_is_45(self):
        assert VOCAB_SIZE == 2 + len(LITERALS) == 45

    def test_indices_are_a_bijection(self):
        indices = encode_domain(LITERALS, len(LITERALS)).tolist()
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


class TestEncodeDomain:
    def test_basic(self):
        assert encode_domain("abc", 5).tolist() == [2, 3, 4, 0, 0]

    def test_empty_string_pads_fully(self):
        assert encode_domain("", 3).tolist() == [0, 0, 0]

    def test_case_fold_and_oov(self):
        assert encode_domain("A§c", 4).tolist() == [2, 1, 4, 0]

    def test_truncation_keeps_leftmost(self):
        full = encode_domain("abcdefgh", 8)
        assert encode_domain("abcdefgh", 3).tolist() == full.tolist()[:3]

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            encode_domain("abc", 0)

    def test_output_length_always_l(self):
        rng = np.random.default_rng(1)
        pool = "abcXYZ019.-_=+/~§ü"
        for _ in range(300):
            n = int(rng.integers(0, 30))
            s = "".join(rng.choice(list(pool), size=n))
            length = int(rng.integers(1, 64))
            assert encode_domain(s, length).shape == (length,)

    def test_prefix_determinism(self):
        rng = np.random.default_rng(2)
        pool = "abcdefghij0123.-"
        for _ in range(200):
            length = int(rng.integers(1, 12))
            s = "".join(rng.choice(list(pool), size=int(rng.integers(length, 40))))
            suffix = "".join(rng.choice(list(pool), size=5))
            assert encode_domain(s, length).tolist() == encode_domain(s + suffix, length).tolist()

    def test_trailing_pads_only(self):
        rng = np.random.default_rng(3)
        pool = "abz01~ §A"
        for _ in range(300):
            s = "".join(rng.choice(list(pool), size=int(rng.integers(0, 20))))
            seq = encode_domain(s, 16)
            nonpad = np.flatnonzero(seq != PAD_IDX)
            if nonpad.size:
                assert seq[: nonpad[-1] + 1].min() > PAD_IDX


def test_encode_batch_matches_single():
    names = ["example.com", "A§c", "", "x" * 80]
    batch = encode_batch(names, 20)
    assert batch.shape == (4, 20)
    for row, name in zip(batch, names):
        assert row.tolist() == encode_domain(name, 20).tolist()
