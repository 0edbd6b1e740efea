"""Braid-word representation, parsing, free reduction, exponent sums."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from braidlab import (
    BraidWord,
    WordParseError,
    braid_equal,
    commutes,
    exponent_sum,
    half_twist,
    parse_braid,
    random_braid_word,
)
import random


def braid_words(max_runs=12, strands=3):
    run = st.tuples(
        st.integers(1, strands - 1),
        st.integers(-4, 4).filter(lambda e: e != 0),
    )
    return st.lists(run, max_size=max_runs).map(
        lambda runs: BraidWord(strands, tuple(runs))
    )


class TestParsing:
    def test_verbose_grammar(self):
        assert parse_braid("s1 s2^-1").letters == ((1, 1), (2, -1))

    def test_compact_alias(self):
        assert parse_braid("aB").letters == ((1, 1), (2, -1))
        assert parse_braid("abAB").letters == ((1, 1), (2, 1), (1, -1), (2, -1))

    def test_index_out_of_range(self):
        with pytest.raises(WordParseError) as err:
            parse_braid("s3", strands=3)
        assert err.value.offset == 0
        parse_braid("s3", strands=4)  # fine with more strands

    @pytest.mark.parametrize("text", ["", "a", "s1", "s1^x"])
    def test_invalid_strand_count_before_text(self, text):
        # One error for an invalid bound, whatever the text.
        with pytest.raises(ValueError, match=r"^strand count must be at least 2, got 1$"):
            parse_braid(text, 1)

    def test_offsets_on_malformed_tokens(self):
        with pytest.raises(WordParseError) as err:
            parse_braid("s1 s2^x")
        assert err.value.offset == 3
        with pytest.raises(WordParseError) as err:
            parse_braid("s1 t2")
        assert err.value.offset == 3

    def test_zero_not_in_grammar(self):
        with pytest.raises(WordParseError):
            parse_braid("s1^0")
        with pytest.raises(WordParseError):
            parse_braid("s0")
        with pytest.raises(WordParseError):
            parse_braid("s01")

    def test_empty_and_whitespace(self):
        assert parse_braid("").is_identity()
        assert parse_braid("   ").is_identity()
        assert parse_braid(" a  B ").letters == ((1, 1), (2, -1))

    def test_text_round_trip(self):
        word = parse_braid("s1^3 s2^-2 s1")
        assert parse_braid(word.to_text()) == word
        assert parse_braid("aaaBBa") == word


class TestReduction:
    def test_cancellation(self):
        assert BraidWord(3, ((1, 1), (1, -1))).is_identity()

    def test_run_merge(self):
        assert BraidWord(3, ((1, 1), (1, 1))).letters == ((1, 2),)

    def test_already_normalized(self):
        word = BraidWord(3, ((1, 1), (2, 1), (1, -1)))
        assert word.letters == ((1, 1), (2, 1), (1, -1))

    def test_cascading_cancellation(self):
        word = BraidWord(3, ((1, 1), (2, 1), (2, -1), (1, -1)))
        assert word.is_identity()

    @given(braid_words())
    def test_idempotent(self, word):
        assert BraidWord(word.strands, word.letters) == word


class TestProductInverse:
    def test_product_with_inverse_is_identity(self):
        word = parse_braid("s1 s2^-3 s1^2")
        assert (word * word.inverse()).is_identity()

    def test_inverse_reverses_and_negates(self):
        assert parse_braid("s1 s2^-1").inverse() == parse_braid("s2 s1^-1")

    def test_cancellation_across_boundary(self):
        assert parse_braid("s1") * parse_braid("s1^-1 s2") == parse_braid("s2")

    def test_strand_mismatch(self):
        with pytest.raises(ValueError, match=r"^strand count mismatch: 3 != 4$"):
            BraidWord(3) * BraidWord(4)

    @given(braid_words(), braid_words())
    def test_exponent_sum_homomorphism(self, u, v):
        assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)

    @given(braid_words())
    def test_inverse_involution(self, word):
        assert word.inverse().inverse() == word
        assert exponent_sum(word.inverse()) == -exponent_sum(word)

    @given(braid_words(), st.integers(-3, 3))
    def test_power_matches_repeated_product(self, word, k):
        expected = BraidWord(3)
        step = word if k >= 0 else word.inverse()
        for _ in range(abs(k)):
            expected = expected * step
        assert word**k == expected


class TestExponentSum:
    def test_total(self):
        assert exponent_sum(parse_braid("s1 s2^-1")) == 0

    def test_full_twist(self):
        assert exponent_sum(half_twist(2)) == 6

    def test_case1_zero_sum(self):
        # Δ^{2p} σ2^{-6p} lies in the commutator subgroup (p = 1).
        word = half_twist(2) * BraidWord(3, ((2, -6),))
        assert exponent_sum(word) == 0


class TestHalfTwist:
    def test_letters(self):
        assert half_twist().letters == ((1, 1), (2, 1), (1, 1))

    @pytest.mark.parametrize("p", [-3, -1, 0, 1, 2, 5])
    def test_exponent_sum_is_three_p(self, p):
        assert exponent_sum(half_twist(p)) == 3 * p

    def test_negative_power_is_inverse(self):
        assert half_twist(-2) == half_twist(2).inverse()

    def test_full_twist_is_central(self):
        # Δ^2 generates the center: check against the Burau oracle on samples.
        rng = random.Random(2024)
        delta2 = half_twist(2)
        for _ in range(25):
            word = random_braid_word(rng, 30)
            assert commutes(delta2, word)
            assert braid_equal(delta2 * word, word * delta2)
