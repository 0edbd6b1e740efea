"""Dynnikov signs against handle reduction and the Burau oracle."""

from __future__ import annotations

import random
import time

import pytest

from braidlab import (
    NEGATIVE,
    POSITIVE,
    TRIVIAL,
    BraidWord,
    braid_equal,
    dehornoy_sign,
    dynnikov_coordinates,
    half_twist,
    handle_reduce,
    parse_braid,
)


def handle_sign(word: BraidWord) -> tuple[str, int | None]:
    """Sign read off the handle-free form, independently of Dynnikov."""
    reduced = handle_reduce(word)
    if reduced.is_identity():
        return TRIVIAL, None
    main = min(index for index, _ in reduced.letters)
    (positive,) = {e > 0 for i, e in reduced.letters if i == main}
    return (POSITIVE if positive else NEGATIVE), main


def dynnikov_sign(word: BraidWord) -> tuple[str, int | None]:
    verdict = dehornoy_sign(word)
    return verdict.kind, verdict.main_index


def random_word(rng: random.Random, strands: int, max_length: int) -> BraidWord:
    """A random word, made trivial half of the time by conjugating a relator."""
    letters = [
        (rng.randint(1, strands - 1), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_length))
    ]
    word = BraidWord(strands, tuple(letters))
    if rng.random() < 0.5:
        i = rng.randint(1, strands - 2)
        relator = BraidWord(
            strands, ((i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1))
        )
        word = word * relator * word.inverse()
    return word


def adversarial_words(k: int) -> list[BraidWord]:
    conjugate = half_twist(-2 * k) * BraidWord(3, ((1, 1),)) * half_twist(2 * k)
    commutator = BraidWord(3, ((1, -k), (2, k), (1, k), (2, -k))) ** 4
    return [conjugate, conjugate.inverse(), commutator, commutator.inverse()]


class TestCoordinates:
    def test_identity_is_e(self):
        assert dynnikov_coordinates(BraidWord(4)) == (0, 1, 0, 1, 0, 1, 0, 1)

    @pytest.mark.parametrize(
        "left, right, strands",
        [
            ("s1 s2 s1", "s2 s1 s2", 3),
            ("s2^-1 s3 s2", "s3 s2 s3^-1", 4),
            ("s1 s3^-2", "s3^-2 s1", 4),
            ("s2 s4 s3 s2", "s4 s3 s2 s3", 5),
        ],
    )
    def test_braid_relations_preserved(self, left, right, strands):
        assert dynnikov_coordinates(parse_braid(left, strands)) == dynnikov_coordinates(
            parse_braid(right, strands)
        )


class TestThreeWay:
    def test_random_three_strands(self):
        rng = random.Random(2002)
        identity = BraidWord(3)
        for _ in range(400):
            word = random_word(rng, 3, 40)
            assert dynnikov_sign(word) == handle_sign(word), word
            assert dehornoy_sign(word).is_trivial == braid_equal(word, identity), word

    @pytest.mark.parametrize("strands", [4, 5])
    def test_random_more_strands(self, strands):
        rng = random.Random(2008 + strands)
        for _ in range(300):
            word = random_word(rng, strands, 30)
            assert dynnikov_sign(word) == handle_sign(word), word

    def test_adversarial_families(self):
        for k in range(1, 41):
            for word in adversarial_words(k):
                assert dynnikov_sign(word) == handle_sign(word), (k, word)


class TestShortCircuit:
    @pytest.mark.parametrize(
        "word, expected",
        [
            (BraidWord(3, ((1, 200_000),)), (POSITIVE, 1)),
            (BraidWord(3, ((2, -200_000), (1, 1), (2, 200_000))), (POSITIVE, 1)),
        ],
    )
    def test_sigma_definite_words_skip_the_coordinates(self, word, expected):
        start = time.perf_counter()
        assert dynnikov_sign(word) == expected
        assert time.perf_counter() - start < 0.05
