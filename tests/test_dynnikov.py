"""Dynnikov coordinates against a one-letter-at-a-time reference, and Dynnikov
signs against handle reduction and the Burau oracle."""

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
    commutes,
    dehornoy_sign,
    dynnikov_coordinates,
    half_twist,
    handle_reduce,
    parse_braid,
)


def reference_coordinates(word: BraidWord) -> tuple[int, ...]:
    """One update per letter, with a separate update body for σ_i^-1."""
    coords = [0, 1] * word.strands
    for index, sign in word.single_letters():
        k = 2 * (index - 1)
        x1, y1, x2, y2 = coords[k : k + 4]
        if sign > 0:
            z = x1 - min(y1, 0) - x2 + max(y2, 0)
            coords[k : k + 4] = (
                x1 + max(y1, 0) + max(max(y2, 0) - z, 0),
                y2 - max(z, 0),
                x2 + min(y2, 0) + min(min(y1, 0) + z, 0),
                y1 + max(z, 0),
            )
        else:
            z = x1 + min(y1, 0) - x2 - max(y2, 0)
            coords[k : k + 4] = (
                x1 - max(y1, 0) - max(max(y2, 0) + z, 0),
                y2 + min(z, 0),
                x2 - min(y2, 0) - min(min(y1, 0) - z, 0),
                y1 - min(z, 0),
            )
    return tuple(coords)


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

    @pytest.mark.parametrize("text, strands", [("", 3), ("s2 s1^-1", 3), ("s5 s1^-1 s3", 6)])
    def test_untouched_strands_stay_at_e(self, text, strands):
        wide = dynnikov_coordinates(parse_braid(text, strands + 7))
        assert wide == dynnikov_coordinates(parse_braid(text, strands)) + (0, 1) * 7

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


def random_runs(rng: random.Random, strands: int, runs: int) -> BraidWord:
    """Runs with exponents log-uniform up to 10^3, so that long runs are common."""
    letters = [
        (rng.randint(1, strands - 1), rng.choice((1, -1)) * int(10 ** rng.uniform(0, 3)))
        for _ in range(runs)
    ]
    return BraidWord(strands, tuple(letters))


class TestRuns:
    """Runs are applied in a few steps and jumps; the answer must stay that of
    one update per letter."""

    @pytest.mark.parametrize("strands", [2, 3, 4, 5, 6])
    def test_random_words(self, strands):
        rng = random.Random(1002 + strands)
        for _ in range(150):
            word = random_runs(rng, strands, rng.randint(1, 8))
            assert dynnikov_coordinates(word) == reference_coordinates(word), word

    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_long_runs_inside_conjugates(self, strands):
        rng = random.Random(2012 + strands)
        for _ in range(100):
            w = random_runs(rng, strands, rng.randint(0, 4))
            run = BraidWord(strands, ((rng.randint(1, strands - 1), rng.randint(-1000, 1000) or 1),))
            word = w * run * w.inverse()
            assert dynnikov_coordinates(word) == reference_coordinates(word), word

    @pytest.mark.parametrize("strands", [4, 5, 6])
    def test_runs_walked_back_across_commuting_letters(self, strands):
        # σ_i^k u σ_i^-m with u far from σ_i: the second run starts on the
        # stretch where each σ_i^-1 moves the y's back towards 0.
        rng = random.Random(2024 + strands)
        for _ in range(100):
            i = rng.choice((1, strands - 1))
            far = [j for j in range(1, strands) if abs(j - i) >= 2]
            u = [(rng.choice(far), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
            k, m = rng.randint(1, 1000), rng.randint(1, 1000)
            sign = rng.choice((1, -1))
            word = BraidWord(strands, ((i, sign * k), *u, (i, -sign * m)))
            assert dynnikov_coordinates(word) == reference_coordinates(word), word

    @pytest.mark.parametrize("strands", [2, 3, 4, 5, 6])
    def test_mirror_negates_every_x(self, strands):
        rng = random.Random(3000 + strands)
        for _ in range(50):
            word = random_runs(rng, strands, rng.randint(1, 8))
            mirror = BraidWord(strands, tuple((i, -e) for i, e in word.letters))
            coords, mirrored = dynnikov_coordinates(word), dynnikov_coordinates(mirror)
            assert mirrored[0::2] == tuple(-x for x in coords[0::2]), word
            assert mirrored[1::2] == coords[1::2], word


LONG_RUNS = [
    ("s1^{k} s2 s1^-{k}", 3, (POSITIVE, 1)),
    ("s1^-{k} s2 s1^{k}", 3, (POSITIVE, 1)),
    ("s1^{k} s3 s1^-{k}", 4, (POSITIVE, 3)),
    ("s1^{k} s3^-1 s1^-{k_1}", 4, (POSITIVE, 1)),
    ("s2^-{k} s1 s3^-5 s2^{k} s1^-1", 4, (POSITIVE, 1)),
]


class TestLongExponents:
    """Exponents of 10^9 cost a few updates, not 10^9 of them."""

    @pytest.mark.parametrize("template, strands, expected", LONG_RUNS)
    def test_sign(self, template, strands, expected):
        word = parse_braid(template.format(k=10**9, k_1=10**9 - 1), strands)
        start = time.perf_counter()
        assert dynnikov_sign(word) == expected
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("template, strands, expected", LONG_RUNS)
    def test_same_sign_by_handle_reduction_at_exponent_300(self, template, strands, expected):
        word = parse_braid(template.format(k=300, k_1=299), strands)
        assert dynnikov_sign(word) == handle_sign(word) == expected

    def test_commutes(self):
        start = time.perf_counter()
        far = parse_braid("s1^1000000000 s3^-1000000000", 5)
        assert commutes(far, parse_braid("s4^-1000000000 s1^1000000000", 5)) is False
        assert commutes(far, parse_braid("s3^999999999 s1^-1000000001", 5)) is True
        assert time.perf_counter() - start < 0.05
