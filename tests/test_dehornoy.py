"""Handle reduction and the Dehornoy order: soundness, sign, comparison."""

from __future__ import annotations

import math
import random
import re
import tracemalloc

import pytest

from braidlab import (
    EQUAL,
    GREATER,
    LESS,
    NEGATIVE,
    POSITIVE,
    TRIVIAL,
    BraidWord,
    BudgetExceededError,
    OrderVerdict,
    braid_compare,
    braid_equal,
    cofinal_bound,
    commutes,
    dehornoy_sign,
    half_twist,
    handle_reduce,
    handle_reduce_trace,
    parse_braid,
    random_braid_word,
)
from braidlab.dynnikov import run_coordinates


def lowest_index_signs(word: BraidWord) -> set[bool]:
    main = min(index for index, _ in word.letters)
    return {e > 0 for i, e in word.letters if i == main}


class TestHandleReduce:
    def test_single_handle(self):
        # Cross-checked against the Burau oracle and the braid relation:
        # σ1 σ2 σ1^-1 = σ2^-1 (σ1 σ2 σ1) σ1^-1 σ2^... reduces to σ2^-1 σ1 σ2.
        word = parse_braid("s1 s2 s1^-1")
        reduced = handle_reduce(word)
        assert reduced == parse_braid("s2^-1 s1 s2")
        assert braid_equal(word, reduced)

    def test_free_reduction_degenerate_handle(self):
        assert handle_reduce(BraidWord(3, ((1, 1), (1, -1)))).is_identity()

    def test_no_handle_left_untouched(self):
        word = parse_braid("s1^2 s2^-2")
        assert handle_reduce(word) == word

    def test_soundness_on_samples(self):
        rng = random.Random(101)
        for _ in range(200):
            word = random_braid_word(rng, 120)
            assert braid_equal(word, handle_reduce(word))

    def test_exhaustive_short_words(self):
        import itertools

        letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
        for length in range(7):
            for combo in itertools.product(letters, repeat=length):
                word = BraidWord(3, combo)
                reduced = handle_reduce(word)
                assert braid_equal(word, reduced)
                if not reduced.is_identity():
                    assert len(lowest_index_signs(reduced)) == 1

    def test_sigma_definite_output(self):
        rng = random.Random(102)
        for _ in range(200):
            reduced = handle_reduce(random_braid_word(rng, 100))
            if not reduced.is_identity():
                assert len(lowest_index_signs(reduced)) == 1

    def test_handle_free_output(self):
        # No index occurs with both signs separated only by higher indices.
        rng = random.Random(103)
        for _ in range(100):
            reduced = handle_reduce(random_braid_word(rng, 80))
            runs = reduced.letters
            for q in range(1, len(runs)):
                for p in range(q - 1, -1, -1):
                    if runs[p][0] > runs[q][0]:
                        continue
                    if runs[p][0] == runs[q][0]:
                        assert (runs[p][1] > 0) == (runs[q][1] > 0)
                    break

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError):
            handle_reduce(parse_braid("s1 s2 s1^-1"), budget=0)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("BRAIDLAB_BUDGET", "0")
        with pytest.raises(BudgetExceededError):
            handle_reduce(parse_braid("s1 s2 s1^-1"))
        monkeypatch.setenv("BRAIDLAB_BUDGET", "not-a-number")
        with pytest.raises(ValueError):
            handle_reduce(parse_braid("s1 s2 s1^-1"))

    @pytest.mark.parametrize("text", ["s1 s2 s1^-1", "s1 s2"])
    def test_negative_budget_is_rejected(self, text, monkeypatch):
        # Even a word with no handle to reduce: the budget itself is invalid.
        message = r"^the step budget must be nonnegative, got -7$"
        with pytest.raises(ValueError, match=message):
            handle_reduce(parse_braid(text), budget=-7)
        monkeypatch.setenv("BRAIDLAB_BUDGET", "-7")
        with pytest.raises(ValueError, match=message):
            handle_reduce(parse_braid(text))

    def test_trace_records_steps(self):
        word = parse_braid("s1 s2 s1^-1")
        reduced, trace = handle_reduce_trace(word)
        assert reduced == handle_reduce(word)
        assert len(trace) == 1
        step = trace[0]
        assert step.step == 1
        assert (step.handle.start, step.handle.end) == (0, 2)
        assert step.handle.index == 1 and step.handle.sign == 1
        assert step.word == reduced

    def test_trace_words_stay_equal(self):
        rng = random.Random(104)
        for _ in range(20):
            word = random_braid_word(rng, 40)
            reduced, trace = handle_reduce_trace(word)
            for step in trace:
                assert braid_equal(step.word, word)

    def test_four_strand_best_effort(self):
        word = BraidWord(4, ((1, 1), (3, 1), (1, -1)))
        reduced = handle_reduce(word)
        runs = reduced.letters
        for q in range(len(runs)):
            for p in range(q):
                if runs[p][0] == runs[q][0] and all(
                    runs[m][0] > runs[p][0] for m in range(p + 1, q)
                ):
                    assert (runs[p][1] > 0) == (runs[q][1] > 0)


class TestSign:
    def test_cost_does_not_depend_on_strands(self):
        import tracemalloc

        word = parse_braid("s1 s2 s1^-1", 10**6)
        tracemalloc.start()
        try:
            verdict = dehornoy_sign(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (verdict.kind, verdict.main_index) == (POSITIVE, 1)
        assert peak < 10**6

    def test_one_positive_generator_pair(self):
        verdict = dehornoy_sign(parse_braid("s1 s2^-1"))
        assert verdict.kind == POSITIVE and verdict.main_index == 1

    def test_empty_is_trivial(self):
        assert dehornoy_sign(BraidWord(3)).kind == TRIVIAL

    def test_two_negative(self):
        verdict = dehornoy_sign(parse_braid("s2^-3"))
        assert verdict.kind == NEGATIVE and verdict.main_index == 2

    @pytest.mark.parametrize(
        "text, kind, main_index, coordinate_passes",
        [
            # σ2 with one sign only: read off the word.
            ("s2^-1 s3 s2^-2 s3^-4", NEGATIVE, 2, 0),
            ("s3^-1 s2 s3^2 s2", POSITIVE, 2, 0),
            # σ2 with both signs: decided by Dynnikov coordinates.
            ("s2 s3 s2^-1", POSITIVE, 2, 1),
            ("s2^-1 s3 s2", POSITIVE, 2, 1),
            ("s2 s3^-1 s2^-1 s3^2", NEGATIVE, 2, 1),
            ("s2 s3 s2^-1 s3^-1 s2^-1", NEGATIVE, 3, 1),
            ("s2 s3 s2 s3^-1 s2^-1 s3^-1", TRIVIAL, None, 1),
        ],
    )
    def test_main_index_two_on_four_strands(
        self, monkeypatch, text, kind, main_index, coordinate_passes
    ):
        from braidlab import dehornoy

        word = parse_braid(text, strands=4)
        calls = []

        def counted(runs, strands):
            calls.append(runs)
            return run_coordinates(runs, strands)

        monkeypatch.setattr(dehornoy, "run_coordinates", counted)
        verdict = dehornoy_sign(word)
        assert (verdict.kind, verdict.main_index) == (kind, main_index)
        assert len(calls) == coordinate_passes
        reduced = handle_reduce(word)
        if kind == TRIVIAL:
            assert reduced.is_identity()
        else:
            assert min(i for i, _ in reduced.letters) == main_index
            assert lowest_index_signs(reduced) == {kind == POSITIVE}

    def test_antisymmetry(self):
        opposite = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE, TRIVIAL: TRIVIAL}
        rng = random.Random(105)
        for _ in range(100):
            word = random_braid_word(rng, 60)
            verdict = dehornoy_sign(word)
            expected = OrderVerdict(opposite[verdict.kind], verdict.main_index)
            assert dehornoy_sign(word.inverse()) == expected

    def test_cone_closure(self):
        rng = random.Random(106)
        positives = []
        while len(positives) < 40:
            word = random_braid_word(rng, 40)
            if dehornoy_sign(word).is_positive:
                positives.append(word)
        for i in range(0, 40, 2):
            assert dehornoy_sign(positives[i] * positives[i + 1]).is_positive

    def test_subword_property(self):
        rng = random.Random(107)
        for _ in range(100):
            beta = random_braid_word(rng, 50)
            k = rng.choice((1, 2))
            conjugate = beta * BraidWord(3, ((k, 1),)) * beta.inverse()
            assert dehornoy_sign(conjugate).is_positive


class TestCompare:
    def test_identity_below_positive(self):
        assert braid_compare(BraidWord(3), parse_braid("s1 s2^-1")) == LESS

    def test_reflexive(self):
        word = parse_braid("s1 s2^-2 s1")
        assert braid_compare(word, word) == EQUAL

    def test_half_twist_powers(self):
        # Δ^2 < Δ^4 σ2^-12: the difference Δ^2 σ2^-12 is 1-positive.
        rhs = half_twist(4) * BraidWord(3, ((2, -12),))
        assert braid_compare(half_twist(2), rhs) == LESS

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            braid_compare(BraidWord(3), BraidWord(4))

    def test_trichotomy_consistency(self):
        rng = random.Random(108)
        opposite = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
        for _ in range(100):
            u = random_braid_word(rng, 40)
            v = random_braid_word(rng, 40)
            assert braid_compare(v, u) == opposite[braid_compare(u, v)]

    def test_left_invariance(self):
        rng = random.Random(109)
        for _ in range(100):
            f = random_braid_word(rng, 40)
            u = random_braid_word(rng, 40)
            v = random_braid_word(rng, 40)
            assert braid_compare(u, v) == braid_compare(f * u, f * v)

    def test_transitivity(self):
        rng = random.Random(110)
        count = 0
        while count < 50:
            u = random_braid_word(rng, 30)
            v = random_braid_word(rng, 30)
            w = random_braid_word(rng, 30)
            if braid_compare(u, v) == LESS and braid_compare(v, w) == LESS:
                assert braid_compare(u, w) == LESS
                count += 1


class TestCofinalBound:
    def test_identity(self):
        assert cofinal_bound(BraidWord(3)) == 1

    def test_sigma2(self):
        # Oracle: σ2^-1 Δ^2 handle-reduces to a 1-positive word.
        assert dehornoy_sign(parse_braid("s2^-1") * half_twist(2)).is_positive
        assert cofinal_bound(parse_braid("s2")) == 1

    def test_case1_element(self):
        # (Δ^2 σ2^-6)^-1 Δ^2 = σ2^6 since Δ^2 is central.
        word = half_twist(2) * BraidWord(3, ((2, -6),))
        assert braid_equal(word.inverse() * half_twist(2), parse_braid("s2^6"))
        assert cofinal_bound(word) == 1

    def test_larger_words_need_larger_k(self):
        word = half_twist(6)
        assert cofinal_bound(word) == 4  # Δ^6 < Δ^8 but Δ^6 is not below Δ^6

    def test_matches_reference_and_letter_bound(self):
        # Every letter lies below Δ^2, so a word of L letters has k <= max(1, L).
        rng = random.Random(3100)
        for trial in range(3000):
            word = random_braid_word(rng, 30)
            if trial % 2:
                word = word * half_twist(rng.randint(-20, 40))
            k = cofinal_bound(word)
            assert k == reference_cofinal_bound(word) <= max(1, word.length), word

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100])
    def test_even_half_twist_power(self, m):
        # Δ^(2m) is below Δ^(2m + 2) and not below itself.
        word = half_twist(2 * m)
        assert cofinal_bound(word) == reference_cofinal_bound(word) == m + 1
        assert m + 1 <= word.length

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 100, 1000, 30000])
    def test_comparisons_are_logarithmic(self, m, monkeypatch):
        import braidlab.dehornoy

        calls = 0
        original = braidlab.dehornoy.braid_compare

        def counting(u, v):
            nonlocal calls
            calls += 1
            return original(u, v)

        monkeypatch.setattr(braidlab.dehornoy, "braid_compare", counting)
        k = m + 1
        assert cofinal_bound(half_twist(2 * m)) == k
        assert calls <= 2 * math.ceil(math.log2(k)) + 1


def reference_cofinal_bound(word: BraidWord) -> int:
    """The least k >= 1 with ``word`` below Δ^(2k), by a linear scan."""
    k = 1
    while braid_compare(word, half_twist(2 * k)) != LESS:
        k += 1
    return k


class TestCommutes:
    def test_full_twist_central(self):
        assert commutes(half_twist(2), parse_braid("s2"))

    def test_generators_do_not_commute(self):
        # Oracle: the Burau matrices of σ1 σ2 and σ2 σ1 differ.
        from braidlab import burau_matrix

        assert burau_matrix(parse_braid("s1 s2")) != burau_matrix(parse_braid("s2 s1"))
        assert not commutes(parse_braid("s1"), parse_braid("s2"))

    def test_powers_of_one_generator(self):
        assert commutes(parse_braid("s2^3"), parse_braid("s2^-5"))

    def test_agrees_with_burau_on_random_pairs(self):
        rng = random.Random(111)
        for _ in range(300):
            u = random_braid_word(rng, rng.choice((2, 6, 20)))
            v = random_braid_word(rng, rng.choice((2, 6, 20)))
            assert commutes(u, v) == braid_equal(u * v, v * u)

    def test_planted_commuting_pairs(self):
        rng = random.Random(112)
        sigma2 = parse_braid("s2")
        for _ in range(60):
            beta = random_braid_word(rng, 20)
            k = rng.choice((-3, -2, 2, 3))
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            conjugate = beta * sigma2 * beta.inverse()
            pairs = [
                (beta, beta**k),
                (beta, half_twist(2 * rng.choice((-2, -1, 1, 2)))),
                (sigma2**a, sigma2**b),
                (conjugate, beta * sigma2**k * beta.inverse()),
            ]
            for u, v in pairs:
                assert commutes(u, v) and commutes(v, u)
                assert braid_equal(u * v, v * u)

    @pytest.mark.parametrize("strands", [4, 5])
    def test_more_strands(self, strands):
        s1, s2, s3 = (BraidWord(strands, ((i, 1),)) for i in (1, 2, 3))
        assert commutes(s1, s3)
        assert not commutes(s1, s2)
        delta2 = BraidWord(strands, tuple((i, 1) for i in range(1, strands))) ** strands
        rng = random.Random(113 + strands)
        for _ in range(30):
            word = random_braid_word(rng, 30, strands)
            assert commutes(delta2, word)
            assert not commutes(word * s1 * word.inverse(), word * s2 * word.inverse())

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            commutes(BraidWord(3, ((1, 1),)), BraidWord(4, ((1, 1),)))

    def test_one_coordinate_pass_per_call(self, monkeypatch):
        # One commutator u v u^-1 v^-1 is signed, not u v and v u apart.
        from braidlab import dehornoy

        calls = []

        def counted(runs, strands):
            calls.append(runs)
            return run_coordinates(runs, strands)

        monkeypatch.setattr(dehornoy, "run_coordinates", counted)
        pairs = [
            ("s1", "s2", 3, False),
            ("s1 s2 s1", "s1 s2 s1", 3, True),
            ("s1^2 s2^-1", "s2 s1^-3", 3, False),
            ("s1 s2 s1 s1 s2 s1", "s2^-1 s1^3", 3, True),
            ("s1", "s3", 5, True),
            ("s2 s3^-1", "s3 s4", 5, False),
        ]
        for u, v, strands, expected in pairs:
            calls.clear()
            assert commutes(parse_braid(u, strands), parse_braid(v, strands)) is expected
            assert len(calls) <= 1, (u, v)

    @pytest.mark.parametrize("strands", [4, 10**6])
    def test_products_touching_different_strands(self, strands):
        # σ3 · σ3^-1 σ1 = σ1 touches two strands, σ3^-1 σ1 · σ3 touches four.
        u, v = parse_braid("s3", strands), parse_braid("s3^-1 s1", strands)
        assert commutes(u, v) and commutes(v, u)
        assert not commutes(u, parse_braid("s3^-1 s2", strands))


class TestHugeIndices:
    """On more than three strands the touched generator indices are relabeled
    before the Dynnikov pass, so the size of an index costs nothing."""

    BIG = 10**20
    # 1 and 2 stay adjacent; the gap between 2 and 4 stays a gap.
    LABELS = {1: BIG, 2: BIG + 1, 4: BIG + 7}

    def spread(self, word: BraidWord) -> BraidWord:
        return BraidWord(self.BIG + 8, tuple((self.LABELS[i], e) for i, e in word.letters))

    def test_sign_matches_small_indices(self):
        rng = random.Random(120)
        labels = self.LABELS
        for _ in range(200):
            runs = [(rng.choice((1, 2, 4)), rng.choice((-2, -1, 1, 2))) for _ in range(10)]
            small = BraidWord(5, tuple(runs))
            verdict, big = dehornoy_sign(small), dehornoy_sign(self.spread(small))
            assert big.kind == verdict.kind
            assert big.main_index == (None if verdict.is_trivial else labels[verdict.main_index])
            reduced = handle_reduce(self.spread(small))
            if not reduced.is_identity():
                assert min(i for i, _ in reduced.letters) == big.main_index

    def test_compare_and_commutes(self):
        b = self.BIG
        s = {k: parse_braid(f"s{b + k}", b + 4) for k in range(4)}
        assert braid_compare(s[0], s[0] * s[1]) == LESS
        assert braid_compare(s[1] * s[0], s[1]) == GREATER
        assert braid_compare(s[0] * s[2], s[2] * s[0]) == EQUAL
        assert commutes(s[0], s[2]) and commutes(s[0], s[3])
        assert not commutes(s[0], s[1])
        # s3 · s3^-1 s0 = s0 touches fewer strands than s3^-1 s0 · s3.
        assert commutes(s[3], s[3].inverse() * s[0])
        assert not commutes(s[2], s[2].inverse() * s[1])

    def test_index_of_a_billion_allocates_little(self):
        strands = 10**9 + 1
        word = parse_braid("s999999999 s1 s999999999^-1 s1^-1", strands)
        other = parse_braid("s999999998 s1", strands)
        tracemalloc.start()
        try:
            assert dehornoy_sign(word).is_trivial
            assert not commutes(other, parse_braid("s999999999", strands))
            assert braid_compare(other, word) == GREATER
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def lift_sign(runs) -> tuple[str, int | None]:
    """Dehornoy sign of reduced three-strand ``runs``, read from the lifted
    SL(2, Z) action: a third oracle, independent of handle reduction and of
    Dynnikov coordinates, kept in the tests only.

    The map σ1 -> [[1, 1], [0, 1]], σ2 -> [[1, 0], [-1, 1]], with the action
    of each shear on the circle of directions lifted to Homeo+(R), R being
    the universal cover of the circle, is a homomorphism of B3: both sides
    of σ1 σ2 σ1 = σ2 σ1 σ2 lift [[0, 1], [-1, 0]], and both turn (1, 0) a
    quarter turn clockwise.  Two lifts of one matrix differ by whole turns,
    so these two agree.  σ2 fixes the lifted ray of (0, 1), σ1 moves it
    clockwise, and every map is increasing.  So σ1-positive words move the
    ray clockwise, σ1-negative words move it counterclockwise, and the
    σ1-free braids, the powers of σ2, fix it.  By Dehornoy's trichotomy
    every braid is of one of these three kinds (Dehornoy-Dynnikov-Rolfsen-
    Wiest, *Ordering Braids*, 2008).

    The runs act right to left on v = (a, b), from (0, 1).  σ1^k sets
    a += k b, moving v along a horizontal line, and σ2^k sets b -= k a,
    moving it along a vertical one.  The lift is the angle of v counted
    clockwise from (0, 1), as c whole turns plus an angle in (-π, π]; only
    a σ1 run with b < 0 can cross the cut at (0, -1), clockwise when a goes
    from a >= 0 to a < 0 and counterclockwise the other way.
    """
    a, b, c = 0, 1, 0
    for index, k in reversed(runs):
        if index == 1:
            moved = a + k * b
            if b < 0 and (a >= 0) != (moved >= 0):
                c += 1 if a >= 0 else -1
            a = moved
        else:
            b -= k * a
    if c > 0 or (c == 0 and (a > 0 or a == 0 > b)):
        return POSITIVE, 1
    if c < 0 or (c == 0 and a < 0):
        return NEGATIVE, 1
    total = sum(k for _, k in runs)
    if total == 0:
        return TRIVIAL, None
    return (POSITIVE if total > 0 else NEGATIVE), 2


def _huge_exponent_word(rng: random.Random) -> BraidWord:
    """Up to 12 runs with exponents log-uniform in 1..10^9."""
    runs = [
        (rng.choice((1, 2)), rng.choice((1, -1)) * round(10 ** rng.uniform(0, 9)))
        for _ in range(rng.randint(0, 12))
    ]
    return BraidWord(3, tuple(runs))


class TestLiftSign:
    """The lifted SL(2, Z) sign against dehornoy_sign, kind and main index."""

    def assert_agrees(self, word: BraidWord) -> None:
        verdict = dehornoy_sign(word)
        assert lift_sign(word.letters) == (verdict.kind, verdict.main_index), word

    def test_random_words_with_huge_exponents(self):
        rng = random.Random(130)
        for _ in range(20_000):
            self.assert_agrees(_huge_exponent_word(rng))
        for _ in range(10_000):
            self.assert_agrees(random_braid_word(rng, 60))

    def test_conjugates_of_a_generator(self):
        rng = random.Random(131)
        for _ in range(1000):
            beta = random_braid_word(rng, 40) if rng.random() < 0.5 else _huge_exponent_word(rng)
            letter = BraidWord(3, ((rng.choice((1, 2)), rng.choice((1, -1))),))
            self.assert_agrees(beta * letter * beta.inverse())

    def test_delta_conjugates_of_sigma1(self):
        for k in range(1, 60):
            self.assert_agrees(half_twist(-2 * k) * parse_braid("s1") * half_twist(2 * k))

    def test_commutator_fourth_powers(self):
        for k in [*range(1, 40), 10**6, 10**9]:
            word = BraidWord(3, ((1, -k), (2, k), (1, k), (2, -k))) ** 4
            self.assert_agrees(word)
            self.assert_agrees(word.inverse())

    def test_sigma2_only(self):
        for s in [*range(-8, 9), -(10**9), 10**9]:
            self.assert_agrees(BraidWord(3, ((2, s),)))

    def test_relator_words_reduce_to_one(self):
        # σ1 σ2 σ1 (σ2 σ1 σ2)^-1 and Δ^2 written as (σ1 σ2)^3 against
        # (σ2 σ1)^3, conjugated and multiplied: trivial braids whose words
        # are not freely trivial.
        rng = random.Random(132)
        relators = [
            parse_braid("s1 s2 s1 s2^-1 s1^-1 s2^-1"),
            parse_braid("s1 s2 s1 s2 s1 s2 s1^-1 s2^-1 s1^-1 s2^-1 s1^-1 s2^-1"),
        ]
        for _ in range(500):
            word = BraidWord(3)
            for _ in range(rng.randint(1, 4)):
                beta = random_braid_word(rng, 20)
                relator = rng.choice(relators) ** rng.choice((1, -1))
                word = word * beta * relator * beta.inverse()
            if word.is_identity():
                continue
            assert lift_sign(word.letters) == (TRIVIAL, None)
            self.assert_agrees(word)


# Each domain error of the module not pinned above: a call, the exception
# type and the whole message.
DOMAIN_ERRORS = {
    "cofinal-bound-strands": (
        lambda: cofinal_bound(BraidWord(4, ((1, 1),))),
        ValueError,
        "cofinal bounds are specific to 3 strands",
    ),
}


@pytest.mark.parametrize("name", DOMAIN_ERRORS)
def test_domain_errors(name):
    call, error, message = DOMAIN_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
