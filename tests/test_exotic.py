"""The commutator-subgroup embedding, its inverse, and the restricted orders."""

from __future__ import annotations

import collections
import dataclasses
import inspect
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from braidlab import (
    EQUAL,
    GREATER,
    LESS,
    BraidWord,
    ExoticContext,
    FreeWord,
    GroupAutomorphism,
    braid_compare,
    braid_equal,
    commutator_rewrite,
    conj_by_sigma1,
    conj_by_sigma2,
    dehornoy_sign,
    dynnikov_coordinates,
    embed,
    exotic_compare,
    exponent_sum,
    half_twist,
    kn_basis,
    kn_member,
    kn_rewrite,
    kn_substitute,
    named_power,
    parse_braid,
    parse_free,
    random_braid_word,
    random_free_word,
)
from braidlab import _words, exotic

X = parse_free("x")
Y = parse_free("y")

# The rewrite over the transversal {σ1^t}, kept as the reference for the
# six-state scan: σ1^t x σ1^-t is built from a neighbouring t by one
# application of g -> σ1^-1 g σ1 (or its inverse) per step, and shared
# across calls so that the reference stays affordable on long runs.
_PSI = conj_by_sigma1()
_PSI_INV = GroupAutomorphism(_PSI.inverse_images, _PSI.images)
_CONJUGATES = {0: X}


def _sigma1_conjugate_of_x(t):
    if t not in _CONJUGATES:
        step = 1 if t > 0 else -1
        auto = _PSI_INV if t > 0 else _PSI
        s = t
        while s not in _CONJUGATES:
            s -= step
        while s != t:
            _CONJUGATES[s + step] = auto(_CONJUGATES[s])
            s += step
    return _CONJUGATES[t]


def reference_rewrite(braid):
    runs = []
    t = 0
    for index, sign in braid.single_letters():
        if index == 1:
            t += sign
        elif sign > 0:
            runs.extend(_sigma1_conjugate_of_x(t).inverse().letters)
            t += 1
        else:
            t -= 1
            runs.extend(_sigma1_conjugate_of_x(t).letters)
    return FreeWord(2, tuple(runs))


def random_zero_sum_braid(rng, max_length):
    word = random_braid_word(rng, max_length)
    total = exponent_sum(word)
    if total:
        word = word * BraidWord(3, ((1, -total),))
    return word


class TestEmbed:
    def test_generators(self):
        assert embed(X) == parse_braid("aB")
        assert embed(Y) == parse_braid("aaBB")
        assert embed(X.inverse()) == parse_braid("bA")

    def test_zero_exponent_sum(self):
        rng = random.Random(41)
        for _ in range(100):
            assert exponent_sum(embed(random_free_word(rng, 30))) == 0

    def test_homomorphism(self):
        rng = random.Random(42)
        for _ in range(50):
            u = random_free_word(rng, 15)
            v = random_free_word(rng, 15)
            assert embed(u * v) == embed(u) * embed(v)

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            embed(FreeWord(3, ((3, 1),)))


class TestCommutatorRewrite:
    def test_generators(self):
        assert commutator_rewrite(parse_braid("aB")) == X
        assert commutator_rewrite(parse_braid("aaBB")) == Y

    def test_full_twist_case(self):
        braid = half_twist(2) * BraidWord(3, ((2, -6),))
        word = commutator_rewrite(braid)
        assert braid_equal(embed(word), braid)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            commutator_rewrite(parse_braid("s1"))

    def test_rejects_wrong_strands(self):
        with pytest.raises(ValueError):
            commutator_rewrite(BraidWord(4))

    def test_takes_the_letter_limit(self):
        half = exotic.MAX_REWRITE_LETTERS // 2
        word = commutator_rewrite(BraidWord(3, ((2, half), (1, -half))))
        assert 0 < word.length <= 6 * exotic.MAX_REWRITE_LETTERS

    def test_round_trip_from_free_words(self):
        # Rewriting an embedded word recovers it verbatim (free equality).
        rng = random.Random(43)
        for _ in range(500):
            word = random_free_word(rng, 40)
            assert commutator_rewrite(embed(word)) == word

    def test_round_trip_from_braids(self):
        rng = random.Random(44)
        for _ in range(500):
            braid = random_zero_sum_braid(rng, 60)
            assert braid_equal(embed(commutator_rewrite(braid)), braid)

    def test_no_one_neutral_elements(self):
        # Nontrivial commutator-subgroup elements always involve σ1 after
        # reduction (zero total exponent rules out pure σ2 powers).
        rng = random.Random(45)
        checked = 0
        while checked < 100:
            word = random_free_word(rng, 20)
            if word.is_identity():
                continue
            verdict = dehornoy_sign(embed(word))
            assert verdict.main_index == 1
            checked += 1

    def test_table_entries(self):
        # Reading σ_i at state r emits σ1^r σ_i σ1^-r' Δ^-2 when the step
        # wraps round to r' = 0, and σ1^r σ_i σ1^-r' otherwise.
        twist = half_twist(2)
        for r in range(6):
            after = (r + 1) % 6
            twist_entry = exotic._TWIST_STEP if r == 5 else ()
            for i, entry in ((2, exotic._SIGMA2_STEPS[r]), (1, twist_entry)):
                expected = BraidWord(3, ((1, r), (i, 1), (1, -after)))
                if r == 5:
                    expected = expected * twist.inverse()
                assert braid_equal(embed(FreeWord(2, entry)), expected)
                assert FreeWord(2, entry).length <= 6
        for step, inverse in zip(exotic._SIGMA2_STEPS, exotic._SIGMA2_INVERSE_STEPS):
            assert FreeWord(2, step).inverse() == FreeWord(2, inverse)

    def test_agrees_with_reference_on_long_runs(self):
        # Run exponents log-uniform in 1..10^3, on both generators; the
        # closing σ1 run makes the exponent sum zero.
        rng = random.Random(49)
        for _ in range(40):
            runs = tuple(
                (rng.randint(1, 2), rng.choice((1, -1)) * round(10 ** rng.uniform(0, 3)))
                for _ in range(rng.randint(0, 4))
            )
            braid = BraidWord(3, runs)
            braid = braid * BraidWord(3, ((1, -exponent_sum(braid)),))
            assert commutator_rewrite(braid) == reference_rewrite(braid)

    def test_agrees_with_reference_on_short_words(self):
        rng = random.Random(50)
        for _ in range(300):
            braid = random_zero_sum_braid(rng, 60)
            assert commutator_rewrite(braid) == reference_rewrite(braid)

    def test_agrees_with_reference_on_kn_commutators(self):
        # The commutators of the K_n sandwich check of verify:
        # β σ2^{6k} β^-1 σ2^{-6k} with β embedded from K_n.
        rng = random.Random(51)
        for trial in range(60):
            n = (3, 4, 5)[trial % 3]
            beta = embed(kn_substitute(random_free_word(rng, 6, rank=n), n))
            conjugator = BraidWord(3, ((2, 6 * rng.randint(1, 2)),))
            braid = beta * conjugator * beta.inverse() * conjugator.inverse()
            word = commutator_rewrite(braid)
            assert word == reference_rewrite(braid)
            assert kn_member(word, n)

    def test_cost_linear_in_sigma1_runs(self):
        # The {σ1^t} scan took 48.8 s on k = 9000; this is k = 100000.
        braid = BraidWord(3, ((1, 100_000), (2, 1), (1, -100_000), (2, -1)))
        start = time.perf_counter()
        word = commutator_rewrite(braid)
        assert time.perf_counter() - start < 1.0
        assert dynnikov_coordinates(embed(word)) == dynnikov_coordinates(braid)


def line_counts(func, *args, limit: int) -> collections.Counter:
    """How often each line of ``func``'s own frame ran on ``args``, counted
    by a line tracer.

    A line that runs more than ``limit`` times raises at once, so a rewrite
    that loops over the letters of a long run fails instead of stepping
    through them under the tracer.
    """
    code = func.__code__
    counts: collections.Counter = collections.Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno] += 1
            if counts[frame.f_lineno] > limit:
                raise AssertionError(f"line {frame.f_lineno} ran more than {limit} times")
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return counts


class TestRewriteWork:
    """The work bounds of the two Schreier rewrites, counted with no clock:
    no line of the rewrite runs more often than the bound allows."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kn_rewrite_takes_one_step_per_run(self, n):
        # x runs of about 10^9 letters, and y runs of 10^9 letters at the
        # trivial coset, where a y run emits one g1 run; elsewhere a y run
        # emits its Schreier generator once per letter, so it stays short.
        rng = random.Random(900 + n)
        runs, state = [], 0
        for _ in range(20):
            x = rng.choice((1, -1)) * (10**9 + rng.randint(0, 5))
            state = (state + x) % (n - 1)
            y = rng.choice((1, -1)) * (10**9 if state == 0 else rng.randint(1, 3))
            runs += [(1, x), (2, y)]
        runs.append((1, -state))
        word = FreeWord(2, tuple(runs))
        assert kn_member(word, n)
        # Each line runs at most once per run, and the loop header once more.
        counts = line_counts(kn_rewrite, word, n, limit=len(word.letters) + 1)
        assert max(counts.values()) == len(word.letters) + 1

    def test_commutator_rewrite_is_linear_in_sigma2_letters_and_sigma1_runs(self):
        # σ1 runs of about 6 * 10^4 letters: a σ1 run is one divmod, though
        # its output W^k grows with the run, so the runs are not longer.
        rng = random.Random(91)
        runs = []
        for _ in range(10):
            runs.append((1, rng.choice((1, -1)) * (60_000 + rng.randint(0, 5))))
            runs.append((2, rng.choice((1, -1)) * rng.randint(1, 5)))
        runs.append((1, -sum(e for _, e in runs)))
        braid = BraidWord(3, tuple(runs))
        sigma2_letters = sum(abs(e) for i, e in braid.letters if i == 2)
        # A σ2^e run runs its inner loop header |e| + 1 times.
        limit = len(braid.letters) + sigma2_letters + 1
        counts = line_counts(commutator_rewrite, braid, limit=limit)
        source, first = inspect.getsourcelines(commutator_rewrite)
        (divmod_line,) = [first + k for k, text in enumerate(source) if "divmod(" in text]
        assert counts[divmod_line] == sum(1 for i, _ in braid.letters if i == 1)


class TestExoticContext:
    def test_f2(self):
        ctx = ExoticContext.f2()
        assert ctx.rank == 2 and str(ctx) == "f2"
        assert ctx.to_f2(X) is X

    def test_kn(self):
        ctx = ExoticContext.kn(3)
        assert ctx.rank == 3 and str(ctx) == "kn:3"
        assert [w.to_text() for w in kn_basis(3)] == ["y", "x^2", "x y x"]
        assert ctx.to_f2(FreeWord(3, ((3, 1),))) == parse_free("x y x")

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            ExoticContext.kn(3).to_f2(X)
        with pytest.raises(ValueError, match="n must be at least 2, got 1"):
            ExoticContext.kn(1)

    def test_n_is_the_only_field(self):
        assert [field.name for field in dataclasses.fields(ExoticContext)] == ["n"]
        assert ExoticContext.f2() == ExoticContext()
        assert ExoticContext.kn(3) == ExoticContext.kn(3)
        assert hash(ExoticContext.kn(3)) == hash(ExoticContext.kn(3))
        assert ExoticContext.f2() != ExoticContext.kn(2)


class TestExoticCompare:
    def test_identity_below_x(self):
        assert exotic_compare(FreeWord(2), X) == LESS

    def test_reflexive(self):
        word = parse_free("x y^-2 x")
        assert exotic_compare(word, word) == EQUAL

    def test_x_below_y(self):
        # Oracle: x^-1 y embeds to σ2 σ1 σ2^-2, already handle-free and
        # 1-positive.
        difference = embed(X.inverse() * Y)
        assert difference == BraidWord(3, ((2, 1), (1, 1), (2, -2)))
        verdict = dehornoy_sign(difference)
        assert verdict.is_positive and verdict.main_index == 1
        assert exotic_compare(X, Y) == LESS

    def test_kn_generators_positive(self):
        for n in (3, 4, 5):
            ctx = ExoticContext.kn(n)
            one = FreeWord(n)
            for i in range(1, n + 1):
                assert exotic_compare(one, FreeWord(n, ((i, 1),)), ctx) == LESS

    def test_trichotomy_and_antisymmetry(self):
        rng = random.Random(46)
        opposite = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
        for _ in range(100):
            u = random_free_word(rng, 15)
            v = random_free_word(rng, 15)
            forward = exotic_compare(u, v)
            assert exotic_compare(v, u) == opposite[forward]
            assert (forward == EQUAL) == (u == v)

    def test_left_invariance(self):
        # (f u)^-1 (f v) reduces to u^-1 v, so both sides sign the same word:
        # a cone-defined order is left-invariant by definition, and this only
        # checks that the comparison is deterministic.
        rng = random.Random(47)
        for _ in range(100):
            f = random_free_word(rng, 15)
            u = random_free_word(rng, 15)
            v = random_free_word(rng, 15)
            assert exotic_compare(u, v) == exotic_compare(f * u, f * v)

    def test_conjugation_conformity(self):
        # Comparing in F_2 agrees with conjugating embedded words by σ2.
        phi = conj_by_sigma2()
        s2 = parse_braid("s2")
        rng = random.Random(48)
        for _ in range(200):
            word = random_free_word(rng, 15)
            assert braid_equal(embed(phi(word)), s2.inverse() * embed(word) * s2)


CONTEXTS = [ExoticContext.f2()] + [ExoticContext.kn(n) for n in range(3, 9)]


@st.composite
def compared_pairs(draw):
    """A context and two words of its rank: short random runs mixed with long
    x- and y-runs, and equal words (an identity difference) in one case of
    four."""
    ctx = draw(st.sampled_from(CONTEXTS))
    exponent = st.one_of(
        st.integers(-3, 3).filter(bool), st.sampled_from((-50, -17, 17, 50))
    )
    run = st.tuples(st.integers(1, ctx.rank), exponent)
    word = st.lists(run, max_size=6).map(lambda runs: FreeWord(ctx.rank, tuple(runs)))
    u = draw(word)
    v = u if draw(st.integers(0, 3)) == 0 else draw(word)
    return ctx, u, v


class TestExoticCompareOnRuns:
    """exotic_compare works on runs; it must agree with the composition of the
    public word-level steps it replaces, and raise their errors."""

    @settings(max_examples=400, deadline=None)
    @given(compared_pairs())
    @example((CONTEXTS[0], FreeWord(2), parse_free("x^50")))
    @example((CONTEXTS[0], parse_free("y^50 x^-50"), FreeWord(2)))
    @example((CONTEXTS[-1], parse_free("g8^-50 g1^50", 8), FreeWord(8)))
    @example((CONTEXTS[-1], FreeWord(8), FreeWord(8)))
    def test_matches_word_level_path(self, case):
        ctx, u, v = case
        expected = braid_compare(BraidWord(3), embed(ctx.to_f2(u.inverse() * v)))
        assert exotic_compare(u, v, ctx) == expected

    @pytest.mark.parametrize(
        "u, v, ctx, message",
        [
            (FreeWord(2), FreeWord(3), None, "rank mismatch: 2 != 3"),
            (FreeWord(3), FreeWord(4), ExoticContext.kn(3), "rank mismatch: 3 != 4"),
            (FreeWord(3), FreeWord(3), None, "word rank 3 does not match context rank 2"),
            (X, Y, ExoticContext.kn(4), "word rank 2 does not match context rank 4"),
        ],
    )
    def test_rank_errors(self, u, v, ctx, message):
        with pytest.raises(ValueError, match=message):
            exotic_compare(u, v, ctx)
        with pytest.raises(ValueError, match=message):
            (ctx or ExoticContext.f2()).to_f2(u.inverse() * v)


def test_embed_merges_only_at_seams():
    # 100,000 short random words cover every seam between x- and y-powers;
    # the seam-only image must be the substitution (which normalizes), with
    # every run the shared run object.
    rng = random.Random(4242)
    shared = _words._SHARED_RUNS
    for _ in range(100_000):
        pairs = [
            (rng.randint(1, 2), rng.choice((1, -1)) * rng.randint(1, 3))
            for _ in range(rng.randint(0, 6))
        ]
        word = FreeWord._reduced(2, _words.normalize(pairs))
        image = embed(word).letters
        assert image == _words.substitute(word.letters, exotic._EMBED_RUNS)
        assert all(run is shared[run] for run in image)


# Each domain error of the module not pinned above: a call, the exception
# type and the whole message.  A context checks its n when it is built,
# not at its first comparison.
DOMAIN_ERRORS = {
    f"context-n-{n}": (lambda n=n: ExoticContext(n), ValueError, f"n must be at least 2, got {n}")
    for n in (0, 1, -3)
}
DOMAIN_ERRORS["context-past-index-limit"] = (
    lambda: ExoticContext(100_001), ValueError, "n must be at most 100000, got 100001"
)
# The shortest zero-sum braid over the limit, refused before the scan.
DOMAIN_ERRORS["rewrite-letter-limit"] = (
    lambda: commutator_rewrite(BraidWord(3, ((2, 500_001), (1, -500_000), (2, -1)))),
    ValueError,
    "commutator rewriting takes at most 1000000 braid letters, got 1000002",
)
DOMAIN_ERRORS["embed-letter-limit"] = (
    lambda: embed(FreeWord(2, ((1, 500_001),))),
    ValueError,
    "embed takes at most 500000 letters, got 500001",
)
DOMAIN_ERRORS["named-power-rank"] = (
    lambda: named_power("sigma2", FreeWord(3, ((1, 1),))),
    ValueError,
    "the commutator embedding is defined on rank-2 words",
)


@pytest.mark.parametrize("name", DOMAIN_ERRORS)
def test_domain_errors(name):
    call, error, message = DOMAIN_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
