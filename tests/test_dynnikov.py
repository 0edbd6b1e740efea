"""Dynnikov coordinates against a one-letter-at-a-time reference, and Dynnikov
signs against handle reduction and the Burau oracle."""

from __future__ import annotations

import inspect
import itertools
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

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
from braidlab.dynnikov import run_coordinates


def reference_letter(window, sign: int) -> tuple[int, int, int, int]:
    """σ_i^sign on the window (x_i, y_i, x_{i+1}, y_{i+1}), with a separate
    update body for σ_i^-1."""
    x1, y1, x2, y2 = window
    if sign > 0:
        z = x1 - min(y1, 0) - x2 + max(y2, 0)
        return (
            x1 + max(y1, 0) + max(max(y2, 0) - z, 0),
            y2 - max(z, 0),
            x2 + min(y2, 0) + min(min(y1, 0) + z, 0),
            y1 + max(z, 0),
        )
    z = x1 + min(y1, 0) - x2 - max(y2, 0)
    return (
        x1 - max(y1, 0) - max(max(y2, 0) + z, 0),
        y2 + min(z, 0),
        x2 - min(y2, 0) - min(min(y1, 0) - z, 0),
        y1 - min(z, 0),
    )


def reference_coordinates(word: BraidWord) -> tuple[int, ...]:
    """One update per letter, by :func:`reference_letter`."""
    coords = [0, 1] * word.strands
    for index, sign in word.single_letters():
        k = 2 * (index - 1)
        coords[k : k + 4] = reference_letter(coords[k : k + 4], sign)
    return tuple(coords)


def reference_run_coordinates(runs, strands: int) -> list[int]:
    """The run kernel on one flat list, slicing out the window of each run:
    the layout the two-list kernel replaced."""
    coords = [0, 1] * strands
    for index, count in runs:
        k = 2 * index - 2
        x1, y1, x2, y2 = coords[k : k + 4]
        negative = count < 0
        if negative:
            x1, x2, count = -x1, -x2, -count
        while count:
            if y1 <= 0 <= y2:
                d = x1 - x2
                steps = count if d >= 0 else min(count, min(-y1, y2) // -d)
                if steps:
                    y1 -= steps * d
                    y2 += steps * d
                    count -= steps
                    continue
            y1m = y1 if y1 < 0 else 0
            y2p = y2 if y2 > 0 else 0
            z = x1 - y1m - x2 + y2p
            t = y2p - z
            u = y1m + z
            zp = z if z > 0 else 0
            x1 += y1 - y1m + (t if t > 0 else 0)
            x2 += y2 - y2p + (u if u < 0 else 0)
            y1, y2 = y2 - zp, y1 + zp
            count -= 1
        coords[k : k + 4] = (-x1, y1, -x2, y2) if negative else (x1, y1, x2, y2)
    return coords


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


def mirror(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple((i, -e) for i, e in word.letters))


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


def random_runs(rng: random.Random, strands: int, runs: int, digits: int = 3) -> BraidWord:
    """Runs with exponents log-uniform up to 10^digits, so that long runs are common."""
    letters = [
        (rng.randint(1, strands - 1), rng.choice((1, -1)) * int(10 ** rng.uniform(0, digits)))
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
            coords, mirrored = dynnikov_coordinates(word), dynnikov_coordinates(mirror(word))
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


def kernel_lines(*prefixes: str) -> list[int]:
    """The line number in ``run_coordinates`` of the one source line that
    starts with each prefix, after its indentation."""
    source, first = inspect.getsourcelines(run_coordinates)
    numbers = []
    for prefix in prefixes:
        found = [first + k for k, text in enumerate(source) if text.strip().startswith(prefix)]
        assert len(found) == 1, f"{prefix!r} starts {len(found)} lines of run_coordinates, not one"
        numbers.extend(found)
    return numbers


def kernel_work(
    runs, strands: int, start=None
) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """(letter steps, whole jumps, partial jumps) of each run, counted by a
    line tracer on ``run_coordinates`` itself, and the kernel's final lists
    (x_k) and (y_k).

    ``start`` replaces E by the flat coordinates (x_1, y_1, ..., x_n, y_n):
    the tracer writes them into the kernel's two lists before the first run.
    A kernel that stops jumping fails at once: more than ten counted lines
    per run raise, instead of stepping through 10^9 letters under the tracer.
    """
    # A letter step starts by splitting on the sign of y_{i+1}.
    loop, letter, whole, part = kernel_lines(
        "for i, count in runs", "if y2 > 0:", "y1, y2 = y1 - count", "y1, y2 = y1 - steps"
    )
    counted = {loop, letter, whole, part}
    runs = list(runs)
    limit = 10 * (len(runs) + 1)
    seen: list[int] = []
    pending = start

    def local(frame, event, arg):
        nonlocal pending
        line = frame.f_lineno
        if event == "line" and line in counted:
            if pending is not None:
                kernel = frame.f_locals
                kernel["xs"][:], kernel["ys"][:] = pending[0::2], pending[1::2]
                pending = None
            seen.append(line)
            if len(seen) > limit:
                raise AssertionError(f"more than {limit} counted lines for {len(runs)} runs")
        return local

    code = run_coordinates.__code__
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        xs, ys = run_coordinates(runs, strands)
    finally:
        sys.settrace(previous)
    # The loop header runs once per run and once more when the runs end.
    work = []
    for line in seen:
        if line == loop:
            work.append([0, 0, 0])
        else:
            work[-1][(letter, whole, part).index(line)] += 1
    assert len(work) == len(runs) + 1 and work[-1] == [0, 0, 0]
    return [tuple(counts) for counts in work[:-1]], xs, ys


class TestWorkCensus:
    """The module docstring's work bounds, counted with no clock: a kernel
    that jumped less would give the same coordinates, so only a count of its
    letter steps can see it."""

    def test_every_window_of_a_box(self):
        # σ_i^-1 runs act as σ_i runs on the window with both x's negated,
        # and the box is symmetric, so positive exponents cover both signs.
        # Up to exponent 8 the same pass checks each window's value against
        # one reference update per letter, advanced by one letter per
        # exponent: the box holds every sign of y_i, y_{i+1} and x_i - x_{i+1}.
        windows = list(itertools.product(range(-6, 7), repeat=4))
        start = [c for window in windows for c in window]
        expected = windows
        for exponent in (*range(1, 9), 10**3, 10**9):
            runs = [(2 * k + 1, exponent) for k in range(len(windows))]
            work, xs, ys = kernel_work(runs, 2 * len(windows), start)
            if exponent <= 8:
                expected = [reference_letter(window, 1) for window in expected]
            for k, (window, (steps, whole, part)) in enumerate(zip(windows, work)):
                assert steps <= 4 and whole <= 1 and part <= 1, (window, exponent)
                assert steps + whole + part <= 5, (window, exponent)
                if exponent <= 8:
                    final = (xs[2 * k], ys[2 * k], xs[2 * k + 1], ys[2 * k + 1])
                    assert final == expected[k], (window, exponent)

    def test_long_conjugate(self):
        work, _, _ = kernel_work(parse_braid("s1^1000000000 s2 s1^-1000000000", 3).letters, 3)
        assert sum(steps for steps, _, _ in work) == 2
        assert sum(whole + part for _, whole, part in work) == 2

    def test_start_replaces_e(self):
        # From E, σ1^4 takes one letter step and one whole jump; this window
        # takes the census's four letter steps.
        assert kernel_work([(1, 4)], 2)[0] == [(1, 1, 0)]
        assert kernel_work([(1, 4)], 2, (-6, -6, -4, 1))[0] == [(4, 0, 0)]

    @pytest.mark.parametrize("prefix, count", [("y1, y2 = y1 -", 2), ("no such line", 0)])
    def test_a_missing_or_ambiguous_anchor_is_named(self, prefix, count):
        with pytest.raises(AssertionError, match=re.escape(f"{prefix!r} starts {count} lines")):
            kernel_lines("for i, count in runs", prefix)


class TestTwoListKernel:
    """The two-list kernel against the flat-list one, on full coordinate
    lists; both jump over runs, so exponents can be large."""

    @staticmethod
    def assert_same(word: BraidWord):
        xs, ys = run_coordinates(word.letters, word.strands)
        flat = reference_run_coordinates(word.letters, word.strands)
        assert (xs, ys) == (flat[0::2], flat[1::2]), word

    @pytest.mark.parametrize("strands", range(3, 9))
    def test_random_runs_and_mirrors(self, strands):
        rng = random.Random(4000 + strands)
        for _ in range(100):
            word = random_runs(rng, strands, rng.randint(1, 10), digits=6)
            self.assert_same(word)
            self.assert_same(mirror(word))

    def test_adversarial_families(self):
        for k in range(1, 41):
            for word in adversarial_words(k):
                self.assert_same(word)
                self.assert_same(mirror(word))

    def test_long_exponents(self):
        word = parse_braid("s1^1000000000 s2 s1^-1000000000", 3)
        self.assert_same(word)
        self.assert_same(mirror(word))


@st.composite
def exponents(draw):
    """Mostly ±1, some ±2..±6, and a few up to ±10^6."""
    bucket = draw(st.integers(0, 9))
    if bucket < 7:
        magnitude = 1
    elif bucket < 9:
        magnitude = draw(st.integers(2, 6))
    else:
        magnitude = draw(st.integers(7, 10**6))
    return draw(st.sampled_from((1, -1))) * magnitude


@st.composite
def kernel_inputs(draw):
    """Raw runs on 2 to 8 strands.  A run may be followed by a single letter
    on its own generator: after a long run the window is often in the twist
    region, where a last letter skips the jump test."""
    strands = draw(st.integers(2, 8))
    runs = []
    for _ in range(draw(st.integers(0, 10))):
        index = draw(st.integers(1, strands - 1))
        runs.append((index, draw(exponents())))
        if draw(st.booleans()):
            runs.append((index, draw(st.sampled_from((1, -1)))))
    return strands, runs


class TestDifferentialKernel:
    """``run_coordinates`` against the flat-list kernel, which tests the
    region before every letter, and against one update per letter where the
    word is short enough to expand."""

    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_words_and_mirrors(self, drawn):
        strands, runs = drawn
        for letters in (runs, [(i, -e) for i, e in runs]):
            xs, ys = run_coordinates(letters, strands)
            flat = reference_run_coordinates(letters, strands)
            assert (xs, ys) == (flat[0::2], flat[1::2])
            if sum(abs(e) for _, e in letters) <= 3000:
                expected = reference_coordinates(BraidWord(strands, tuple(letters)))
                assert (xs, ys) == (list(expected[0::2]), list(expected[1::2]))
