"""The exact Burau word-problem oracle."""

from __future__ import annotations

import functools
import random
import re

import pytest

from braidlab import (
    BraidWord,
    LaurentMatrix,
    LaurentPoly,
    braid_equal,
    burau_matrix,
    conj_by_sigma2,
    dehornoy_sign,
    embed,
    half_twist,
    parse_braid,
    random_braid_word,
)
from braidlab import burau
from braidlab.burau import _pack, _width

RELATOR = parse_braid("s1 s2 s1 s2^-1 s1^-1 s2^-1")


def _add(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    out = dict(x)
    for e, v in y.items():
        s = out.get(e, 0) + v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _shift(x: dict[int, int], k: int, sign: int = 1) -> dict[int, int]:
    return {e + k: sign * v for e, v in x.items()}


def _poly(coeffs: dict[int, int]) -> LaurentPoly:
    return LaurentPoly(tuple(sorted(coeffs.items())))


@functools.cache
def reference_burau(word: BraidWord) -> LaurentMatrix:
    """The Burau image kept as exponent -> coefficient dicts, one letter at a
    time: the kernel the packed one replaced.  Cached, because the families
    below are shared by several tests."""
    a: dict[int, int] = {0: 1}
    b: dict[int, int] = {}
    c: dict[int, int] = {}
    d: dict[int, int] = {0: 1}
    for index, sign in word.single_letters():
        if index == 1:
            if sign > 0:
                # M * [[-t, 1], [0, 1]]
                a, b = _shift(a, 1, -1), _add(a, b)
                c, d = _shift(c, 1, -1), _add(c, d)
            else:
                # M * [[-t^-1, t^-1], [0, 1]]
                a, b = _shift(a, -1, -1), _add(_shift(a, -1), b)
                c, d = _shift(c, -1, -1), _add(_shift(c, -1), d)
        elif sign > 0:
            # M * [[1, 0], [t, -t]]
            a, b = _add(a, _shift(b, 1)), _shift(b, 1, -1)
            c, d = _add(c, _shift(d, 1)), _shift(d, 1, -1)
        else:
            # M * [[1, 0], [1, -t^-1]]
            a, b = _add(a, b), _shift(b, -1, -1)
            c, d = _add(c, d), _shift(d, -1, -1)
    return LaurentMatrix(
        (
            (_poly(a), _poly(b)),
            (_poly(c), _poly(d)),
        )
    )


def _random_runs_word(rng: random.Random, max_runs: int, max_exponent: int) -> BraidWord:
    runs = tuple(
        (rng.randint(1, 2), rng.choice((1, -1)) * rng.randint(1, max_exponent))
        for _ in range(rng.randint(0, max_runs))
    )
    return BraidWord(3, runs)


@functools.cache
def _random_family() -> list[BraidWord]:
    """Words of 0-200 runs; the exponents are mostly small, as in sampled
    words, and up to ±30."""
    rng = random.Random(2024)
    words = [_random_runs_word(rng, 200, 3) for _ in range(40)]
    words += [_random_runs_word(rng, 200, 30) for _ in range(2)]
    words += [_random_runs_word(rng, 20, 30) for _ in range(40)]
    return words


def _twist_family() -> list[BraidWord]:
    words = [half_twist(k) for k in range(-12, 13)]
    words += [half_twist(4 * p) * BraidWord(3, ((2, -12 * p),)) for p in range(1, 5)]
    return words


# σ1 σ2^-1 is pseudo-Anosov with dilatation (3 + √5)/2, so the coefficients
# of its powers grow by about 0.69 bits per letter, close to the one bit per
# letter of the width bound.
PSEUDO_ANOSOV = [parse_braid("s1 s2^-1") ** k for k in (1, 2, 3, 10, 50, 100, 250, 500)]

FAMILIES = {
    "random": _random_family,
    "twists": _twist_family,
    "pseudo-anosov": lambda: PSEUDO_ANOSOV,
}


def _inverse_letters(word: BraidWord) -> int:
    return sum(-n for _, n in word.letters if n < 0)


# Evaluation at t = 2^k is a ring homomorphism Z[t] -> Z, so every matrix
# identity of the Burau images holds exactly between packed integers, at any
# width: the identity tests below check the kernel without decoding.
def _matmul(p, q):
    """The product of two 2x2 integer matrices given as (a, b, c, d)."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


ONE, ZERO = LaurentPoly(((0, 1),)), LaurentPoly()


class TestBurauMatrix:
    def test_identity(self):
        assert burau_matrix(BraidWord(3)).entries == ((ONE, ZERO), (ZERO, ONE))

    def test_generator_convention(self):
        m1 = burau_matrix(parse_braid("s1"))
        assert m1.entries[0][0].terms == ((1, -1),)
        assert m1.entries[0][1].terms == ((0, 1),)
        assert m1.entries[1][0].terms == ()
        assert m1.entries[1][1].terms == ((0, 1),)
        m2 = burau_matrix(parse_braid("s2"))
        assert m2.entries[0][0].terms == ((0, 1),)
        assert m2.entries[0][1].terms == ()
        assert m2.entries[1][0].terms == ((1, 1),)
        assert m2.entries[1][1].terms == ((1, -1),)

    def test_sigma1_at_t_equals_one(self):
        entries = burau_matrix(parse_braid("s1")).entries
        at_one = [[sum(c for _, c in p.terms) for p in row] for row in entries]
        assert at_one == [[-1, 1], [0, 1]]

    def test_braid_relation(self):
        assert burau_matrix(parse_braid("s1 s2 s1")) == burau_matrix(parse_braid("s2 s1 s2"))

    def test_strand_count_guard(self):
        with pytest.raises(ValueError):
            burau_matrix(BraidWord(4, ((3, 1),)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_kernel(self, family):
        for word in FAMILIES[family]():
            assert burau_matrix(word) == reference_burau(word), word.to_text()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_width_leaves_a_spare_bit(self, family):
        # Balanced digits need |c| < 2^(k-1), i.e. at most k - 1 bits; the
        # width bound keeps every coefficient to at most k - 2.
        for word in FAMILIES[family]():
            matrix = reference_burau(word)
            coefficients = [c for row in matrix.entries for p in row for _, c in p.terms]
            bits = max(abs(c).bit_length() for c in coefficients)
            assert bits < _width(word) - 1, word.to_text()

    def test_unit_determinant(self):
        # det = (-t)^s for exponent sum s; the packed matrix is t^e times the
        # image, and s + 2e is the letter count L.
        rng = random.Random(7)
        for _ in range(20):
            word = random_braid_word(rng, 30)
            k = _width(word)
            _, a, b, c, d = _pack(word, k)
            s = sum(n for _, n in word.letters)
            assert a * d - b * c == (-1) ** (s % 2) << k * word.length, word.to_text()

    def test_homomorphism(self):
        rng = random.Random(11)
        for _ in range(30):
            u = random_braid_word(rng, 25)
            v = random_braid_word(rng, 25)
            k = _width(u, v, u * v)
            e_u, *p_u = _pack(u, k)
            e_v, *p_v = _pack(v, k)
            e_uv, *p_uv = _pack(u * v, k)
            shift = k * (e_u + e_v - e_uv)
            assert _matmul(p_u, p_v) == tuple(x << shift for x in p_uv)

    def test_inverse_matrix(self):
        rng = random.Random(13)
        for _ in range(30):
            word = random_braid_word(rng, 25)
            k = _width(word)
            e, *p = _pack(word.inverse(), k)
            f, *q = _pack(word, k)
            scalar = 1 << k * (e + f)
            assert _matmul(p, q) == (scalar, 0, 0, scalar)


def reference_pack(word: BraidWord, k: int) -> tuple[int, int, int, int, int]:
    """The packed kernel one letter at a time: the loop the closed form of a
    run replaced."""
    a, b, c, d, e = 1, 0, 0, 1, 0
    for index, sign in word.single_letters():
        if index == 1 and sign > 0:
            a, b = -(a << k), a + b
            c, d = -(c << k), c + d
        elif index == 1:
            e += 1
            a, b = -a, a + (b << k)
            c, d = -c, c + (d << k)
        elif sign > 0:
            a, b = a + (b << k), -(b << k)
            c, d = c + (d << k), -(d << k)
        else:
            e += 1
            a, b = (a + b) << k, -b
            c, d = (c + d) << k, -d
    return e, a, b, c, d


_P = (1 << 61) - 1


def _power_mod(m, n):
    """The n-th power of the 2x2 matrix m = (a, b, c, d) modulo _P."""
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = tuple(x % _P for x in _matmul(result, m))
        m = tuple(x % _P for x in _matmul(m, m))
        n >>= 1
    return result


class TestRuns:
    """A run is applied in closed form; it must match one step per letter."""

    @pytest.mark.parametrize("index", [1, 2])
    def test_single_runs(self, index):
        prefix = parse_braid("s2 s1^-1 s2^2 s1")
        for n in range(-50, 51):
            run = BraidWord(3, ((index, n),) if n else ())
            for word in (run, prefix * run):
                k = _width(word)
                assert _pack(word, k) == reference_pack(word, k), word.to_text()

    def test_random_words(self):
        rng = random.Random(53)
        for _ in range(200):
            word = _random_runs_word(rng, 12, 50)
            k = _width(word)
            assert _pack(word, k) == reference_pack(word, k), word.to_text()

    def test_long_run_is_one_step(self, monkeypatch):
        # The cost shape behind 'burau s1^100000' in the CLI tests, with no
        # clock: each run of m > 1 letters makes one call to the doubling
        # sum, which loops once per bit of m, and a single letter makes none.
        calls = []

        def counted(x, z, k, m):
            calls.append(m)
            return times_sum(x, z, k, m)

        times_sum = burau._times_sum
        monkeypatch.setattr(burau, "_times_sum", counted)
        word = parse_braid("s1^50000 s2^-49997 s1 s2^-2")
        assert word.length == 100_000 and _width(word) * word.length <= burau.MAX_BURAU_BITS
        _pack(word, _width(word))
        assert calls == [50000, 49997, 2]

    @pytest.mark.parametrize("index", [1, 2])
    @pytest.mark.parametrize("n", [10**5, -(10**5), 10**5 - 1, 1 - 10**5])
    def test_long_run_against_matrix_power_mod_p(self, index, n):
        # The image is t^-e [[a, b], [c, d]], with e counting inverse letters,
        # so [[a, b], [c, d]] is the n-th power of t^e times the letter's image.
        word = BraidWord(3, ((index, n),))
        k = _width(word)
        e, *packed = _pack(word, k)
        t = pow(2, k, _P)
        if n > 0:
            generator = (-t, 1, 0, 1) if index == 1 else (1, 0, t, -t)
        else:
            generator = (-1, 1, 0, t) if index == 1 else (t, 0, t, -1)
        assert e == max(0, -n)
        assert tuple(x % _P for x in packed) == _power_mod(generator, abs(n))


class TestBraidEqual:
    def test_defining_relation(self):
        assert braid_equal(parse_braid("s1 s2 s1"), parse_braid("s2 s1 s2"))

    def test_distinct_generators(self):
        assert not braid_equal(parse_braid("s1"), parse_braid("s2"))

    def test_strand_count_guard(self):
        three, four = parse_braid("s1"), BraidWord(4, ((3, 1),))
        with pytest.raises(ValueError) as expected:
            burau_matrix(four)
        for u, v in ((four, three), (three, four), (four, four)):
            with pytest.raises(ValueError) as raised:
                braid_equal(u, v)
            assert str(raised.value) == str(expected.value)

    def test_equal_pairs_with_different_offsets(self):
        rng = random.Random(31)
        offsets_differ = 0
        for _ in range(150):
            u = _random_runs_word(rng, rng.choice((5, 30, 100)), 4)
            cut = rng.randint(0, len(u.letters))
            relator = RELATOR ** rng.choice((1, -1, 2))
            v = BraidWord(3, u.letters[:cut]) * relator * BraidWord(3, u.letters[cut:])
            offsets_differ += _inverse_letters(u) != _inverse_letters(v)
            assert reference_burau(u) == reference_burau(v)
            assert braid_equal(u, v) and braid_equal(v, u)
        assert offsets_differ > 100

    def test_unequal_pairs_of_different_lengths(self):
        rng = random.Random(37)
        for _ in range(150):
            u = _random_runs_word(rng, rng.choice((5, 30, 100)), 4)
            v = _random_runs_word(rng, rng.choice((5, 30, 100)), 4)
            expected = reference_burau(u) == reference_burau(v)
            assert braid_equal(u, v) == expected == braid_equal(v, u)
        for word in PSEUDO_ANOSOV[:5]:
            assert not braid_equal(word, word * parse_braid("s1"))
            assert not braid_equal(word, word * word)
            assert not braid_equal(word, word * parse_braid("s1 s2^-1"))

    def test_unequal_exponent_sums_exit_before_packing(self, monkeypatch):
        # The determinant of the image is (-t)^(exponent sum), so unequal
        # sums answer False with no image packed, however long the runs.
        def unreachable(*args):
            raise AssertionError("packed a pair with unequal exponent sums")

        monkeypatch.setattr(burau, "_width", unreachable)
        monkeypatch.setattr(burau, "_pack", unreachable)
        assert not braid_equal(parse_braid("s1^1000000000"), parse_braid("s1^1000000001"))
        assert not braid_equal(parse_braid("s1^1000000000"), parse_braid("s2^-1000000000"))
        rng = random.Random(43)
        for _ in range(300):
            u, v = random_braid_word(rng, 30), random_braid_word(rng, 30)
            if sum(e for _, e in u.letters) != sum(e for _, e in v.letters):
                assert not braid_equal(u, v)
                assert reference_burau(u) != reference_burau(v)

    def test_equal_exponent_sums_are_packed(self, monkeypatch):
        # Pairs with equal sums reach the packed comparison, which still
        # tells unequal braids apart: β against β σ1 σ2^-1, and random pairs.
        calls = []
        pack = burau._pack

        def counted(word, k):
            calls.append(word)
            return pack(word, k)

        monkeypatch.setattr(burau, "_pack", counted)
        pairs = [(word, word * parse_braid("s1 s2^-1")) for word in PSEUDO_ANOSOV[:5]]
        rng = random.Random(47)
        while len(pairs) < 200:
            u, v = random_braid_word(rng, 30), random_braid_word(rng, 30)
            if sum(e for _, e in u.letters) == sum(e for _, e in v.letters):
                pairs.append((u, v))
        unequal = 0
        for u, v in pairs:
            expected = reference_burau(u) == reference_burau(v)
            assert braid_equal(u, v) == expected
            unequal += not expected
        assert len(calls) == 2 * len(pairs)
        assert unequal > 150

    def test_letter_limit(self):
        # The bit limit caps the letters: past 65,535 letters the width is at
        # least 24, so s1^174762 is the longest word, at 4,194,288 bits.  One
        # limit for both callers of the packing, checked before it and after
        # the exponent-sum exit.
        longest = 174_762
        over, at = BraidWord(3, ((1, longest + 1),)), BraidWord(3, ((1, longest),))
        assert _width(at) * longest <= burau.MAX_BURAU_BITS < 24 * (longest + 1)
        message = (
            f"the Burau image packs at most {burau.MAX_BURAU_BITS} bits "
            f"(width times letters), got {24 * (longest + 1)}"
        )
        for call in (lambda: burau_matrix(over), lambda: braid_equal(at * parse_braid("s2"), over)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert not braid_equal(over, at)
        assert burau_matrix(at).entries[0][0] == LaurentPoly(((longest, 1),))
        assert not braid_equal(at, BraidWord(3, ((2, longest),)))

    def test_bit_limit(self):
        # Width times letters, checked before packing; (s1 s2^-1)^1023 has
        # 2,046 letters at width 2,048, and one more letter widens it to 2,056.
        at = parse_braid(" ".join(["s1 s2^-1"] * 1023))
        over = at * parse_braid("s1")
        assert _width(at) * at.length == 4_190_208 <= burau.MAX_BURAU_BITS
        message = (
            f"the Burau image packs at most {burau.MAX_BURAU_BITS} bits "
            f"(width times letters), got {2056 * 2047}"
        )
        for call in (lambda: burau_matrix(over), lambda: braid_equal(over, over)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        assert not braid_equal(over, at)

    def test_families_against_reference(self):
        words = [w for family in FAMILIES.values() for w in family() if w.length <= 300]
        matrices = [reference_burau(w) for w in words]
        rng = random.Random(41)
        for _ in range(300):
            i, j = rng.randrange(len(words)), rng.randrange(len(words))
            assert braid_equal(words[i], words[j]) == (matrices[i] == matrices[j])

    def test_conjugation_identity_for_embedded_generator(self):
        # The automorphism x -> x y^-1 x realizes conjugation by σ2.
        from braidlab import FreeWord

        phi = conj_by_sigma2()
        s2 = parse_braid("s2")
        x = FreeWord(2, ((1, 1),))
        assert braid_equal(embed(phi(x)), s2.inverse() * embed(x) * s2)


class TestOracleAgreement:
    def test_sign_trivial_iff_equal(self):
        rng = random.Random(17)
        for trial in range(60):
            u = random_braid_word(rng, 30)
            if trial % 2 == 0:
                # Insert a trivial relator so the words differ but the braids agree.
                filler = parse_braid("s1 s2 s1 s2^-1 s1^-1 s2^-1")
                v = BraidWord(3, u.letters[: len(u.letters) // 2])
                rest = BraidWord(3, u.letters[len(u.letters) // 2 :])
                v = v * filler * rest
            else:
                v = random_braid_word(rng, 30)
            assert braid_equal(u, v) == dehornoy_sign(u.inverse() * v).is_trivial
