"""Exact word-problem oracle for B_3 via the reduced Burau representation.

The reduced Burau representation sends a three-strand braid to a 2x2 matrix
over the Laurent polynomial ring Z[t, t^{-1}], with the fixed convention

    σ1 -> [[-t, 1], [0, 1]]        σ2 -> [[1, 0], [t, -t]]

It is a classical fact (Magnus-Peluso) that this representation is faithful
for three strands, so matrix equality decides braid equality.  All
arithmetic is exact: coefficients are unbounded Python integers and no
rounding occurs anywhere.  Entries of long words grow without bound, which
is why fixed-width coefficients would silently corrupt the oracle.

This is the independent n = 3 oracle: the tests and the ``verify`` check
of braid identities cross-check other methods against it, and the
``burau`` command prints it.  Signs, comparisons and commutation
are decided by Dynnikov coordinates (:mod:`braidlab.dynnikov`) instead.
The determinant of the image is (-t)^s, s the exponent sum, so
:func:`braid_equal` answers a pair with different sums without packing
either image.  Both callers of the packing refuse a word whose width times
letters pass ``MAX_BURAU_BITS``, since the packing's work and the image's
size grow with them.

The packed integers below are the only Burau arithmetic.  :func:`burau_matrix`
decodes them into records with no ring operations: a :class:`LaurentMatrix`
of four :class:`LaurentPoly`, each a tuple of ``terms`` sorted by exponent.

Packed layout.  The entries of σ_i are in {0, ±1, ±t} and those of σ_i^-1
in t^-1 {0, ±1, ±t}, so the image of a word with e inverse letters is
t^-e [[a, b], [c, d]] with a, b, c, d polynomials in t.  The kernel keeps
each of them evaluated at t = 2^k, as one Python integer, and multiplies on
the right by the image of one run at a time.  For one letter the step is a
shift to the left or an add:

    σ1      a, b = -(a << k), a + b
    σ1^-1   a, b = -a, a + (b << k)            e += 1
    σ2      a, b = a + (b << k), -(b << k)
    σ2^-1   a, b = (a + b) << k, -b            e += 1

with c, d updated as a, b.  A run σ_i^{±m} applies the m-th power of its
letter's image in one step, in the closed form given at :func:`_pack`, and
nothing is ever shifted right.

Width.  Let |p| be the sum of the absolute values of the coefficients of p,
and the norm of a row (p, q) be |p| + |q|.  Since |pq| <= |p| |q|, a row
times a matrix has norm at most the row's norm times the largest row norm
of the matrix.  The rows of σ_i^n and σ_i^-n have norms 1 and |n| + 1: their
entries are 0, ±t^j, or sums of |n| signed powers of t.  The rows of the
identity have norm 1, and the factor t^e changes no norm, so after runs
n_1, ..., n_r every coefficient c of a, b, c, d satisfies

    |c| <= (|n_1| + 1) ... (|n_r| + 1) <= 2^B,   B = Σ bit_length(|n_j|),

because |n| + 1 <= 2^bit_length(|n|); B is at most the letter count.  Any
k >= B + 2 gives |c| < 2^(k-1).  A polynomial p with such coefficients is
determined by p(2^k): its constant term is the residue of p(2^k) modulo 2^k
taken in (-2^(k-1), 2^(k-1)), and the rest follows by induction on
(p(2^k) - p(0)) / 2^k.  So equal integers mean equal polynomials.  The
bound is strict for a nonempty word.  In a row with one nonzero entry, that
entry divides the unit determinant (-t)^(n_1 + ... + n_r), so it is ±t^j;
in a row with two, each coefficient is below the row norm.  :func:`_width`
takes k = B + 2 rounded up to whole bytes, which lets :func:`burau_matrix`
decode through ``int.to_bytes``.

Cost.  The packed integers have at most k (L + 1) bits for a word of L
letters.  A letter costs two to four shifts and adds on them, and a run
σ_i^{±m} costs O(log m) of them (:func:`_times_sum`) in place of m letters,
so a single long run costs time about k m log m instead of quadratic:
``burau s1^100000`` takes a fraction of a second.  :func:`braid_equal`
compares four integers and never decodes; :func:`burau_matrix` decodes
once, in time linear in the packed size.
"""

from __future__ import annotations

import dataclasses

from .braid import BraidWord, exponent_sum

__all__ = ["LaurentPoly", "LaurentMatrix", "burau_matrix", "braid_equal"]


@dataclasses.dataclass(frozen=True)
class LaurentPoly:
    """A decoded entry: (exponent, coefficient) ``terms`` sorted by exponent,
    with no zero coefficients.  A record, not a ring."""

    terms: tuple[tuple[int, int], ...] = ()


@dataclasses.dataclass(frozen=True)
class LaurentMatrix:
    """A decoded image: the 2x2 ``entries`` as rows of :class:`LaurentPoly`."""

    entries: tuple[
        tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]
    ]

    def to_json_entries(self) -> list:
        """Entries as lists of [exponent, coefficient] pairs sorted by exponent."""
        return [
            [[list(term) for term in poly.terms] for poly in row]
            for row in self.entries
        ]


def _check(word: BraidWord) -> None:
    if word.strands != 3:
        raise ValueError("the reduced Burau oracle is specific to 3 strands")


# The most bits k L, the width k of :func:`_width` times the letters L of
# the longest word, checked once before every packing.  A packed entry has
# at most k (L + 1) bits, and each of the r < k runs shifts and adds entries
# of that size, so the work grows as k^2 L: 50 copies of s1^1000 s2^-1000,
# 10^5 letters at k = 1,008, took 15 s with a 432 MB peak.  The limit also
# caps the letters: k >= bit_length(L) + 2 rounded up to bytes, so past
# 65,535 letters k >= 24 and L <= 174,762.  Measured at the limit in fresh
# processes capped at 1 GiB (2-core VM), `burau --json` of s1^174762, the
# most letters, took 0.37-0.49 s with a 51 MB peak (s1^100000: 0.25 s,
# 37 MB); (s1 s2^-1)^1023, 2,046 single-letter runs at k = 2,048, the
# costliest shape per bit, took 0.9-1.1 s with a 27 MB peak, and
# (s1 s2)^1023 0.38-0.45 s with 18 MB.  s1^1000000 took 1.7 s and 220 MB
# and s1^10000000 ran out of memory in its decode before this limit.  The
# tests pack at most 4,194,288 bits, and random 3,200-letter words, the
# longest the benchmark's sweep packs, about 2.9 million.
MAX_BURAU_BITS = 2**22


def _width(*words: BraidWord) -> int:
    """B + 2 rounded up to whole bytes, for the largest B of the words.

    A word whose letters times the width exceed ``MAX_BURAU_BITS`` raises
    ValueError."""
    longest = max(word.length for word in words)
    bound = max(sum(abs(n).bit_length() for _, n in word.letters) for word in words)
    k = (bound + 9) // 8 * 8
    if k * longest > MAX_BURAU_BITS:
        raise ValueError(
            f"the Burau image packs at most {MAX_BURAU_BITS} bits (width times letters), "
            f"got {k * longest}"
        )
    return k


def _pack(word: BraidWord, k: int) -> tuple[int, int, int, int, int]:
    """``(e, a, b, c, d)``: the image is t^-e [[a, b], [c, d]] at t = 2^k.

    A run σ_i^{±m} is applied in one step, from the powers of the generator
    images.  With T = 2^k, s = (-1)^m and the geometric sum
    S = Σ_{j<m} (-T)^j = (1 - s T^m) / (1 + T),

        σ1^m = [[s T^m, S], [0, 1]]        t^m σ1^-m = [[s, -s S], [0, T^m]]
        σ2^m = [[1, 0], [T S, s T^m]]      t^m σ2^-m = [[T^m, 0], [-s T S, s]]

    each by induction on m from the one-letter step; ``e`` counts the
    factors t^m.  So a run shifts a column by k m, adds ±S times the other
    column to it, and negates a column when m is odd.  At m = 1, where
    S = 1, these are the one-letter steps of the module docstring, shift for
    shift: the factor T of a σ2 row is shifted in once, before the sum for
    σ2^m and after it for σ2^-m.  At m = 1 the call to :func:`_times_sum`
    and the shifts by k (m - 1) are skipped: they are the identity there,
    but CPython copies an integer shifted by 0.  Without these skips random
    40-letter words packed 15-25% slower than with the one-letter steps;
    with them, 3-6% (in-process, best of 15).
    """
    a, b, c, d, e = 1, 0, 0, 1, 0
    for index, n in word.letters:
        if n < 0:
            e -= n
        m = abs(n)
        odd = m & 1
        if index == 1:
            x, z = (a, c) if m == 1 else _times_sum(a, c, k, m)
            if n > 0:
                a, b, c, d = a << k * m, b + x, c << k * m, d + z
            elif odd:
                b, d = (b << k * m) + x, (d << k * m) + z
            else:
                b, d = (b << k * m) - x, (d << k * m) - z
            if odd:
                a, c = -a, -c
        elif n > 0:
            b, d = b << k, d << k
            x, z = (b, d) if m == 1 else _times_sum(b, d, k, m)
            a, c = a + x, c + z
            if m > 1:
                b, d = b << k * (m - 1), d << k * (m - 1)
            if odd:
                b, d = -b, -d
        else:
            x, z = (b, d) if m == 1 else _times_sum(b, d, k, m)
            if m > 1:
                a, c = a << k * (m - 1), c << k * (m - 1)
            if odd:
                a, c = (a + x) << k, (c + z) << k
                b, d = -b, -d
            else:
                a, c = (a - x) << k, (c - z) << k
    return e, a, b, c, d


def _times_sum(x: int, z: int, k: int, m: int) -> tuple[int, int]:
    """(x S, z S) for the geometric sum S = Σ_{j<m} (-2^k)^j, m >= 1.

    Doubling m from S_1 = 1, with S_2n = S_n + (-2^k)^n S_n and
    S_(n+1) = 1 - 2^k S_n, takes O(log m) shifts and adds.  Multiplying by S
    itself, a k m-bit integer, costs more than m one-letter steps when the
    entries are wide and m is small: it made a 3,200-letter random word
    about five times slower.
    """
    x0, z0, n = x, z, 1
    for bit in bin(m)[3:]:
        shift = k * n
        if n & 1:
            x, z = x - (x << shift), z - (z << shift)
        else:
            x, z = x + (x << shift), z + (z << shift)
        n *= 2
        if bit == "1":
            x, z = x0 - (x << k), z0 - (z << k)
            n += 1
    return x, z


def _unpack(value: int, k: int, e: int) -> LaurentPoly:
    """t^-e p, where value = p(2^k) and the coefficients of p are below
    2^(k-1) in absolute value.

    Adding 2^(k-1) to every digit makes all digits positive without carries,
    so the digits are whole-byte slices of one ``to_bytes``.
    """
    size = k // 8
    count = value.bit_length() // k + 1
    half = 1 << (k - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    data = (value + bias).to_bytes(size * count, "little")
    terms = []
    for j in range(count):
        c = int.from_bytes(data[j * size : (j + 1) * size], "little") - half
        if c:
            terms.append((j - e, c))
    return LaurentPoly(tuple(terms))


def burau_matrix(word: BraidWord) -> LaurentMatrix:
    """Reduced Burau image of a three-strand braid word.

    The empty word maps to the identity.  The image is packed at the width
    of :func:`_width` (see the module docstring) and decoded once.  A word
    past ``MAX_BURAU_BITS`` raises ValueError.
    """
    _check(word)
    k = _width(word)
    e, *packed = _pack(word, k)
    a, b, c, d = (_unpack(x, k, e) for x in packed)
    return LaurentMatrix(((a, b), (c, d)))


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two three-strand words represent the same braid.

    Words with different exponent sums are unequal braids, and are answered
    with no packing: the image of a word of exponent sum s has determinant
    (-t)^s, the product of the determinants -t and (-t)^-1 of its letters,
    so equal images have equal sums.

    Otherwise both images are packed at one common width.  t^-e P = t^-f Q
    exactly when t^(f-e) P = Q for e <= f, so the image with fewer inverse
    letters is shifted left by k (f - e) and the four integers are compared
    without decoding.  Correctness rests on the faithfulness of the
    representation for three strands.  A pair with equal sums and a word
    past ``MAX_BURAU_BITS`` (at the common width)
    raises ValueError.
    """
    _check(u)
    _check(v)
    if exponent_sum(u) != exponent_sum(v):
        return False
    k = _width(u, v)
    e, *p = _pack(u, k)
    f, *q = _pack(v, k)
    if e > f:
        e, f, p, q = f, e, q, p
    shift = k * (f - e)
    return all(x << shift == y for x, y in zip(p, q))
