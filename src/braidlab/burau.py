"""Exact word-problem oracle for B_3 via the reduced Burau representation.

The reduced Burau representation sends a three-strand braid to a 2x2 matrix
over the Laurent polynomial ring Z[t, t^{-1}], with the fixed convention

    σ1 -> [[-t, 1], [0, 1]]        σ2 -> [[1, 0], [t, -t]]

It is a classical fact (Magnus-Peluso) that this representation is faithful
for three strands, so matrix equality decides braid equality.  All
arithmetic is exact: coefficients are unbounded Python integers and no
rounding occurs anywhere.  Entries of long words grow without bound, which
is why fixed-width coefficients would silently corrupt the oracle.

This is the independent n = 3 oracle: the tests and the ``verify`` checks
of braid identities and trichotomy cross-check other methods against it,
and the ``burau`` command prints it.  Signs, comparisons and commutation
are decided by Dynnikov coordinates (:mod:`braidlab.dynnikov`) instead.
"""

from __future__ import annotations

import dataclasses

from .braid import BraidWord

__all__ = ["LaurentPoly", "LaurentMatrix", "burau_matrix", "braid_equal"]


def _add(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    if len(x) < len(y):
        x, y = y, x
    out = dict(x)
    for e, v in y.items():
        s = out.get(e, 0) + v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _shift(x: dict[int, int], k: int) -> dict[int, int]:
    return {e + k: v for e, v in x.items()}


def _neg_shift(x: dict[int, int], k: int) -> dict[int, int]:
    return {e + k: -v for e, v in x.items()}


@dataclasses.dataclass(frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial in one variable t.

    ``terms`` is sorted by exponent and stores no zero coefficients.
    """

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def t_power(cls, k: int, coefficient: int = 1) -> "LaurentPoly":
        return cls(((k, coefficient),)) if coefficient else cls()

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.from_dict(_add(self.as_dict(), other.as_dict()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly.from_dict(out)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(tuple((e + k, c) for e, c in self.terms))

    def __call__(self, value):
        """Evaluate at a value (typically an int or Fraction; needs value != 0
        only when negative exponents are present)."""
        total = 0
        for e, c in self.terms:
            total += c * value**e
        return total


@dataclasses.dataclass(frozen=True)
class LaurentMatrix:
    """A 2x2 matrix of Laurent polynomials.

    Burau images of generators have unit determinant (-t)^{+/-1}, so every
    word image is invertible over Z[t, t^{-1}].
    """

    entries: tuple[
        tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]
    ]

    @classmethod
    def identity(cls) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(((one, zero), (zero, one)))

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return LaurentMatrix(
            (
                (a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h),
            )
        )

    def determinant(self) -> LaurentPoly:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def evaluate(self, value) -> tuple[tuple[int, int], tuple[int, int]]:
        (a, b), (c, d) = self.entries
        return ((a(value), b(value)), (c(value), d(value)))

    def to_json_entries(self) -> list:
        """Entries as lists of [exponent, coefficient] pairs sorted by exponent."""
        return [
            [[list(term) for term in poly.terms] for poly in row]
            for row in self.entries
        ]


def burau_matrix(word: BraidWord) -> LaurentMatrix:
    """Reduced Burau image of a three-strand braid word.

    The empty word maps to the identity.  Implemented by right-multiplying
    the accumulated matrix by one generator image per letter; each generator
    image acts by shift/negate/add on the four entries, so no general
    polynomial multiplication is needed.
    """
    if word.strands != 3:
        raise ValueError("the reduced Burau oracle is specific to 3 strands")
    a: dict[int, int] = {0: 1}
    b: dict[int, int] = {}
    c: dict[int, int] = {}
    d: dict[int, int] = {0: 1}
    for index, sign in word.single_letters():
        if index == 1:
            if sign > 0:
                # M * [[-t, 1], [0, 1]]
                a, b = _neg_shift(a, 1), _add(a, b)
                c, d = _neg_shift(c, 1), _add(c, d)
            else:
                # M * [[-t^-1, t^-1], [0, 1]]
                sa, sc = _shift(a, -1), _shift(c, -1)
                a, b = _neg_shift(a, -1), _add(sa, b)
                c, d = _neg_shift(c, -1), _add(sc, d)
        else:
            if sign > 0:
                # M * [[1, 0], [t, -t]]
                a, b = _add(a, _shift(b, 1)), _neg_shift(b, 1)
                c, d = _add(c, _shift(d, 1)), _neg_shift(d, 1)
            else:
                # M * [[1, 0], [1, -t^-1]]
                a, b = _add(a, b), _neg_shift(b, -1)
                c, d = _add(c, d), _neg_shift(d, -1)
    return LaurentMatrix(
        (
            (LaurentPoly.from_dict(a), LaurentPoly.from_dict(b)),
            (LaurentPoly.from_dict(c), LaurentPoly.from_dict(d)),
        )
    )


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two three-strand words represent the same braid.

    Decided by comparing reduced Burau matrices; correctness rests on the
    faithfulness of the representation for three strands.
    """
    return burau_matrix(u) == burau_matrix(v)
