"""Braid words: parsing, free reduction, products, and exponent sums.

Words in the Artin braid group B_n live over the generators σ1 .. σ_{n-1}.
A :class:`BraidWord` is stored run-length encoded as ``(generator_index,
exponent)`` pairs and is always freely reduced, so all downstream algorithms
may assume reduced input: the public constructor normalizes and validates,
and library operations on reduced words build their results already reduced.
Values are immutable and safe to share across threads.

Text grammar (whitespace separated)::

    WORD := e | TERM (WS TERM)*      TERM := "s" INT ("^" SINT)?
    INT  := [1-9][0-9]*              SINT := "-"? INT

Three-strand words also admit the compact alphabet ``a/A/b/B`` for
σ1/σ1^{-1}/σ2/σ2^{-1}, e.g. ``"aB"`` for σ1 σ2^{-1}.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from . import _words
from ._words import WordParseError

__all__ = [
    "BraidWord",
    "WordParseError",
    "parse_braid",
    "free_reduce_braid",
    "braid_product",
    "braid_inverse",
    "exponent_sum",
    "half_twist",
]

_COMPACT = {"a": (1, 1), "A": (1, -1), "b": (2, 1), "B": (2, -1)}


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A freely reduced braid word on ``strands`` strands.

    ``letters`` holds ``(generator_index, exponent)`` runs with every index in
    ``[1, strands - 1]``, every exponent nonzero, and adjacent runs never
    sharing an index.  Arbitrary run sequences may be passed in; the public
    constructor normalizes and validates them.  Library operations on reduced
    words (inverse, powers, products, the half twist, handle reduction) build
    their results already reduced, through :meth:`_reduced`, and so normalize
    each produced word exactly once.
    """

    strands: int = 3
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"strand count must be at least 2, got {self.strands}")
        normalized = _words.normalize(self.letters)
        for index, _ in normalized:
            if not 1 <= index <= self.strands - 1:
                raise ValueError(
                    f"generator index {index} out of range for {self.strands} strands"
                )
        object.__setattr__(self, "letters", normalized)

    @classmethod
    def _reduced(cls, strands: int, letters: tuple[tuple[int, int], ...]) -> "BraidWord":
        """Wrap runs that are already reduced and in range, skipping validation."""
        word = object.__new__(cls)
        object.__setattr__(word, "strands", strands)
        object.__setattr__(word, "letters", letters)
        return word

    @property
    def length(self) -> int:
        """Number of single letters (sum of |exponent| over runs)."""
        return _words.letter_length(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def single_letters(self) -> Iterator[tuple[int, int]]:
        """Yield ``(index, +1/-1)`` one letter at a time."""
        return _words.expand(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return braid_product(self, other)

    def inverse(self) -> "BraidWord":
        return BraidWord._reduced(self.strands, _words.invert(self.letters))

    def __pow__(self, k: int) -> "BraidWord":
        return BraidWord._reduced(self.strands, _words.power(self.letters, k))

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """Canonical text form, e.g. ``"s1 s2^-1"``; empty string for 1."""
        parts = []
        for index, exponent in self.letters:
            parts.append(f"s{index}" if exponent == 1 else f"s{index}^{exponent}")
        return " ".join(parts)

    def to_compact(self) -> str:
        """Compact a/A/b/B form; only defined on three-strand words."""
        if self.strands != 3:
            raise ValueError("compact form is specific to 3 strands")
        table = {(1, 1): "a", (1, -1): "A", (2, 1): "b", (2, -1): "B"}
        return "".join(table[(i, s)] for i, s in self.single_letters())

    def to_json_dict(self) -> dict:
        return {"strands": self.strands, "letters": [list(run) for run in self.letters]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BraidWord":
        return cls(data["strands"], tuple((i, e) for i, e in data["letters"]))


def parse_braid(text: str, strands: int = 3) -> BraidWord:
    """Parse the s-grammar (or the compact three-strand alphabet).

    Whitespace-insensitive.  Raises :class:`WordParseError` with the byte
    offset of the offending token on malformed input or an out-of-range
    generator index.
    """
    squeezed = "".join(text.split())
    if squeezed and set(squeezed) <= set(_COMPACT):
        letters = []
        for offset, char in enumerate(text):
            if char.isspace():
                continue
            index, sign = _COMPACT[char]
            if index > strands - 1:
                raise WordParseError(
                    f"generator index {index} out of range for {strands} strands",
                    offset,
                )
            letters.append((index, sign))
        return BraidWord(strands, tuple(letters))

    letters = []
    for term, offset in _words.split_terms(text):
        head, exponent = _words.parse_exponent(term, offset)
        if not head.startswith("s"):
            raise WordParseError(f"malformed generator token {term!r}", offset)
        index = _words.parse_positive_int(head[1:], offset, "generator index")
        if not 1 <= index <= strands - 1:
            raise WordParseError(
                f"generator index {index} out of range for {strands} strands", offset
            )
        letters.append((index, exponent))
    return BraidWord(strands, tuple(letters))


def free_reduce_braid(word: BraidWord) -> BraidWord:
    """Return the freely reduced form of ``word``.

    Every :class:`BraidWord` is already reduced and values are immutable, so
    this returns its argument; it exists as the named reduction operation.
    """
    return word


def braid_product(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenate and freely reduce; strand counts must agree."""
    if u.strands != v.strands:
        raise ValueError(f"strand count mismatch: {u.strands} != {v.strands}")
    return BraidWord._reduced(u.strands, _words.concat(u.letters, v.letters))


def braid_inverse(u: BraidWord) -> BraidWord:
    """Reverse the letter order and negate every exponent."""
    return u.inverse()


def exponent_sum(word: BraidWord, generator: int | None = None) -> int:
    """Total exponent sum, or the sum over a single generator index."""
    if generator is None:
        return sum(e for _, e in word.letters)
    return sum(e for i, e in word.letters if i == generator)


def half_twist(power: int = 1) -> BraidWord:
    """The three-strand half twist Δ = σ1 σ2 σ1 raised to ``power``.

    Δ^2 generates the center of B_3 and is cofinal in the Dehornoy ordering;
    its exponent sum is 3 * power.
    """
    return BraidWord._reduced(3, _words.power(((1, 1), (2, 1), (1, 1)), power))
