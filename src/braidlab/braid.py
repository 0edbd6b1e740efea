"""Braid words: the s-grammar, text forms, exponent sums and the half twist.

Words in the Artin braid group B_n live over the generators σ1 .. σ_{n-1}.
A :class:`BraidWord` is a :class:`~braidlab._words.RunWord`: it is stored
run-length encoded as ``(generator_index, exponent)`` pairs and is always
freely reduced, so all downstream algorithms may assume reduced input.  The
run-word core validates, parses and normalizes; products (``*``), inverses
and powers come from it too and build their results already reduced.
Values are immutable and safe to share across threads.

Text grammar (whitespace separated)::

    WORD := e | TERM (WS TERM)*      TERM := "s" INT ("^" SINT)?
    INT  := [1-9][0-9]*              SINT := "-"? INT

Three-strand words also admit the compact alphabet ``a/A/b/B`` for
σ1/σ1^{-1}/σ2/σ2^{-1}, e.g. ``"aB"`` for σ1 σ2^{-1}.
"""

from __future__ import annotations

import dataclasses

from . import _words
from ._words import WordParseError

__all__ = [
    "BraidWord",
    "WordParseError",
    "parse_braid",
    "exponent_sum",
    "half_twist",
]


@dataclasses.dataclass(frozen=True)
class BraidWord(_words.RunWord):
    """A freely reduced braid word on ``strands`` strands.

    ``letters`` holds ``(generator_index, exponent)`` runs with every index in
    ``[1, strands - 1]``, every exponent nonzero, and adjacent runs never
    sharing an index.  Arbitrary run sequences may be passed in; the public
    constructor, inherited from the run-word core, normalizes them and
    validates the strand count and every index.  Library operations on
    reduced words (inverse, powers, products, parsing, the half twist, handle
    reduction) build their results already reduced, through :meth:`_reduced`,
    and so normalize each produced word exactly once.  A product of words on
    different strand counts raises ``ValueError``.  The class itself holds
    only data: the bound, its messages and the text alphabet.
    """

    _BOUND = "strands"
    _LEAST = 2
    _BOUND_ERROR = "strand count must be at least 2, got {}"
    _RANGE_ERROR = "generator index {} out of range for {} strands"
    _MISMATCH = "strand count mismatch"
    _COMPACT = {"a": (1, 1), "A": (1, -1), "b": (2, 1), "B": (2, -1)}
    _HEAD, _ALIAS, _TOKEN = "s", {}, "generator"

    strands: int = 3
    letters: tuple[tuple[int, int], ...] = ()

    def _letter_name(self, index: int) -> str:
        """Text forms read ``s1 s2^-1``."""
        return f"s{index}"


def parse_braid(text: str, strands: int = 3) -> BraidWord:
    """Parse the s-grammar (or the compact three-strand alphabet).

    Whitespace-insensitive.  Raises :class:`WordParseError` with the byte
    offset of the offending token on malformed input or an out-of-range
    generator index.  A strand count below 2 raises the constructor's
    ``ValueError`` before the text is read.
    """
    return BraidWord._parse(text, strands)


def exponent_sum(word: BraidWord) -> int:
    """Total exponent sum: the image of the word under B_n -> Z."""
    return sum(e for _, e in word.letters)


def half_twist(power: int = 1) -> BraidWord:
    """The three-strand half twist Δ = σ1 σ2 σ1 raised to ``power``.

    Δ^2 generates the center of B_3 and is cofinal in the Dehornoy ordering;
    its exponent sum is 3 * power.
    """
    return BraidWord._reduced(3, _words.power(((1, 1), (2, 1), (1, 1)), power))
