"""The run-word core shared by braid words and free-group words.

A word over a signed alphabet is stored as a sequence of runs
``(index, exponent)`` with every exponent nonzero and no two adjacent runs
sharing an index.  Free reduction is exactly run normalization: merge
adjacent runs with equal index, drop runs whose exponent becomes zero, and
cascade.  :func:`normalize` is the one place where it happens: :func:`invert`
maps reduced runs to reduced runs, :func:`concat` of two reduced sequences
only has to cancel at the seam, :func:`append_letter` only has to merge with
the last run, and :func:`power` and :func:`substitute` end in a single call
to :func:`normalize`.  The one merge outside this module is in
:func:`braidlab.exotic.embed`, whose docstring proves that its images meet
with at most one merge per seam.

:class:`RunWord` is the one base of :class:`~braidlab.braid.BraidWord` and
:class:`~braidlab.freegroup.FreeWord`: products, inverses, powers and
lengths are written once, here.  :func:`parse` is their one text parser.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

Run = tuple[int, int]
Runs = tuple[Run, ...]
_W = TypeVar("_W", bound="RunWord")

_INT_RE = re.compile(r"[1-9][0-9]*\Z")
_SINT_RE = re.compile(r"-?[1-9][0-9]*\Z")


class WordParseError(ValueError):
    """Malformed word text; ``offset`` is the byte offset of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# One shared tuple per small run, so that words hold references to these
# rather than copies of their own: runs with index <= 8 and |exponent| <= 8
# are 98.7% of the 218,870 runs in one pass of the sign-long benchmark.
_SHARED_RUNS = {(i, e): (i, e) for i in range(1, 9) for e in range(-8, 9) if e}


def normalize(pairs: Iterable[Run]) -> tuple[Run, ...]:
    """Freely reduce a run sequence, cascading merges through cancellations."""
    out: list[Run] = []
    for index, exponent in pairs:
        if exponent == 0:
            continue
        if out and out[-1][0] == index:
            exponent += out.pop()[1]
            if exponent == 0:
                continue
        run = (index, exponent)
        out.append(_SHARED_RUNS.get(run, run))
    return tuple(out)


def invert(pairs: Sequence[Run]) -> tuple[Run, ...]:
    """Reverse the runs and negate every exponent; reduced in, reduced out."""
    out: list[Run] = []
    for index, exponent in reversed(pairs):
        run = (index, -exponent)
        out.append(_SHARED_RUNS.get(run, run))
    return tuple(out)


def concat(left: tuple[Run, ...], right: tuple[Run, ...]) -> tuple[Run, ...]:
    """Product of two reduced run sequences: cancel and merge at the seam only."""
    i, j = len(left), 0
    while i and j < len(right) and left[i - 1][0] == right[j][0]:
        exponent = left[i - 1][1] + right[j][1]
        if exponent:
            run = (right[j][0], exponent)
            return left[: i - 1] + (_SHARED_RUNS.get(run, run),) + right[j + 1 :]
        i -= 1
        j += 1
    return left[:i] + right[j:]


def append_letter(runs: Runs, letter: int, sign: int) -> Runs:
    """Reduced runs followed by one letter that does not cancel their last run."""
    if runs and runs[-1][0] == letter:
        run = (letter, runs[-1][1] + sign)
        return runs[:-1] + (_SHARED_RUNS.get(run, run),)
    run = (letter, sign)
    return runs + (_SHARED_RUNS.get(run, run),)


def power(pairs: Sequence[Run], k: int) -> tuple[Run, ...]:
    base = invert(pairs) if k < 0 else tuple(pairs)
    return normalize(base * abs(k))


def substitution_table(images: Iterable[Runs]) -> dict[int, tuple[Runs, Runs]]:
    """The :func:`substitute` table that sends letter i to the i-th image."""
    return {i: (invert(image), image) for i, image in enumerate(images, 1)}


def substitute(pairs: Iterable[Run], table: Mapping[int, tuple[Runs, Runs]]) -> Runs:
    """Image of a run sequence under a homomorphism, normalized once.

    ``table[i]`` holds the runs of the images of the letters i^-1 and i, in
    that order (see :func:`substitution_table`).
    """
    out: list[Run] = []
    for index, exponent in pairs:
        out.extend(table[index][exponent > 0] * abs(exponent))
    return normalize(out)


def expand(pairs: Iterable[Run]) -> Iterator[Run]:
    """Yield single letters ``(index, +1/-1)``, one per unit of exponent."""
    for index, exponent in pairs:
        step = 1 if exponent > 0 else -1
        for _ in range(abs(exponent)):
            yield index, step


def letter_length(pairs: Iterable[Run]) -> int:
    return sum(abs(e) for _, e in pairs)


def split_terms(text: str) -> Iterator[tuple[str, int]]:
    """Split on whitespace, yielding ``(term, byte_offset)`` pairs."""
    for match in re.finditer(r"\S+", text):
        yield match.group(), match.start()


def parse_exponent(term: str, offset: int) -> tuple[str, int]:
    """Split a trailing ``^SINT`` off a term; returns (head, exponent)."""
    if "^" not in term:
        return term, 1
    head, _, tail = term.partition("^")
    if not _SINT_RE.match(tail):
        raise WordParseError(f"malformed exponent {tail!r}", offset)
    return head, int(tail)


def parse_positive_int(text: str, offset: int, what: str) -> int:
    if not _INT_RE.match(text):
        raise WordParseError(f"malformed {what} {text!r}", offset)
    return int(text)


def parse(
    text: str,
    compact: Mapping[str, Run],
    head_index: Callable[[str, str, int], int],
    top: int,
    out_of_range: Callable[[int], str],
) -> Runs:
    """Runs of a word text, not yet reduced.

    Text made only of ``compact`` characters and whitespace is read one
    letter ``compact[char]`` per character.  Otherwise every term is a head
    with an optional ``^SINT``, and ``head_index(head, term, offset)`` gives
    the letter index of the head or raises :class:`WordParseError`.  A letter
    index above ``top`` raises :class:`WordParseError` with the message
    ``out_of_range(index)``.  Terms are read and checked in text order, so
    the error reported is that of the first bad term.
    """
    squeezed = "".join(text.split())
    if squeezed and set(squeezed) <= compact.keys():
        terms: Iterable[tuple[Run, int]] = (
            (compact[char], offset) for offset, char in enumerate(text) if not char.isspace()
        )
    else:
        terms = _verbose_terms(text, head_index)
    runs = []
    for (index, exponent), offset in terms:
        if index > top:
            raise WordParseError(out_of_range(index), offset)
        runs.append((index, exponent))
    return tuple(runs)


def _verbose_terms(
    text: str, head_index: Callable[[str, str, int], int]
) -> Iterator[tuple[Run, int]]:
    for term, offset in split_terms(text):
        head, exponent = parse_exponent(term, offset)
        yield (head_index(head, term, offset), exponent), offset


class RunWord:
    """A freely reduced word stored as runs: the base of the word classes.

    Subclasses are frozen dataclasses with two fields: the bound on the
    letter indices (the strand count or the rank), whose name is ``_BOUND``,
    and ``letters``, the reduced runs.  They name letter i in text by
    ``_letter_name(i)``.  The product of two words with different bounds
    raises ``ValueError`` with the message ``"<_MISMATCH>: a != b"``.
    """

    __slots__ = ()
    _BOUND: str
    _MISMATCH: str

    @classmethod
    def _reduced(cls: type[_W], bound: int, letters: Runs) -> _W:
        """Wrap runs that are already reduced and in range, skipping validation."""
        word = object.__new__(cls)
        object.__setattr__(word, cls._BOUND, bound)
        object.__setattr__(word, "letters", letters)
        return word

    @property
    def length(self) -> int:
        """Number of single letters (sum of |exponent| over runs)."""
        return letter_length(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def single_letters(self) -> Iterator[Run]:
        """Yield ``(index, +1/-1)`` one letter at a time."""
        return expand(self.letters)

    def __mul__(self: _W, other: _W) -> _W:
        bound, other_bound = getattr(self, self._BOUND), getattr(other, self._BOUND)
        if bound != other_bound:
            raise ValueError(f"{self._MISMATCH}: {bound} != {other_bound}")
        return self._reduced(bound, concat(self.letters, other.letters))

    def inverse(self: _W) -> _W:
        return self._reduced(getattr(self, self._BOUND), invert(self.letters))

    def __pow__(self: _W, k: int) -> _W:
        return self._reduced(getattr(self, self._BOUND), power(self.letters, k))

    def to_text(self) -> str:
        """Canonical text form, one ``name`` or ``name^exponent`` per run; "" for 1."""
        name = self._letter_name
        return " ".join(name(i) if e == 1 else f"{name(i)}^{e}" for i, e in self.letters)

    def __str__(self) -> str:
        return self.to_text()
