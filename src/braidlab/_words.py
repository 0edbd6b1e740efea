"""The run-word core shared by braid words and free-group words.

A word over a signed alphabet is stored as a sequence of runs
``(index, exponent)`` with every exponent nonzero and no two adjacent runs
sharing an index.  Free reduction is exactly run normalization: merge
adjacent runs with equal index, drop runs whose exponent becomes zero, and
cascade.  :func:`normalize` is the one place where it happens: :func:`invert`
maps reduced runs to reduced runs, :func:`concat` of two reduced sequences
only has to cancel at the seam, :func:`append_letter` only has to merge with
the last run, and :func:`power` and :func:`substitute` end in a single call
to :func:`normalize`.  Two merges live outside this module: in
:func:`braidlab.exotic.embed`, whose docstring proves that its images meet
with at most one merge per seam, and in :func:`braidlab.probe._random_runs`,
which merges each drawn letter into the open run as :func:`normalize` would.

:class:`RunWord` is the one base of :class:`~braidlab.braid.BraidWord` and
:class:`~braidlab.freegroup.FreeWord`: products, inverses, powers and
lengths are written once, here, and so are the constructor's validation and
the one text parser, :meth:`RunWord._parse`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

Run = tuple[int, int]
Runs = tuple[Run, ...]
_W = TypeVar("_W", bound="RunWord")

# The most characters of text :meth:`RunWord._parse` reads.  Parsing costs
# about 2 µs and 83 bytes a run, so one 45 MB line of 10^7 runs took 23.5 s
# and 992 MB; the limit admits the longest word the CLI prints, embed's image
# of y^500000 at embed's letter limit (5,499,999 characters).
MAX_TEXT_LENGTH = 2**23

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
# Each shared run to its shared inverse, so that :func:`invert` builds only
# the other runs.
_SHARED_INVERSES = {run: _SHARED_RUNS[run[0], -run[1]] for run in _SHARED_RUNS.values()}


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
    inverses = _SHARED_INVERSES
    return tuple([inverses.get(run) or (run[0], -run[1]) for run in reversed(pairs)])


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


def length(pairs: Iterable[Run]) -> int:
    """Number of single letters of a run sequence (sum of |exponent|)."""
    # A plain loop: on the words that verify signs (13.6 runs on average)
    # it took 0.63 µs a word, against 0.99 µs for sum(map(...)) and 1.30 µs
    # for sum() over a generator (CPython 3.11, 2-core VM).
    total = 0
    for _, exponent in pairs:
        total += exponent if exponent > 0 else -exponent
    return total


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


class RunWord:
    """A freely reduced word stored as runs: the base of the word classes.

    Subclasses are frozen dataclasses with two fields: the bound on the
    letter indices (the strand count or the rank), whose name is ``_BOUND``,
    and ``letters``, the reduced runs.  Everything else they hold is data:

    - ``_LEAST``, the least bound, at which there is one letter, so the top
      letter index is ``bound - _LEAST + 1``; ``_BOUND_ERROR`` and
      ``_RANGE_ERROR`` format the ``ValueError`` messages of a bound below
      ``_LEAST`` (given the bound) and of an index out of range (given the
      index and the bound);
    - ``_MISMATCH``: a product of two words with different bounds raises
      ``ValueError`` with the message ``"<_MISMATCH>: a != b"``;
    - the text alphabet read by :meth:`_parse`: ``_COMPACT`` maps a character
      to a run; a head is the one character ``_HEAD`` followed by an INT, or
      a key of ``_ALIAS``; ``_TOKEN`` names a letter in parse errors; and
      ``_letter_name(i)`` names letter i in text forms.

    The constructor checks the bound, normalizes the runs and checks every
    index: each word invariant is enforced here, once.
    """

    __slots__ = ()
    _BOUND: str
    _LEAST: int
    _BOUND_ERROR: str
    _RANGE_ERROR: str
    _MISMATCH: str
    _COMPACT: Mapping[str, Run]
    _HEAD: str
    _ALIAS: Mapping[str, int]
    _TOKEN: str

    def __post_init__(self):
        bound = getattr(self, self._BOUND)
        top = self._top_index(bound)
        letters = normalize(self.letters)
        for index, _ in letters:
            if not 1 <= index <= top:
                raise ValueError(self._RANGE_ERROR.format(index, bound))
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _top_index(cls, bound: int) -> int:
        """The top letter index for ``bound``; a bound below ``_LEAST`` raises."""
        if bound < cls._LEAST:
            raise ValueError(cls._BOUND_ERROR.format(bound))
        return bound - cls._LEAST + 1

    @classmethod
    def _parse(cls: type[_W], text: str, bound: int) -> _W:
        """The word that ``text`` spells, validated once, term by term.

        Text made only of ``_COMPACT`` characters and whitespace is read one
        letter per character.  Otherwise every whitespace-separated term is a
        head with an optional ``^SINT``.  A bound below ``_LEAST`` raises the
        constructor's ``ValueError`` before the text is read.  Terms are read
        and checked in text order, so the :class:`WordParseError` raised is
        that of the first bad term, with its byte offset: a malformed
        exponent, head or index, or an index out of range, whose message is
        the constructor's.  Text of more than ``MAX_TEXT_LENGTH`` characters
        raises ``ValueError`` before it is read.
        """
        top = cls._top_index(bound)
        if len(text) > MAX_TEXT_LENGTH:
            raise ValueError(
                f"word text takes at most {MAX_TEXT_LENGTH} characters, got {len(text)}"
            )
        squeezed = "".join(text.split())
        compact = bool(squeezed) and set(squeezed) <= cls._COMPACT.keys()
        runs = []
        for match in re.finditer(r"\S" if compact else r"\S+", text):
            term, offset = match.group(), match.start()
            if compact:
                index, exponent = cls._COMPACT[term]
            else:
                head, caret, tail = term.partition("^")
                if caret and not _SINT_RE.match(tail):
                    raise WordParseError(f"malformed exponent {tail!r}", offset)
                exponent = int(tail) if caret else 1
                if head in cls._ALIAS:
                    index = cls._ALIAS[head]
                elif not head.startswith(cls._HEAD):
                    raise WordParseError(f"malformed {cls._TOKEN} token {term!r}", offset)
                elif _INT_RE.match(head[1:]):
                    index = int(head[1:])
                else:
                    raise WordParseError(f"malformed {cls._TOKEN} index {head[1:]!r}", offset)
            if index > top:
                raise WordParseError(cls._RANGE_ERROR.format(index, bound), offset)
            runs.append((index, exponent))
        return cls._reduced(bound, normalize(runs))

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
        return length(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def single_letters(self) -> Iterator[Run]:
        """Yield ``(index, +1/-1)`` one letter at a time."""
        for index, exponent in self.letters:
            step = 1 if exponent > 0 else -1
            for _ in range(abs(exponent)):
                yield index, step

    @classmethod
    def _check_bounds(cls, bound: int, other_bound: int) -> None:
        """Raise the mismatch ``ValueError`` unless the two bounds agree."""
        if bound != other_bound:
            raise ValueError(f"{cls._MISMATCH}: {bound} != {other_bound}")

    def __mul__(self: _W, other: _W) -> _W:
        bound = getattr(self, self._BOUND)
        self._check_bounds(bound, getattr(other, self._BOUND))
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
