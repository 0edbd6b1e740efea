"""Handle reduction and the Dehornoy ordering of braid words.

A word is *i-positive* when the lowest generator index occurring in it is i
and σ_i appears with positive exponents only; the positive cone of the
Dehornoy ordering consists of the braids admitting an i-positive
representative for some i.  Signs and commutation are decided here from
Dynnikov coordinates (:mod:`braidlab.dynnikov`), for every strand count,
with a number of coordinate updates linear in the runs of the word.

A *handle* is a subword σ_i^e v σ_i^{-e} (e = +/-1) whose interior v uses
only generator indices > i.  Handle reduction removes handles while
preserving the braid; a handle-free word is either empty or
i-positive/i-negative in its lowest occurring index.  It gives the traced
reduction of ``reduce`` and an independent check of the signs.

A σ_i-handle may be reduced once its interior contains no σ_{i+1}-handle.
The handle whose closing letter comes first in the word always satisfies
this (any interior handle would close even earlier), so repeatedly reducing
the leftmost handle is both deterministic and always permitted.

Reduction of σ_i^e v σ_i^{-e}: drop the two flanking letters and replace
each σ_{i+1}^d letter of v by σ_{i+1}^{-e} σ_i^d σ_{i+1}^e, leaving indices
>= i+2 untouched, then freely reduce.  Termination is guaranteed for three
strands (and holds in general, but with impractical bounds), so a step
budget guards every reduction; exceeding it raises
:class:`BudgetExceededError` rather than looping.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Sequence

from . import _words
from .braid import BraidWord, half_twist
from .dynnikov import run_coordinates

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "TRIVIAL",
    "LESS",
    "EQUAL",
    "GREATER",
    "BUDGET_ENV_VAR",
    "BudgetExceededError",
    "CofinalCapError",
    "Handle",
    "OrderVerdict",
    "TraceStep",
    "handle_reduce",
    "handle_reduce_trace",
    "dehornoy_sign",
    "braid_compare",
    "cofinal_bound",
    "commutes",
]

POSITIVE = "positive"
NEGATIVE = "negative"
TRIVIAL = "trivial"

LESS = "less"
EQUAL = "equal"
GREATER = "greater"

# The verdict on u against v for each kind of sign of u^-1 v.
_COMPARISON = {POSITIVE: LESS, NEGATIVE: GREATER, TRIVIAL: EQUAL}

BUDGET_ENV_VAR = "BRAIDLAB_BUDGET"
_STEPS_PER_LETTER = 1_000_000


class BudgetExceededError(RuntimeError):
    """Handle reduction ran out of its step budget.

    Signals a strategy bug or an unsupported input (reduction on more than
    three strands is best-effort only).
    """

    def __init__(self, word: BraidWord, steps: int):
        super().__init__(
            f"handle reduction exceeded {steps} steps on a word of length {word.length}"
        )
        self.word = word
        self.steps = steps


class CofinalCapError(RuntimeError):
    """The cofinal-power search hit its cap; raise the cap to continue."""

    def __init__(self, word: BraidWord, cap: int):
        super().__init__(f"no k <= {cap} with the given word below Δ^(2k)")
        self.word = word
        self.cap = cap


@dataclasses.dataclass(frozen=True)
class Handle:
    """A handle located in the single-letter expansion of a word.

    ``start`` and ``end`` are 0-based positions of the flanking letters, so
    the letters ``start .. end`` inclusive spell σ_index^sign v
    σ_index^{-sign}.
    """

    start: int
    end: int
    index: int
    sign: int


@dataclasses.dataclass(frozen=True)
class OrderVerdict:
    """Sign of a braid in the Dehornoy ordering.

    ``kind`` is trivial exactly when the braid is the identity; otherwise
    ``main_index`` is the i of an i-positive or i-negative representative
    (the lowest generator index of the handle-free one) and ``kind`` is the
    common sign of its σ_i exponents.
    """

    kind: str
    main_index: int | None = None

    @property
    def is_positive(self) -> bool:
        return self.kind == POSITIVE

    @property
    def is_trivial(self) -> bool:
        return self.kind == TRIVIAL

    def comparison(self) -> str:
        """LESS, EQUAL or GREATER for u against v, when this is the sign of u^-1 v."""
        return _COMPARISON[self.kind]

    def negated(self) -> "OrderVerdict":
        if self.kind == TRIVIAL:
            return self
        return OrderVerdict(NEGATIVE if self.kind == POSITIVE else POSITIVE, self.main_index)

    def __str__(self) -> str:
        if self.kind == TRIVIAL:
            return TRIVIAL
        return f"{self.kind}({self.main_index})"


@dataclasses.dataclass(frozen=True)
class TraceStep:
    step: int
    handle: Handle
    word: BraidWord


def _resolve_budget(length: int, budget: int | None) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        try:
            budget = _STEPS_PER_LETTER * max(1, length) if env is None else int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if budget >= 0:
        return budget
    raise ValueError(f"the step budget must be nonnegative, got {budget}")


def _leftmost_handle(runs: tuple[tuple[int, int], ...]) -> tuple[int, int] | None:
    """Positions (p, q) of the handle with the earliest closing run, if any.

    A handle closes at run q when the nearest earlier run with index <= the
    q-run's index has equal index and opposite sign.
    """
    for q in range(1, len(runs)):
        index = runs[q][0]
        for p in range(q - 1, -1, -1):
            p_index = runs[p][0]
            if p_index > index:
                continue
            if p_index == index and (runs[p][1] > 0) != (runs[q][1] > 0):
                return p, q
            break
    return None


def _expanded_span(runs: tuple[tuple[int, int], ...], p: int, q: int) -> tuple[int, int]:
    start = sum(abs(e) for _, e in runs[: p + 1]) - 1
    return start, start + 1 + sum(abs(e) for _, e in runs[p + 1 : q])


def _apply_handle(
    runs: tuple[tuple[int, int], ...], p: int, q: int
) -> tuple[tuple[int, int], ...]:
    index = runs[p][0]
    e = 1 if runs[p][1] > 0 else -1
    out: list[tuple[int, int]] = list(runs[:p])
    out.append((index, runs[p][1] - e))
    for j, d in runs[p + 1 : q]:
        if j == index + 1:
            out.extend(((j, -e), (index, d), (j, e)))
        else:
            out.append((j, d))
    out.append((index, runs[q][1] + e))
    out.extend(runs[q + 1 :])
    return _words.normalize(out)


def _reduce(word: BraidWord, budget: int | None, trace: list[TraceStep] | None) -> BraidWord:
    runs = word.letters
    limit = _resolve_budget(word.length, budget)
    steps = 0
    while True:
        found = _leftmost_handle(runs)
        if found is None:
            return BraidWord._reduced(word.strands, runs)
        if steps >= limit:
            raise BudgetExceededError(word, steps)
        p, q = found
        if trace is not None:
            start, end = _expanded_span(runs, p, q)
            sign = 1 if runs[p][1] > 0 else -1
            handle = Handle(start, end, runs[p][0], sign)
        runs = _apply_handle(runs, p, q)
        steps += 1
        if trace is not None:
            trace.append(TraceStep(steps, handle, BraidWord._reduced(word.strands, runs)))


def handle_reduce(word: BraidWord, budget: int | None = None) -> BraidWord:
    """Fully handle-free word representing the same braid.

    The default budget is 10^6 steps per input letter; the environment
    variable ``BRAIDLAB_BUDGET`` (an absolute step count) overrides it, and
    an explicit ``budget`` argument overrides both.  A negative budget
    raises :class:`ValueError`.
    """
    return _reduce(word, budget, None)


def handle_reduce_trace(
    word: BraidWord, budget: int | None = None
) -> tuple[BraidWord, list[TraceStep]]:
    """Like :func:`handle_reduce` but also returns one record per step."""
    trace: list[TraceStep] = []
    reduced = _reduce(word, budget, trace)
    return reduced, trace


def dehornoy_sign(word: BraidWord) -> OrderVerdict:
    """Dehornoy sign of a braid word on any number of strands.

    A word whose lowest generator index occurs with one sign only is
    σ-definite as written, and its sign is read straight off the word.
    Otherwise the sign is that of the first nonzero entry of
    (x_1, y_1 - 1, x_2, y_2 - 1, ...) of the Dynnikov coordinates, which
    cost a few updates per run (see :mod:`braidlab.dynnikov`).  On more than
    three strands the touched indices are first relabeled onto 1, 2, ...,
    with every gap between them shrunk to one untouched strand, so neither a
    huge generator index nor the strand count costs anything.
    """
    return OrderVerdict(*_sign(word.letters, word.strands))


def _sign(runs: Sequence[_words.Run], strands: int) -> tuple[str, int | None]:
    """Kind and main index of the braid of reduced ``runs``; see :func:`dehornoy_sign`."""
    if not runs:
        return TRIVIAL, None
    main = min(runs)[0]
    positive = negative = False
    for index, exponent in runs:
        if index == main:
            if exponent > 0:
                positive = True
            else:
                negative = True
            if positive and negative:
                break
    else:  # σ_main occurs with one sign only
        return (POSITIVE if positive else NEGATIVE), main
    back = _UNCHANGED
    if strands > 3:
        # Send the distinct generator indices onto 1, 2, ..., shrinking every
        # gap between them to one untouched strand.  Consecutive indices stay
        # consecutive and a gap stays a gap, so the map sends the subgroup
        # the indices generate isomorphically onto the one their images
        # generate: each block of adjacent generators keeps its braid
        # relations, and distinct blocks still commute.  It is monotone, so
        # it also maps handles to handles and commutes with handle
        # reduction: the image has the kind of the word and the image of its
        # main index, which ``back`` maps back.
        back = {}
        labels: dict[int, int] = {}
        label = previous = 0
        for index in sorted({index for index, _ in runs}):
            label += 1 if index == previous + 1 or not labels else 2
            labels[index] = label
            back[label] = index
            previous = index
        runs = [(labels[index], exponent) for index, exponent in runs]
        strands = label + 1
    xs, ys = run_coordinates(runs, strands)
    for k in range(strands):
        entry = xs[k] or ys[k] - 1
        if entry:
            return (POSITIVE if entry > 0 else NEGATIVE), back[k + 1]
    return TRIVIAL, None


# The map back on three strands or fewer, where there is no gap to shrink
# and no large index, so ``_sign`` keeps the indices: building the map anyway
# took 16% of the time of signing the 200-1600-letter three-strand words of
# the ``sign-long`` benchmark, measured in-process on a 2-core VM.
_UNCHANGED = {1: 1, 2: 2, 3: 3}


def braid_compare(u: BraidWord, v: BraidWord) -> str:
    """Compare two braids in the Dehornoy ordering: u < v iff u^{-1} v is
    Dehornoy-positive; words on different strand counts raise ValueError."""
    return dehornoy_sign(u.inverse() * v).comparison()


def cofinal_bound(word: BraidWord, cap: int = 64) -> int:
    """Least k >= 1 with ``word`` below Δ^(2k) in the Dehornoy ordering.

    Searches k = 1, 2, ... up to ``cap``; raises :class:`CofinalCapError`
    beyond it (Δ^2 is cofinal, so a bound always exists for three strands).
    A ``cap`` below 1 admits no k and raises ValueError.
    """
    if word.strands != 3:
        raise ValueError("cofinal bounds are specific to 3 strands")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    for k in range(1, cap + 1):
        if braid_compare(word, half_twist(2 * k)) == LESS:
            return k
    raise CofinalCapError(word, cap)


def commutes(u: BraidWord, v: BraidWord) -> bool:
    """Whether two braids on the same number of strands commute.

    Decided as whether the commutator u v u^-1 v^-1 is trivial, by the sign
    core of :func:`dehornoy_sign`: the Dynnikov action is faithful, so one
    coordinate pass answers for every strand count, with a few coordinate
    updates per run.
    """
    return _sign((u * v * u.inverse() * v.inverse()).letters, u.strands)[0] == TRIVIAL
