"""Handle reduction and the Dehornoy ordering of braid words.

A word is *i-positive* when the lowest generator index occurring in it is i
and σ_i appears with positive exponents only; the positive cone of the
Dehornoy ordering consists of the braids admitting an i-positive
representative for some i.  Signs and commutation are decided here from
Dynnikov coordinates (:mod:`braidlab.dynnikov`), for every strand count,
with a number of coordinate updates linear in the runs of the word.  The
cofinal bound of a three-strand word is read off the lifted SL(2, Z) action
of :func:`_lift`, in one pass and with no comparison, and so is the
three-strand sign of :func:`_lifted_sign`: the sandwich samplers of
``verify`` accept their 1-positive bases by it, so they do not depend on the
sign function under test.

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
from typing import Sequence

from . import _words
from .braid import BraidWord, exponent_sum
from .dynnikov import run_coordinates

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "TRIVIAL",
    "LESS",
    "EQUAL",
    "GREATER",
    "BudgetExceededError",
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
        budget = _STEPS_PER_LETTER * max(1, length)
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

    ``budget`` is an absolute step count; ``None`` means 10^6 steps per
    input letter.  A negative budget raises :class:`ValueError`.
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
    return _COMPARISON[_sign((u.inverse() * v).letters, u.strands)[0]]


def _lift(runs: Sequence[_words.Run]) -> tuple[int, int, int]:
    """The lifted SL(2, Z) action of reduced three-strand ``runs`` on (0, 1):
    the image (a, b) and its whole turns c.

    The map σ1 -> [[1, 1], [0, 1]], σ2 -> [[1, 0], [-1, 1]], with the action
    of each shear on the circle of directions lifted to Homeo+(R), R being
    the universal cover of the circle, is a homomorphism of B3: both sides
    of σ1 σ2 σ1 = σ2 σ1 σ2 lift [[0, 1], [-1, 0]], and both turn (1, 0) a
    quarter turn clockwise.  Two lifts of one matrix differ by whole turns,
    so these two agree.  σ2 fixes the lifted ray of (0, 1), σ1 moves it
    clockwise, and every map is increasing.  So σ1-positive words move the
    ray clockwise, σ1-negative words move it counterclockwise, and the
    σ1-free braids, the powers of σ2, fix it.  By Dehornoy's trichotomy
    every braid is of one of these three kinds (Dehornoy-Dynnikov-Rolfsen-
    Wiest, *Ordering Braids*, 2008).

    The runs act right to left on v = (a, b), from (0, 1).  σ1^k sets
    a += k b, moving v along a horizontal line, and σ2^k sets b -= k a,
    moving it along a vertical one.  The lift is the angle Θ of v counted
    clockwise from (0, 1), as c whole turns plus an angle φ in (-π, π]; only
    a σ1 run with b < 0 can cross the cut at (0, -1), clockwise when a goes
    from a >= 0 to a < 0 and counterclockwise the other way.  So the braid
    is 1-positive exactly when Θ > 0 (c > 0, or c = 0 with a > 0 or with
    a = 0 > b), 1-negative when Θ < 0, and a power of σ2 when Θ = 0.
    """
    a, b, c = 0, 1, 0
    for index, k in reversed(runs):
        if index == 1:
            moved = a + k * b
            if b < 0 and (a >= 0) != (moved >= 0):
                c += 1 if a >= 0 else -1
            a = moved
        else:
            b -= k * a
    return a, b, c


def _lifted_sign(runs: Sequence[_words.Run]) -> tuple[str, int | None]:
    """Kind and main index of the braid of reduced three-strand ``runs``,
    read from the lifted angle Θ of :func:`_lift`, whose docstring proves
    it: Θ > 0 is 1-positive, Θ < 0 is 1-negative, and Θ = 0 is the power of
    σ2 whose exponent is the exponent sum of the word.  Independent of
    Dynnikov coordinates and of handle reduction, so it checks both."""
    a, b, c = _lift(runs)
    if c > 0 or (c == 0 and (a > 0 or a == 0 > b)):
        return POSITIVE, 1
    if c < 0 or a < 0:  # c <= 0 here
        return NEGATIVE, 1
    total = sum(k for _, k in runs)
    if total == 0:
        return TRIVIAL, None
    return (POSITIVE if total > 0 else NEGATIVE), 2


def cofinal_bound(word: BraidWord) -> int:
    """Least k >= 1 with ``word`` below Δ^(2k) in the Dehornoy ordering, from
    one pass of :func:`_lift` over the inverse word and no comparison.

    Δ^2 = (σ1 σ2)^3 maps to -I, and its lift takes (0, 1) to (0, -1) with
    c = 0: it is the translation by a half turn, π, which commutes with
    every lift.  Δ^2 is central, so β < Δ^(2k) exactly when β^-1 Δ^(2k) > 1,
    whose angle is Θ + kπ, Θ the angle of β^-1.  With Θ = 2πc + φ, φ in
    (-π, π]:

    - φ in (0, π) (a > 0): Θ + kπ > 0 from k = -2c on;
    - φ in (-π, 0) (a < 0): from k = -2c + 1 on;
    - φ = 0 (a = 0 < b) or φ = π (a = 0 > b): Θ + kπ > 0 from k0 + 1 on,
      k0 = -2c or -2c - 1, and at k0 itself β^-1 Δ^(2k0) is a power of σ2,
      σ2^(6 k0 - e) with e the exponent sum of β, which is above 1 exactly
      when 6 k0 > e.

    The answer is the first such k, or 1 if that is below 1.  Other strand
    counts raise ValueError."""
    if word.strands != 3:
        raise ValueError("cofinal bounds are specific to 3 strands")
    a, b, c = _lift(_words.invert(word.letters))
    if a:
        k = -2 * c + (a < 0)
    else:
        k = -2 * c - (b < 0)
        if 6 * k <= exponent_sum(word):
            k += 1
    return max(1, k)


def commutes(u: BraidWord, v: BraidWord) -> bool:
    """Whether two braids on the same number of strands commute.

    Decided as whether the commutator u v u^-1 v^-1 is trivial, by the sign
    core of :func:`dehornoy_sign`: the Dynnikov action is faithful, so one
    coordinate pass answers for every strand count, with a few coordinate
    updates per run.
    """
    return _sign((u * v * u.inverse() * v.inverse()).letters, u.strands)[0] == TRIVIAL
