"""Dynnikov coordinates: a max-plus action of B_n on integer laminations.

The coordinates of n strands are n pairs (x_k, y_k), starting from
E = (0, 1, 0, 1, ...).  Letters act left to right, and σ_i^{±1} rewrites
only the window (x_i, y_i, x_{i+1}, y_{i+1}).  With t+ = max(t, 0) and
t- = min(t, 0), σ_i acts by

    z = x_i - y_i- - x_{i+1} + y_{i+1}+      t = y_{i+1}+ - z      u = y_i- + z
    x_i' = x_i + y_i+ + t+      y_i' = y_{i+1} - z+
    x_{i+1}' = x_{i+1} + y_{i+1}- + u-      y_{i+1}' = y_i + z+

The action is faithful, and the Dehornoy sign of β is the sign of the first
nonzero entry of (x_1, y_1 - 1, x_2, y_2 - 1, ...) of E·β (Dynnikov, *On a
Yang-Baxter map and the Dehornoy ordering*, 2002; Dehornoy-Dynnikov-
Rolfsen-Wiest, *Ordering Braids*, 2008, ch. XII).

One update body serves both signs: σ_i^{-1} = N σ_i N, where N negates
x_i and x_{i+1}, so a negative run negates the two x's, applies σ_i and
negates them back.  (Negating every x fixes E, so negating every exponent
of a word negates every x of its coordinates and keeps every y.)

The update body splits on the signs of y_i and y_{i+1}.  Put
d = x_i - x_{i+1}, computed once per step for both the jump test below and
the update.  Then z = d - y_i- + y_{i+1}+, and substituting z gives
t = y_i- - d and u = d + y_{i+1}+, so

    y_{i+1} > 0:   u = d + y_{i+1},  x_{i+1} gains u-
    y_{i+1} <= 0:  u = d,            x_{i+1} gains y_{i+1} + d-
    y_i < 0:       z = u - y_i,      x_i gains (y_i - d)+
    y_i >= 0:      z = u,            x_i gains y_i + (-d)+

and the y's swap, shifted by z only when z > 0.  No branch adds a term
that the split or a test shows to be zero: y_i+ vanishes for y_i < 0 and
y_{i+1}- for y_{i+1} > 0, so neither appears, and each other gain (a
positive or negative part, y_i >= 0, y_{i+1} <= 0) and the shift by z are
added only after a test finds them nonzero.  So a letter makes one to
eight big-integer additions and subtractions, against eleven to thirteen
for the formula as written.

A run σ_i^k does not need k updates.  When
y_i <= min(0, d) and y_{i+1} >= max(0, -d), the rule above gives z >= 0,
t <= 0 <= u, and σ_i only moves (y_i, y_{i+1}) to (y_i - d, y_{i+1} + d).
That keeps d, so for d >= 0 the rest of the run is one multiply-add.  For
d < 0 it holds for s = min(-y_i, y_{i+1}) // -d more steps: one jump, then
one letter step unless s covers the run.  A last letter skips the test, as
its update gives the same translation.  On every window tried (all of
[-12, 12]^4 and 300,000 random ones up to 10^40) a run took at most four
letter steps, one jump of each kind and five updates in all.

So the number of updates is linear in runs, plus that short transient per
run: σ1^1000000000 σ2 σ1^-1000000000 takes two steps and two jumps.  Each
update costs time in the bit length of the coordinates, which grows with
the word, so the bit cost can be quadratic in the letter length.

The kernel keeps the x's and the y's in two lists and reads and writes the
window of σ_i by index, as xs[i-1], ys[i-1], xs[i], ys[i]: one flat list
would need a slice and a slice assignment per run, each a new sequence.

Strands no letter touches stay at E.  :mod:`braidlab.dehornoy` relabels the
touched generators before it calls :func:`run_coordinates`, so ``--strands``
adds no cost to a sign or a commutation test.
"""

from __future__ import annotations

from typing import Iterable

from .braid import BraidWord

__all__ = ["dynnikov_coordinates"]


def dynnikov_coordinates(word: BraidWord) -> tuple[int, ...]:
    """Flat coordinates (x_1, y_1, ..., x_n, y_n) of E·word."""
    xs, ys = run_coordinates(word.letters, word.strands)
    return tuple(c for pair in zip(xs, ys) for c in pair)


def run_coordinates(runs: Iterable[tuple[int, int]], strands: int) -> tuple[list[int], list[int]]:
    """Coordinates of E·runs on ``strands`` strands, as lists (x_k) and (y_k)."""
    xs, ys = [0] * strands, [1] * strands
    for i, count in runs:
        x1, y1, x2, y2 = xs[i - 1], ys[i - 1], xs[i], ys[i]
        negative = count < 0
        if negative:
            x1, x2, count = -x1, -x2, -count
        while True:
            d = x1 - x2
            if count > 1 and y1 <= 0 <= y2:  # maybe in the twist region: jump
                steps = count if d >= 0 else (-y1 if -y1 < y2 else y2) // -d
                if steps >= count:
                    y1, y2 = y1 - count * d, y2 + count * d
                    break
                if steps:
                    y1, y2 = y1 - steps * d, y2 + steps * d
                    count -= steps
            # one letter σ_i, split by the signs of y_{i+1} and y_i
            if y2 > 0:
                u = d + y2
            else:
                u = d
                if y2:
                    x2 += y2
            if u < 0:
                x2 += u
            if y1 < 0:
                z = u - y1
                if y1 > d:
                    x1 += y1 - d
            else:
                z = u
                if y1:
                    x1 += y1
                if d < 0:
                    x1 -= d
            if z > 0:
                y1, y2 = y2 - z, y1 + z
            else:
                y1, y2 = y2, y1
            count -= 1
            if not count:
                break
        if negative:
            x1, x2 = -x1, -x2
        xs[i - 1], xs[i] = x1, x2
        ys[i - 1], ys[i] = y1, y2
    return xs, ys
