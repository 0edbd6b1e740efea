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

A run σ_i^k does not need k updates.  Put d = x_i - x_{i+1}.  When
y_i <= min(0, d) and y_{i+1} >= max(0, -d), the rule above gives z >= 0,
t <= 0 <= u, and σ_i only moves (y_i, y_{i+1}) to (y_i - d, y_{i+1} + d).
That keeps d, so for d >= 0 the rest of the run is one multiply-add, and
for d < 0 the translation holds for the next min(-y_i, y_{i+1}) // -d
steps, taken as one jump.  Outside that region a run steps one letter at a
time; on every window tried (all of [-12, 12]^4 and 300,000 random ones up
to 10^40) a whole run took at most three such steps and at most one jump
of each kind.

So the number of updates is linear in runs, plus that short transient per
run: σ1^1000000000 σ2 σ1^-1000000000 takes two steps and two jumps.  Each
update costs time in the bit length of the coordinates, which grows with
the word, so the bit cost can be quadratic in the letter length.

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
    return tuple(run_coordinates(word.letters, word.strands))


def run_coordinates(runs: Iterable[tuple[int, int]], strands: int) -> list[int]:
    """Flat coordinates of E·runs on ``strands`` strands, as a list."""
    coords = [0, 1] * strands
    for index, count in runs:
        k = 2 * index - 2
        x1, y1, x2, y2 = coords[k : k + 4]
        negative = count < 0
        if negative:
            x1, x2, count = -x1, -x2, -count
        while count:
            if y1 <= 0 <= y2:  # maybe in the twist region: jump
                d = x1 - x2
                steps = count if d >= 0 else min(count, min(-y1, y2) // -d)
                if steps:
                    y1 -= steps * d
                    y2 += steps * d
                    count -= steps
                    continue
            # one letter σ_i
            y1m = y1 if y1 < 0 else 0
            y2p = y2 if y2 > 0 else 0
            z = x1 - y1m - x2 + y2p
            t = y2p - z
            u = y1m + z
            zp = z if z > 0 else 0
            x1 += y1 - y1m + (t if t > 0 else 0)
            x2 += y2 - y2p + (u if u < 0 else 0)
            y1, y2 = y2 - zp, y1 + zp
            count -= 1
        coords[k : k + 4] = (-x1, y1, -x2, y2) if negative else (x1, y1, x2, y2)
    return coords
