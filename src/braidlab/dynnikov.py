"""Dynnikov coordinates: a max-plus action of B_n on integer laminations.

The coordinates of n strands are n pairs (x_k, y_k), starting from
E = (0, 1, 0, 1, ...).  Letters act left to right, and σ_i^{±1} rewrites
only (x_i, y_i, x_{i+1}, y_{i+1}).  With t+ = max(t, 0) and t- = min(t, 0),
σ_i acts by

    z = x_i - y_i- - x_{i+1} + y_{i+1}+
    x_i' = x_i + y_i+ + (y_{i+1}+ - z)+      y_i' = y_{i+1} - z+
    x_{i+1}' = x_{i+1} + y_{i+1}- + (y_i- + z)-      y_{i+1}' = y_i + z+

and σ_i^{-1} by

    z = x_i + y_i- - x_{i+1} - y_{i+1}+
    x_i' = x_i - y_i+ - (y_{i+1}+ + z)+      y_i' = y_{i+1} + z-
    x_{i+1}' = x_{i+1} - y_{i+1}- - (y_i- - z)-      y_{i+1}' = y_i - z-

The action is faithful, and the Dehornoy sign of β is the sign of the first
nonzero entry of (x_1, y_1 - 1, x_2, y_2 - 1, ...) of E·β (Dynnikov, *On a
Yang-Baxter map and the Dehornoy ordering*, 2002; Dehornoy-Dynnikov-
Rolfsen-Wiest, *Ordering Braids*, 2008, ch. XII).

The cost is linear in the number of letters, not of runs: every unit of
exponent is one update, so σ1 σ2^200000 σ1^-1 takes 200002 updates.
"""

from __future__ import annotations

from .braid import BraidWord

__all__ = ["dynnikov_coordinates"]


def dynnikov_coordinates(word: BraidWord) -> tuple[int, ...]:
    """Flat coordinates (x_1, y_1, ..., x_n, y_n) of E·word."""
    coords = [0, 1] * word.strands
    for index, exponent in word.letters:
        k = 2 * (index - 1)
        x1, y1, x2, y2 = coords[k : k + 4]
        if exponent > 0:
            for _ in range(exponent):
                z = x1 - (y1 if y1 < 0 else 0) - x2 + (y2 if y2 > 0 else 0)
                t = (y2 if y2 > 0 else 0) - z
                u = (y1 if y1 < 0 else 0) + z
                zp = z if z > 0 else 0
                x1, y1, x2, y2 = (
                    x1 + (y1 if y1 > 0 else 0) + (t if t > 0 else 0),
                    y2 - zp,
                    x2 + (y2 if y2 < 0 else 0) + (u if u < 0 else 0),
                    y1 + zp,
                )
        else:
            for _ in range(-exponent):
                z = x1 + (y1 if y1 < 0 else 0) - x2 - (y2 if y2 > 0 else 0)
                t = (y2 if y2 > 0 else 0) + z
                u = (y1 if y1 < 0 else 0) - z
                zm = z if z < 0 else 0
                x1, y1, x2, y2 = (
                    x1 - (y1 if y1 > 0 else 0) - (t if t > 0 else 0),
                    y2 + zm,
                    x2 - (y2 if y2 < 0 else 0) - (u if u < 0 else 0),
                    y1 - zm,
                )
        coords[k : k + 4] = x1, y1, x2, y2
    return tuple(coords)
