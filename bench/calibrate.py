"""A fixed kernel that times the host rather than the library.

The shared machines this benchmark runs on change speed by tens of percent
over seconds to minutes, while CPU time keeps tracking wall time.  The
harness therefore times this kernel between operations and scales each
operation's time by how slow the kernel ran around it.

The kernel is a frozen, self-contained leftmost-handle reduction of one fixed
90-letter three-strand word: the same tuple, list and small-integer work as
the library's inner loops, so host slow-downs hit both alike.  It never calls
``braidlab``, so a change to the library moves the scaled figures in full.
"""

from __future__ import annotations

import random
import statistics
import time

# Kernel time on a quiet reference host, in seconds; scaled figures are
# expressed at this speed.
REFERENCE_S = 0.0007
# Kernel runs on each side of a time scaled by ``scales`` and by ``around``.
_WINDOW = 5
_AROUND = 3


def _normalize(pairs):
    out = []
    for index, exponent in pairs:
        if out and out[-1][0] == index:
            out[-1][1] += exponent
            if out[-1][1] == 0:
                out.pop()
        elif exponent:
            out.append([index, exponent])
    return [(i, e) for i, e in out]


def _leftmost_handle(runs):
    for q in range(1, len(runs)):
        index = runs[q][0]
        for p in range(q - 1, -1, -1):
            if runs[p][0] > index:
                continue
            if runs[p][0] == index and (runs[p][1] > 0) != (runs[q][1] > 0):
                return p, q
            break
    return None


def _reduce_handle(runs, p, q):
    index = runs[p][0]
    e = 1 if runs[p][1] > 0 else -1
    out = runs[:p] + [(index, runs[p][1] - e)]
    for j, d in runs[p + 1 : q]:
        out.extend(((j, -e), (index, d), (j, e)) if j == index + 1 else ((j, d),))
    out.append((index, runs[q][1] + e))
    return _normalize(out + runs[q + 1 :])


_rng = random.Random(99)
_WORD = _normalize([(_rng.randint(1, 2), _rng.choice((1, -1))) for _ in range(90)])


def kernel() -> int:
    runs = list(_WORD)
    while (found := _leftmost_handle(runs)) is not None:
        runs = _reduce_handle(runs, *found)
    return len(runs)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scales(samples: list[float]) -> list[float]:
    """Factor by which to scale times taken next to each sample: the reference
    time over the median of the samples within ``_WINDOW`` places of it."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - _WINDOW) : i + _WINDOW + 1])
        for i in range(len(samples))
    ]


def around(fn, *args):
    """Call ``fn(*args)``; return its result and the scale factor for times
    taken during the call, from ``_AROUND`` kernel runs before and after."""
    before = [sample() for _ in range(_AROUND)]
    result = fn(*args)
    after = [sample() for _ in range(_AROUND)]
    return result, REFERENCE_S / statistics.median(before + after)
