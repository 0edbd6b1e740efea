"""Length sweep of single layers, run at the end of every traced run.

Each row calls one library function on a seeded random input and records the
self time of the function's layer during that call (the layer's spans minus
their child spans in other layers).  The row's length is the letter count of
the random input word before free reduction: a braid word for
``handle_reduce``, ``burau_matrix`` and ``BraidWord`` construction, a free
word of rank 2 for ``embed`` and ``substitute``, and the free word whose
embedding is rewritten for ``commutator_rewrite``.  These rows are reported
but gate nothing.
"""

from __future__ import annotations

import random
import statistics

import braidlab as bl

import calibrate
from spans import Tracer

LENGTHS = (50, 200, 800, 3200)
# Layers expected to run in linear time are also taken at 6400 letters.
LINEAR_LENGTHS = LENGTHS + (6400,)
REPS = 3


def _letters(rng: random.Random, length: int, alphabet: int):
    return tuple((rng.randint(1, alphabet), rng.choice((1, -1))) for _ in range(length))


# row name -> (layer, lengths, input builder, call)
ROWS = {
    "handle_reduce": (
        "dehornoy",
        LENGTHS,
        lambda rng, n: bl.BraidWord(3, _letters(rng, n, 2)),
        lambda word: bl.dehornoy.handle_reduce(word),
    ),
    "burau_matrix": (
        "burau",
        LENGTHS,
        lambda rng, n: bl.BraidWord(3, _letters(rng, n, 2)),
        lambda word: bl.burau.burau_matrix(word),
    ),
    "commutator_rewrite": (
        "exotic",
        LINEAR_LENGTHS,
        lambda rng, n: bl.embed(bl.FreeWord(2, _letters(rng, n, 2))),
        lambda braid: bl.exotic.commutator_rewrite(braid),
    ),
    "embed": (
        "exotic",
        LINEAR_LENGTHS,
        lambda rng, n: bl.FreeWord(2, _letters(rng, n, 2)),
        lambda word: bl.exotic.embed(word),
    ),
    "substitute": (
        "freegroup",
        LINEAR_LENGTHS,
        lambda rng, n: (bl.FreeWord(2, _letters(rng, n, 2)), bl.conj_by_sigma2().images),
        lambda args: bl.freegroup.substitute(*args),
    ),
    "braidword": (
        "braid",
        LINEAR_LENGTHS,
        lambda rng, n: _letters(rng, n, 2),
        lambda letters: bl.braid.BraidWord(3, letters),
    ),
}


def run(seed: int) -> dict[str, float]:
    """Median self time over ``REPS`` calls per row and length, in seconds at
    the reference host speed of :mod:`calibrate`."""
    rng = random.Random(f"sweep/{seed}")
    inputs = {
        (row, length): [build(rng, length) for _ in range(REPS)]
        for row, (_, lengths, build, _) in ROWS.items()
        for length in lengths
    }
    tracer = Tracer(counting=False)
    try:
        results = {}
        for (row, length), args in inputs.items():
            layer, _, _, call = ROWS[row]
            samples = []
            for arg in args:
                before = tracer.self_s[layer]
                _, scale = calibrate.around(call, arg)
                samples.append((tracer.self_s[layer] - before) * scale)
            results[f"sweep.{row}.{length}.self_s"] = statistics.median(samples)
        return results
    finally:
        tracer.close()
