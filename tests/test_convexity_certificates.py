"""Every proper subgroup of a stated family gets a re-verified convexity
witness: the restricted orders have no convex subgroups, checked
exhaustively on small families rather than sampled.

A family is every subgroup generated by one or two non-trivial words of a
ball, keyed by a breadth-first relabeling of its folded graph, so each
subgroup is certified once.  The sandwich lemma certifies most of them: for
β in [B3, B3] 1-positive and not commuting with σ2, and e > 0,
1 < β σ2^e β^-1 σ2^-e < β, so the rewritten commutator g is a witness
(1, g, β) whenever g lies outside the subgroup.  In K_n the exponents are
multiples of 6, which keep the commutator in K_n.  The lemma gives nothing
when every generator commutes with σ2 or every commutator stays inside the
subgroup; the convexity probe covers those.  Each witness is re-verified
with ``subgroup_contains`` and ``exotic_compare``, and the count per method
is pinned, so a weaker oracle shows.
"""

from __future__ import annotations

import itertools

import pytest

from braidlab import (
    LESS,
    BraidWord,
    ConvexityWitness,
    ExoticContext,
    FreeWord,
    SubgroupGraph,
    ball,
    commutator_rewrite,
    convexity_probe,
    embed,
    exotic_compare,
    kn_rewrite,
    stallings_graph,
    subgroup_contains,
)


def relabeled(graph: SubgroupGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The moves of ``graph`` with its vertices numbered breadth first from
    the base, taking the moves of each vertex in letter order
    g1 < g1^-1 < g2 < g2^-1 < ...: equal subgroups give equal keys."""
    number = {graph.base: 0}
    queue = [graph.base]
    rows = []
    for vertex in queue:
        moves = graph.moves[vertex]
        row = []
        for key in sorted(moves, key=lambda key: (abs(key), key < 0)):
            target = moves[key]
            if target not in number:
                number[target] = len(number)
                queue.append(target)
            row.append((key, number[target]))
        rows.append(tuple(row))
    return tuple(rows)


def proper_subgroups(rank: int, radius: int) -> list[tuple[tuple[FreeWord, ...], SubgroupGraph]]:
    """One generating set and graph per proper subgroup generated by one or
    two non-trivial words of ``ball(rank, radius)``, first seen first."""
    words = [word for word in ball(rank, radius) if not word.is_identity()]
    family: dict = {}
    for size in (1, 2):
        for generators in itertools.combinations(words, size):
            graph = stallings_graph(list(generators))
            if graph.num_vertices == 1 and len(graph.moves[0]) == 2 * rank:
                continue  # the whole group
            family.setdefault(relabeled(graph), (generators, graph))
    return list(family.values())


def sandwich_witness(
    generators: tuple[FreeWord, ...], graph: SubgroupGraph, ctx: ExoticContext, exponents
) -> ConvexityWitness | None:
    """(1, g, β) from the sandwich lemma, or None: β runs over the
    generators, each inverted if negative, and e over ``exponents``; g is
    the commutator β σ2^e β^-1 σ2^-e rewritten in the context's letters."""
    one = FreeWord(ctx.rank)
    for generator in generators:
        beta = generator if exotic_compare(one, generator, ctx) == LESS else generator.inverse()
        braid = embed(ctx.to_f2(beta))
        for e in exponents:
            sigma = BraidWord(3, ((2, e),))
            g = commutator_rewrite(braid * sigma * braid.inverse() * sigma.inverse())
            if ctx.n is not None:
                g = kn_rewrite(g, ctx.n)
            if not subgroup_contains(graph, g):
                return ConvexityWitness(one, beta, g)
    return None


FAMILIES = {
    # context, ball radius, σ2 exponents, probe radius, subgroups per method
    "f2": (ExoticContext.f2(), 4, (1, 2, 3, 4), 4, {"lemma": 2206, "probe": 1}),
    "kn:3": (ExoticContext.kn(3), 2, (6, 12, 18), 3, {"lemma": 102, "probe": 2}),
    "kn:4": (ExoticContext.kn(4), 2, (6, 12, 18), 3, {"lemma": 362, "probe": 2}),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_every_proper_subgroup_has_a_witness(name):
    ctx, radius, exponents, probe_radius, expected = FAMILIES[name]
    counts = {"lemma": 0, "probe": 0}
    for generators, graph in proper_subgroups(ctx.rank, radius):
        witness = sandwich_witness(generators, graph, ctx, exponents)
        method = "lemma"
        if witness is None:
            witness = convexity_probe(list(generators), ctx, probe_radius)
            method = "probe"
        assert witness is not None, f"inconclusive: {[str(g) for g in generators]}"
        assert subgroup_contains(graph, witness.c_low)
        assert subgroup_contains(graph, witness.c_high)
        assert not subgroup_contains(graph, witness.g)
        assert exotic_compare(witness.c_low, witness.g, ctx) == LESS
        assert exotic_compare(witness.g, witness.c_high, ctx) == LESS
        counts[method] += 1
    assert counts == expected


def test_relabeling_identifies_generating_sets_of_one_subgroup():
    x, y = FreeWord(2, ((1, 1),)), FreeWord(2, ((2, 1),))
    xx = x * x
    sets = ([xx, y], [y, xx], [xx.inverse(), y.inverse()], [xx, y * xx], [y * xx * y, y])
    assert len({relabeled(stallings_graph(generators)) for generators in sets}) == 1
    assert relabeled(stallings_graph([x * y])) != relabeled(stallings_graph([y * x]))
