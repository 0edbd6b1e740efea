"""Ball enumeration, convexity and Conradian searches, the verification suite."""

from __future__ import annotations

import json
import random
import re

import pytest

from braidlab import (
    GREATER,
    LESS,
    NEGATIVE,
    POSITIVE,
    TRIVIAL,
    BraidWord,
    ConvexityWitness,
    ExoticContext,
    FreeWord,
    abelianize,
    ball,
    commutator_rewrite,
    commutes,
    conradian_violation_search,
    convexity_probe,
    dehornoy_sign,
    embed,
    exotic_compare,
    kn_basis,
    kn_member,
    kn_substitute,
    lemma_suite,
    parse_free,
    random_braid_word,
    random_free_word,
    stallings_graph,
    subgroup_contains,
    subgroup_elements,
)
from braidlab import _words, dehornoy
from braidlab.freegroup import SubgroupGraph
from test_freegroup import (
    assert_graph_invariants,
    move_order,
    ordered_moves,
    random_generator_set,
)

F2 = ExoticContext.f2()


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its arguments."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_signed_runs(monkeypatch):
    """Replace ``dehornoy._sign`` by a wrapper that records the number of
    braid runs of each word it signs: the signed work, as a count."""
    import braidlab.dehornoy

    sizes = []
    original = braidlab.dehornoy._sign

    def counting(runs, strands):
        sizes.append(len(runs))
        return original(runs, strands)

    monkeypatch.setattr(braidlab.dehornoy, "_sign", counting)
    return sizes


def reference_ball(rank, radius):
    """Length-lex enumeration by recursion over the letters g1 < g1^-1 < ...,
    one letter at a time, with no graph."""
    alphabet = [(i, s) for i in range(1, rank + 1) for s in (1, -1)]
    yield FreeWord(rank)

    def extend(prefix, remaining):
        if remaining == 0:
            yield FreeWord(rank, prefix)
            return
        for letter, sign in alphabet:
            if prefix and prefix[-1] == (letter, -sign):
                continue
            yield from extend(prefix + ((letter, sign),), remaining - 1)

    for length in range(1, radius + 1):
        yield from extend((), length)


def reference_subgroup_elements(graph, max_length):
    """Closed non-backtracking walks, one letter at a time in the order
    g1 < g1^-1 < g2 < ..., looking each target up in ``graph.moves``."""
    yield FreeWord(graph.rank)

    def walk(vertex, prefix, remaining):
        if remaining == 0:
            if vertex == graph.base:
                yield FreeWord(graph.rank, prefix)
            return
        for letter in range(1, graph.rank + 1):
            for sign in (1, -1):
                target = graph.moves[vertex].get(sign * letter)
                if target is not None and not (prefix and prefix[-1] == (letter, -sign)):
                    yield from walk(target, prefix + ((letter, sign),), remaining - 1)

    for length in range(1, max_length + 1):
        yield from walk(graph.base, (), length)


def sorted_walk_elements(rank, rows, max_length):
    """The reference for the walk over ``graph.moves``: the same iterative
    deepening from vertex 0 over per-vertex maps from signed letters to
    targets, each sorted here in the move order on every call."""
    yield FreeWord(rank)
    moves = []
    for row in rows:
        keys = sorted(row, key=move_order)
        moves.append([(abs(key), 1 if key > 0 else -1, row[key]) for key in keys])
    for length in range(1, max_length + 1):
        stack = [((), iter(moves[0]))]
        while stack:
            prefix, options = stack[-1]
            for letter, sign, target in options:
                if prefix and prefix[-1][0] == letter and prefix[-1][1] * sign < 0:
                    continue
                word = _words.append_letter(prefix, letter, sign)
                if len(stack) < length:
                    stack.append((word, iter(moves[target])))
                    break
                if target == 0:
                    yield FreeWord._reduced(rank, word)
            else:
                stack.pop()


def reference_rose(rank):
    """The move map of the one vertex of the rose of F_rank: a loop per
    letter, so each signed letter leads back to 0.  The keys are listed in
    reverse, so the order of the walk is the one its reference sorts."""
    return [{sign * letter: 0 for letter in range(rank, 0, -1) for sign in (-1, 1)}]


class TestWalkReference:
    """The walk over ``graph.moves`` gives the words of the sorted walk."""

    @staticmethod
    def assert_same_walk(graph, max_length):
        assert_graph_invariants(graph)
        expected = list(sorted_walk_elements(graph.rank, graph.moves, max_length))
        assert list(subgroup_elements(graph, max_length)) == expected

    def test_random_folded_graphs(self):
        rng = random.Random(2501)
        for _ in range(1_000):
            self.assert_same_walk(stallings_graph(random_generator_set(rng)), 5)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_kn_bases(self, n):
        self.assert_same_walk(stallings_graph(kn_basis(n)), 8 if n < 6 else 6)

    @pytest.mark.parametrize(
        "rank, radius", [(1, 12), (2, 6), (3, 4), (4, 3), (5, 2), (6, 2), (7, 2), (8, 2)]
    )
    def test_ball(self, rank, radius):
        from braidlab.probe import _rose

        # The rose literal is the graph stallings_graph folds from a free
        # basis, moves in the same order.
        basis = [FreeWord(rank, ((i, 1),)) for i in range(1, rank + 1)]
        assert_graph_invariants(_rose(rank))
        assert ordered_moves(_rose(rank).moves) == ordered_moves(stallings_graph(basis).moves)
        expected = list(sorted_walk_elements(rank, reference_rose(rank), radius))
        assert list(ball(rank, radius)) == expected

    def test_one_rose_per_rank(self, monkeypatch):
        import braidlab.probe

        built = []
        init = SubgroupGraph.__init__

        def counting_init(self, rank, moves):
            built.append(rank)
            init(self, rank, moves)

        monkeypatch.setattr(SubgroupGraph, "__init__", counting_init)
        braidlab.probe._rose.cache_clear()
        try:
            for _ in range(3):
                assert len(list(ball(3, 2))) == 1 + 6 + 30
                assert len(list(ball(2, 1))) == 5
            assert built == [3, 2]
        finally:
            braidlab.probe._rose.cache_clear()


class TestBall:
    @pytest.mark.parametrize(
        "rank, radius",
        [(1, 6), (2, 5), (3, 4), (8, 0), (8, 1), (8, 2), (8, 3)],
    )
    def test_matches_reference(self, rank, radius):
        assert list(ball(rank, radius)) == list(reference_ball(rank, radius))

    def test_rank_one_radius_two(self):
        words = [w.to_text() or "1" for w in ball(1, 2)]
        assert words == ["1", "x", "x^-1", "x^2", "x^-2"]

    def test_rank_two_counts(self):
        assert len(list(ball(2, 2))) == 17  # 2 * 3^2 - 1
        assert len(list(ball(2, 3))) == 53  # 2 * 3^3 - 1

    def test_order(self):
        words = list(ball(2, 2))
        assert words[0].is_identity()
        assert words[1] == parse_free("x")
        assert words[2] == parse_free("x^-1")
        assert words[3] == parse_free("y")
        assert words[5] == parse_free("x^2")

    def test_all_reduced_and_distinct(self):
        words = list(ball(2, 4))
        assert len(set(words)) == len(words)
        assert all(w.length <= 4 for w in words)

    def test_radius_zero(self):
        assert [w for w in ball(2, 0)] == [FreeWord(2)]

    def test_deeper_than_the_recursion_limit(self):
        # The walk keeps its own stack: one frame per letter would overflow
        # Python's default recursion limit of 1000 here.  (Each length is
        # walked afresh, so rank one costs quadratic time in the radius.)
        words = list(ball(1, 1500))
        assert len(words) == 3001
        assert words[-2:] == [parse_free("x^1500", 1), parse_free("x^-1500", 1)]

    def test_validation(self):
        with pytest.raises(ValueError, match="rank must be at least 1, got 0"):
            list(ball(0, 2))
        with pytest.raises(ValueError):
            list(ball(2, -1))


class TestSubgroupElements:
    def test_matches_reference(self):
        rng = random.Random(901)
        cases = []
        for _ in range(60):
            rank = rng.choice((1, 2, 3))
            gens = [random_free_word(rng, 6, rank) for _ in range(rng.randint(1, 3))]
            cases.append((gens, 6))
        named = [["x"], ["y"], ["x^2", "y"]]
        cases += [([parse_free(g) for g in gens], 8) for gens in named] + [(kn_basis(3), 8)]
        for gens, length in cases:
            graph = stallings_graph(gens)
            assert_graph_invariants(graph)
            expected = list(reference_subgroup_elements(graph, length))
            assert list(subgroup_elements(graph, length)) == expected

    def test_negative_max_length(self):
        graph = stallings_graph([parse_free("x")])
        with pytest.raises(ValueError, match="max_length must be nonnegative, got -1"):
            list(subgroup_elements(graph, -1))
        assert list(subgroup_elements(graph, 0)) == [FreeWord(2)]

    def test_cyclic(self):
        graph = stallings_graph([parse_free("x")])
        words = [w.to_text() or "1" for w in subgroup_elements(graph, 2)]
        assert words == ["1", "x", "x^-1", "x^2", "x^-2"]

    def test_all_members_and_complete(self):
        gens = [parse_free("x^2"), parse_free("y")]
        graph = stallings_graph(gens)
        enumerated = set(subgroup_elements(graph, 4))
        for word in enumerated:
            assert subgroup_contains(graph, word)
        for word in ball(2, 4):
            assert (word in enumerated) == subgroup_contains(graph, word)


class TestConvexityProbe:
    def test_trivial_subgroup(self):
        assert convexity_probe([FreeWord(2)], F2, 3) is None

    @pytest.mark.parametrize("gens", [["x"], ["y"], ["x^2", "y"]])
    def test_finds_valid_witness(self, gens):
        generators = [parse_free(g) for g in gens]
        witness = convexity_probe(generators, F2, 8)
        assert witness is not None
        graph = stallings_graph(generators)
        assert subgroup_contains(graph, witness.c_low)
        assert subgroup_contains(graph, witness.c_high)
        assert not subgroup_contains(graph, witness.g)
        assert exotic_compare(witness.c_low, witness.g, F2) == LESS
        assert exotic_compare(witness.g, witness.c_high, F2) == LESS

    def test_k3_inside_f2(self):
        witness = convexity_probe(kn_basis(3), F2, 8)
        assert witness is not None
        graph = stallings_graph(kn_basis(3))
        assert not subgroup_contains(graph, witness.g)

    def test_deterministic(self):
        first = convexity_probe([parse_free("x")], F2, 8)
        second = convexity_probe([parse_free("x")], F2, 8)
        assert (first.c_low, first.g, first.c_high) == (
            second.c_low,
            second.g,
            second.c_high,
        )

    def test_witness_survives_radius_growth(self):
        for gens in (["x"], ["y"], ["x^2", "y"]):
            generators = [parse_free(g) for g in gens]
            small = convexity_probe(generators, F2, 6)
            large = convexity_probe(generators, F2, 8)
            assert small is not None and large is not None
            assert (small.c_low, small.g, small.c_high) == (
                large.c_low,
                large.g,
                large.c_high,
            )


    def test_generator_letters_are_bounded(self):
        from braidlab.probe import MAX_GENERATOR_LETTERS

        half = MAX_GENERATOR_LETTERS // 2
        for gens in (["x^1000000000"], [f"x^{half}", f"y^-{half + 1}"]):
            with pytest.raises(ValueError, match="letters in total"):
                convexity_probe([parse_free(g) for g in gens], F2, 1)

    def test_one_comparison_per_member(self, monkeypatch):
        import braidlab.probe

        calls = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        generators = [parse_free("x^2"), parse_free("y")]
        witness = convexity_probe(generators, F2, 6)
        assert witness is not None
        assert calls
        graph = stallings_graph(generators)
        assert graph.cycle_rank() == 2
        # The scan of a subgroup of rank >= 2: every call compares a member
        # against a candidate outside the subgroup, and no (member,
        # candidate) pair is compared twice.
        assert all(subgroup_contains(graph, u) for u, _, _ in calls)
        assert not any(subgroup_contains(graph, v) for _, v, _ in calls)
        pairs = {(u, v) for u, v, _ in calls}
        assert len(pairs) == len(calls)
        # The members scanned per candidate are a prefix of the enumeration.
        members = list(subgroup_elements(graph, 12))
        for g in {v for _, v, _ in calls}:
            scanned = [u for u, v, _ in calls if v == g]
            assert scanned == members[: len(scanned)]

    @pytest.mark.parametrize(
        "gens, ctx",
        [
            (["x", "y"], F2),
            (["x^-1", "y x"], F2),
            (["x y", "y"], F2),
            (["g1", "g2", "g3"], ExoticContext.kn(3)),
            ([""], F2),
        ],
    )
    def test_whole_and_trivial_subgroups_return_at_once(self, monkeypatch, gens, ctx):
        # F_r leaves no candidate outside it, and {1} has one member, which
        # cannot be both bounds: no witness exists, so nothing is searched.
        import braidlab.probe

        compares = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        memberships = count_calls(monkeypatch, braidlab.probe, "subgroup_contains")
        generators = [parse_free(g, ctx.rank) for g in gens]
        assert convexity_probe(generators, ctx, 12) is None
        assert compares == [] and memberships == []

    def test_no_second_member_within_the_bound(self, monkeypatch):
        # Rank 2, but x^5 and y^5 are longer than the bound 4, so 1 is the
        # only member: no candidate can have both bounds.
        import braidlab.probe

        generators = [parse_free("x^5"), parse_free("y^5")]
        expected = reference_convexity_scan(generators, F2, 9, 4)
        compares = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        memberships = count_calls(monkeypatch, braidlab.probe, "subgroup_contains")
        assert convexity_probe(generators, F2, 9, max_element_length=4) == expected
        assert expected is None
        assert compares == [] and memberships == []

    @pytest.mark.parametrize("gens", [["x", "y"], [""], ["x"]])
    def test_negative_radius(self, gens):
        with pytest.raises(ValueError, match="radius must be nonnegative, got -1"):
            convexity_probe([parse_free(g) for g in gens], F2, -1)

    @pytest.mark.parametrize("gens", [["x", "y"], [""], ["x"]])
    def test_negative_max_element_length(self, gens):
        # A negative bound used to leave the identity as the only member, so
        # the whole ball was walked for an inconclusive None.
        with pytest.raises(ValueError, match="max_element_length must be nonnegative, got -4"):
            convexity_probe([parse_free(g) for g in gens], F2, 3, max_element_length=-4)

    @pytest.mark.parametrize(
        "gens, expected",
        [
            (["x"], ("x^-1", "y^-1", "")),
            (["y"], ("", "x", "y")),
            (["x^2", "y"], ("", "x", "y")),
            (None, ("", "x", "y")),
        ],
    )
    def test_criterion_9_witnesses(self, gens, expected):
        generators = kn_basis(3) if gens is None else [parse_free(g) for g in gens]
        witness = convexity_probe(generators, F2, 10)
        texts = (witness.c_low.to_text(), witness.g.to_text(), witness.c_high.to_text())
        assert texts == expected


def reference_convexity_scan(generators, ctx, radius, bound):
    """The member scan of ``convexity_probe`` for subgroups of rank >= 2, run
    on any subgroup: every member, in enumeration order, against every
    candidate until one member lies below it and one above."""
    graph = stallings_graph(list(generators))
    members = list(subgroup_elements(graph, bound))
    for g in ball(ctx.rank, radius):
        if g.is_identity() or subgroup_contains(graph, g):
            continue
        c_low = c_high = None
        for member in members:
            verdict = exotic_compare(member, g, ctx)
            if verdict == LESS and c_low is None:
                c_low = member
            elif verdict == GREATER and c_high is None:
                c_high = member
            if c_low is not None and c_high is not None:
                return ConvexityWitness(c_low, c_high, g)
    return None


def cyclic_generator_sets(rng, rank, count):
    """(generators, p) for ``count`` random cyclic subgroups <p>, p a stem
    u v u^-1: p alone, and two sets that fold to the one cycle of p."""
    sets = []
    while len(sets) < 3 * count:
        u = random_free_word(rng, 2, rank)
        p = u * random_free_word(rng, 3, rank) * u.inverse()
        if p.is_identity():
            continue
        sets.append(([p], p))
        sets.append(([p**2, p**3], p))
        sets.append(([p, p.inverse()], p))
    return sets


class TestCyclicProbe:
    """Rank-1 subgroups are probed along the sorted powers of their
    generator, and must give the witness (or None) of the member scan."""

    @pytest.mark.parametrize(
        "n, radii, count",
        [(None, range(7), 10), (3, range(5), 4), (4, range(4), 3)]
        + [(n, range(3), 2) for n in range(5, 9)],
    )
    def test_matches_the_scan(self, n, radii, count):
        ctx = F2 if n is None else ExoticContext.kn(n)
        rng = random.Random(2100 + (n or 2))
        for generators, p in cyclic_generator_sets(rng, ctx.rank, count):
            assert stallings_graph(generators).cycle_rank() == 1
            for radius in radii:
                # Bounds below |p| leave only the identity as a member.
                for bound in {0, p.length - 1, p.length, radius, 2 * radius + 3}:
                    if bound < 0:
                        continue
                    expected = reference_convexity_scan(generators, ctx, radius, bound)
                    assert convexity_probe(generators, ctx, radius, bound) == expected, (
                        [gen.to_text() for gen in generators],
                        radius,
                        bound,
                    )

    @staticmethod
    def compared_members(monkeypatch, gens, ctx, radius):
        """Probe <gens> at the default bound and return the witness, p > 1,
        the largest K with |p^K| within the bound, and the members each
        candidate was compared with, in call order."""
        import braidlab.probe

        calls = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        generators = [parse_free(g, ctx.rank) for g in gens]
        witness = convexity_probe(generators, ctx, radius)
        graph = stallings_graph(generators)
        # The first call orients the generator: both sides are members.
        (one, h, _), *rest = calls
        assert one.is_identity() and subgroup_contains(graph, h)
        p = h if exotic_compare(one, h, ctx) == LESS else h.inverse()
        top = max(j for j in range(1, 2 * radius + 1) if (p**j).length <= 2 * radius)
        # Every other call has one candidate outside the subgroup.
        compared = {}
        for u, v, _ in rest:
            g, member = (v, u) if subgroup_contains(graph, u) else (u, v)
            compared.setdefault(g, []).append(member)
        return witness, p, top, compared

    # Cyclic subgroups <p> with K >= 2 whose witness p^(+/-1) bounds.
    SHALLOW = [
        (["x"], F2, 8),
        (["g2"], ExoticContext.kn(4), 3),
        (["g2 g3"], ExoticContext.kn(3), 3),
        (["g1^-1 g2 g3^-1"], ExoticContext.kn(3), 3),
    ]
    # Cyclic subgroups whose witness is bounded first by p^2: here K = 2
    # and K = 5.
    DEEP = [
        (["g2 g1 g3^-1"], ExoticContext.kn(3), 3),
        (["g3 g4^-1"], ExoticContext.kn(4), 5),
    ]

    @pytest.mark.parametrize("gens, ctx, radius", SHALLOW)
    def test_two_comparisons_per_unbounded_candidate(self, monkeypatch, gens, ctx, radius):
        # After the comparison with 1 that orients it, a candidate that no
        # power bounds is compared with two powers, p then p^K, or p^-1 then
        # p^-K.  One that p^(+/-1) bounds is never compared with p^(+/-K).
        witness, p, top, compared = self.compared_members(monkeypatch, gens, ctx, radius)
        assert top >= 2
        one = FreeWord(ctx.rank)
        ends = ([one, p, p**top], [one, p.inverse(), p**-top])
        unbounded = [members for g, members in compared.items() if g != witness.g]
        assert unbounded and all(members in ends for members in unbounded)
        bound = witness.c_high if witness.c_low == one else witness.c_low
        assert bound in (p, p.inverse())
        assert compared[witness.g] == [one, bound]

    def test_one_comparison_with_the_only_power(self, monkeypatch):
        # |p^2| = 6 exceeds the bound 4, so K = 1 and p^K = p is compared
        # once: x, then the witness x^-1.
        witness, p, top, compared = self.compared_members(monkeypatch, ["x y^-2"], F2, 2)
        one = FreeWord(2)
        assert top == 1 and witness.g == parse_free("x^-1")
        assert len(compared) == 2
        assert all(members in ([one, p], [one, p.inverse()]) for members in compared.values())

    @pytest.mark.parametrize("gens, ctx, radius", DEEP)
    def test_powers_scanned_for_a_deeper_bound(self, monkeypatch, gens, ctx, radius):
        # p, then p^K, then p^2: the scan runs only after p^K, and at K = 2
        # p^K is not compared twice; mirrored below 1.
        witness, p, top, compared = self.compared_members(monkeypatch, gens, ctx, radius)
        one = FreeWord(ctx.rank)
        side = 1 if witness.c_low == one else -1
        bound = witness.c_high if side == 1 else witness.c_low
        assert bound == p ** (2 * side)
        scanned = [bound] if top > 2 else []
        assert compared[witness.g] == [one, p**side, p ** (side * top)] + scanned

    @pytest.mark.parametrize(
        "gens, ctx, radius, runs",
        [(*case, runs) for case, runs in zip(SHALLOW + DEEP, (45, 61, 67, 55, 43, 79))],
    )
    def test_braid_runs_signed(self, monkeypatch, gens, ctx, radius, runs):
        # Pinned so that a change to the probe shows its signed work as a
        # count.  Comparing with p^K before p signed 75, 91, 87, 54, 61
        # and 79.
        sizes = count_signed_runs(monkeypatch)
        convexity_probe([parse_free(g, ctx.rank) for g in gens], ctx, radius)
        assert sum(sizes) == runs

    @pytest.mark.parametrize("gens", [["y"], ["y^-1"]])
    def test_no_power_built_when_p_bounds_the_first_candidate(self, monkeypatch, gens):
        # <y> and <y^-1> both enumerate y first; 1 < x < y, and x is the
        # first candidate, so the probe needs neither p^-1 nor p^(+/-K).
        powers = count_calls(monkeypatch, FreeWord, "__pow__")
        inverses = count_calls(monkeypatch, FreeWord, "inverse")
        witness = convexity_probe([parse_free(g) for g in gens], F2, 8)
        assert witness == ConvexityWitness(FreeWord(2), parse_free("y"), parse_free("x"))
        assert powers == [] and inverses == []

    def test_no_member_within_the_bound(self, monkeypatch):
        # x^100 is longer than the default bound 20, so 1 is the only
        # member: nothing is compared and no candidate is tested.
        import braidlab.probe

        compares = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        memberships = count_calls(monkeypatch, braidlab.probe, "subgroup_contains")
        assert convexity_probe([parse_free("x^100")], F2, 10) is None
        assert compares == [] and memberships == []


class TestCentralizerCriterion:
    """``_centralizes_sigma2(w)``, read off the runs of w, against
    ``commutes(embed(w), σ2)`` on Dynnikov coordinates."""

    def test_matches_commutes(self):
        from braidlab.probe import _centralizes_sigma2

        sigma2 = BraidWord(3, ((2, 1),))
        c = parse_free("x y^-1 x^-1 y")
        rng = random.Random(2200)
        words = [random_free_word(rng, 12) for _ in range(1000)]
        words += [
            kn_substitute(random_free_word(rng, 6, rank=n), n)
            for n in (3, 4, 5)
            for _ in range(200)
        ]
        planted = [c**b for b in range(-3, 4)]
        # Near misses: a cyclic permutation, a conjugate and a product.
        near = [parse_free("y^-1 x^-1 y x"), parse_free("x") * c * parse_free("x^-1")]
        near += [c**b * parse_free("x") for b in (-2, 2)]
        for word in words + planted + near:
            assert _centralizes_sigma2(word.letters) == commutes(embed(word), sigma2), word
        assert all(_centralizes_sigma2(word.letters) for word in planted)
        assert not any(_centralizes_sigma2(word.letters) for word in near)


class TestSandwichKnCommutator:
    """The ``conjugate-sandwich-kn`` check of ``lemma_suite`` relies on the
    σ2^(6k) commutators of its bases lying in K_n: σ2^6 = embed(c)^-1 Δ^2
    with c = x y^-1 x^-1 y and Δ^2 central, so the commutator of β = embed(w)
    rewrites to w c^-k w^-1 c^k, of x-exponent sum 0."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_commutator_stays_in_kn(self, n):
        from braidlab.probe import _sample_positive_commutator_base

        rng = random.Random(f"sandwich-kn/{n}")
        for _ in range(200):
            word, runs = _sample_positive_commutator_base(rng, 6, dehornoy._sign, n)
            beta = BraidWord(3, runs)
            for k in (1, 2):
                sigma2 = BraidWord(3, ((2, 6 * k),))
                rewritten = commutator_rewrite(beta * sigma2 * beta.inverse() * sigma2.inverse())
                assert kn_member(rewritten, n), (word, k)
                assert abelianize(rewritten)[0] == 0, (word, k)


def reference_positive_commutator_base(rng, max_length, n=None):
    """The object path that ``_sample_positive_commutator_base`` replaced:
    word objects drawn, substituted, embedded and signed, with the
    centralizer test done on the braids by ``commutes``."""
    sigma2 = BraidWord(3, ((2, 1),))
    for _ in range(1_000):
        if n is None:
            word = random_free_word(rng, max_length)
        else:
            word = kn_substitute(random_free_word(rng, max_length, rank=n), n)
        braid = embed(word)
        if braid.is_identity():
            continue
        verdict = dehornoy_sign(braid)
        if verdict.kind != POSITIVE or verdict.main_index != 1:
            continue
        if commutes(braid, sigma2):
            continue
        return word, braid
    return None


class TestSamplerRuns:
    """The run-level sandwich sampler against the object path it replaced:
    the same free word, the same braid runs and the same stream state on
    every substream."""

    @pytest.mark.parametrize("n, max_length", [(None, 12), (3, 6), (4, 6), (5, 6)])
    def test_matches_object_path(self, n, max_length):
        from braidlab.probe import _sample_positive_commutator_base

        for trial in range(2_000):
            rng = random.Random(f"sampler/{n}/{trial}")
            ref = random.Random(f"sampler/{n}/{trial}")
            word, beta = _sample_positive_commutator_base(rng, max_length, dehornoy._sign, n)
            ref_word, ref_beta = reference_positive_commutator_base(ref, max_length, n)
            assert (word, beta) == (ref_word.letters, ref_beta.letters), (n, trial)
            assert rng.getstate() == ref.getstate()


def reference_braid_word(rng, max_length, strands=3):
    length = rng.randint(0, max_length)
    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)


def reference_free_word(rng, max_length, rank=2):
    length = rng.randint(0, max_length)
    letters = tuple((rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length))
    return FreeWord(rank, letters)


class TestRandomWords:
    """The getrandbits draw against the randint/choice draw it replaces."""

    @pytest.mark.parametrize(
        "draw, reference, bounds",
        [
            (random_braid_word, reference_braid_word, range(2, 10)),
            (random_free_word, reference_free_word, range(1, 10)),
        ],
    )
    def test_same_words_and_stream(self, draw, reference, bounds):
        # Bound 2 strands or rank 1 leaves one index, whose draw still
        # consumes bits; the streams must end in the same state.
        for bound in bounds:
            for max_length in range(51):
                for seed in range(20):
                    rng = random.Random(f"{bound}/{max_length}/{seed}")
                    ref = random.Random(f"{bound}/{max_length}/{seed}")
                    for _ in range(2):
                        assert draw(rng, max_length, bound) == reference(ref, max_length, bound)
                    assert rng.getstate() == ref.getstate()

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            random_braid_word(random.Random(1), 5, strands=1)
        with pytest.raises(ValueError):
            random_free_word(random.Random(1), 5, rank=0)

    @pytest.mark.parametrize("draw", [random_braid_word, random_free_word])
    def test_negative_max_length_draws_nothing(self, draw):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="max_length must be nonnegative, got -1$"):
            draw(rng, -1)
        assert rng.getstate() == random.Random(1).getstate()


def reference_conradian(ctx, radius):
    """The eager scan: sign every word of the ball, then scan the pairs."""
    one = FreeWord(ctx.rank)
    positives = [
        w
        for w in ball(ctx.rank, radius)
        if not w.is_identity() and exotic_compare(one, w, ctx) == LESS
    ]
    for g in positives:
        for h in positives:
            if exotic_compare(h * g * g, g, ctx) == LESS:
                return g, h
    return None


class TestConradianSearch:
    def test_radius_zero(self):
        assert conradian_violation_search(F2, 0) is None

    @pytest.mark.parametrize(
        "ctx, radii",
        [(F2, range(7)), (ExoticContext.kn(3), range(5)), (ExoticContext.kn(4), range(4))],
    )
    def test_matches_eager_scan(self, ctx, radii):
        for radius in radii:
            assert conradian_violation_search(ctx, radius) == reference_conradian(ctx, radius)

    def test_signs_only_what_the_scan_reaches(self, monkeypatch):
        import braidlab.probe

        calls = count_calls(monkeypatch, braidlab.probe, "exotic_compare")
        assert conradian_violation_search(F2, 6) is not None
        # The eager scan made 1,461 calls: a sign for each of the 1,456 words
        # of the ball other than 1, then five pair tests.
        assert len(calls) <= 20

    def test_finds_violating_pair(self):
        pair = conradian_violation_search(F2, 6)
        assert pair is not None
        g, h = pair
        one = FreeWord(2)
        assert exotic_compare(one, g, F2) == LESS
        assert exotic_compare(one, h, F2) == LESS
        assert exotic_compare(h * g * g, g, F2) == LESS

    def test_known_small_pair(self):
        # The scan order makes the first hit (g, h) = (x, x y^-1).
        pair = conradian_violation_search(F2, 3)
        assert pair == (parse_free("x"), parse_free("x y^-1"))


def run_sign(pick):
    """The main index of the true sign, with the sign of the exponent of
    one run of that index: ``pick`` chooses it from the runs in order."""

    def sign(runs, strands):
        kind, main_index = dehornoy._sign(runs, strands)
        if kind == TRIVIAL:
            return kind, main_index
        exponent = pick([e for i, e in runs if i == main_index])
        return (POSITIVE if exponent > 0 else NEGATIVE), main_index

    return sign


def negated_sign(runs, strands):
    kind, main_index = dehornoy._sign(runs, strands)
    return {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE, TRIVIAL: TRIVIAL}[kind], main_index


def exponent_sum_sign(runs, strands):
    total = sum(e for _, e in runs)
    if total == 0:
        return TRIVIAL, None
    return (POSITIVE if total > 0 else NEGATIVE), 1


# Broken sign functions for ``lemma_suite``'s ``_sign_fn`` hook, which has
# the type of the sign core: reduced runs and a strand count to the kind and
# main index.
SIGN_MUTANTS = {
    "negated": negated_sign,
    "first-run": run_sign(lambda exponents: exponents[0]),
    "last-run": run_sign(lambda exponents: exponents[-1]),
    "exponent-sum": exponent_sum_sign,
    # σ1 and σ2 swapped before signing.
    "relabelled": lambda runs, strands: dehornoy._sign([(3 - i, e) for i, e in runs], strands),
}


class TestLemmaSuite:
    def test_small_run_passes(self):
        report = lemma_suite(seed=1, trials=10)
        assert report.passed
        names = [check.name for check in report.checks]
        assert names == [
            "alternating-shape-positivity",
            "conjugate-sandwich-f2",
            "conjugate-sandwich-kn",
            "braid-relation-identities",
            "half-twist-cofinality",
            "subword-property",
            "trichotomy",
            "left-invariance",
        ]

    @pytest.mark.parametrize(
        "mutant, expected",
        [
            pytest.param("negated", [25, 25, 25, 0, 4, 25, 0, 0], id="negated"),
            pytest.param("first-run", [20, 0, 0, 0, 0, 11, 9, 0], id="first-run"),
            pytest.param("last-run", [0, 18, 15, 0, 0, 11, 9, 0], id="last-run"),
            pytest.param("exponent-sum", [2, 25, 25, 0, 4, 0, 3, 0], id="exponent-sum"),
            pytest.param("relabelled", [0, 18, 20, 0, 0, 0, 0, 0], id="relabelled"),
        ],
    )
    def test_mutated_comparator_is_caught(self, mutant, expected):
        report = lemma_suite(seed=1, trials=25, _sign_fn=SIGN_MUTANTS[mutant])
        assert not report.passed
        assert [len(check.failures) for check in report.checks] == expected

    def test_same_seed_identical_reports(self):
        first = json.dumps(lemma_suite(3, 12).to_json_dict(), sort_keys=True)
        second = json.dumps(lemma_suite(3, 12).to_json_dict(), sort_keys=True)
        assert first == second

    def test_different_seeds_differ_somewhere(self):
        # Effort counters accumulate the lengths of the sampled words, so
        # two seeds almost surely disagree beyond the recorded seed field.
        first = lemma_suite(1, 10).to_json_dict()
        second = lemma_suite(2, 10).to_json_dict()
        assert first["checks"] != second["checks"]

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            lemma_suite(1, 0)


# Each domain error of the module not pinned above: a call, the exception
# type and the whole message.
DOMAIN_ERRORS = {
    "probe-without-generators": (
        lambda: convexity_probe([], F2, 1),
        ValueError,
        "at least one generator word is required",
    ),
    "probe-context-rank": (
        lambda: convexity_probe([FreeWord(3, ((1, 1),))], F2, 1),
        ValueError,
        "generator rank 3 does not match context rank 2",
    ),
}


@pytest.mark.parametrize("name", DOMAIN_ERRORS)
def test_domain_errors(name):
    call, error, message = DOMAIN_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
