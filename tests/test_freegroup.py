"""Free-group words, automorphisms, the kernels K_n, Stallings graphs."""

from __future__ import annotations

import math
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from braidlab import (
    NAMED_CONJUGATORS,
    ExoticContext,
    FreeWord,
    GroupAutomorphism,
    IntMatrix2,
    WordParseError,
    abelianize,
    automorphism_abelianization,
    braid_equal,
    conj_by_sigma1,
    conj_by_sigma2,
    embed,
    exotic_compare,
    flip_generators,
    half_twist,
    kn_basis,
    kn_member,
    kn_rewrite,
    kn_substitute,
    named_power,
    parse_braid,
    parse_free,
    random_free_word,
    stallings_graph,
    subgroup_contains,
    substitute,
)
from braidlab import _words, freegroup
from braidlab.freegroup import MAX_KN_INDEX, SubgroupGraph
from test_exotic import line_counts


def free_words(max_runs=10, rank=2):
    run = st.tuples(st.integers(1, rank), st.integers(-4, 4).filter(lambda e: e != 0))
    return st.lists(run, max_size=max_runs).map(lambda runs: FreeWord(rank, tuple(runs)))


def x_power(k):
    return FreeWord(2, ((1, k),)) if k else FreeWord(2)


X = FreeWord(2, ((1, 1),))
Y = FreeWord(2, ((2, 1),))


def random_kn_element(rng, n, max_length=8):
    return kn_substitute(random_free_word(rng, max_length, rank=n), n)


def reference_power(auto, word, power):
    """Apply ``auto``, or its verified inverse for a negative power, |power|
    times by substitution: the reference for :func:`named_power`."""
    if power < 0:
        auto = GroupAutomorphism(auto.inverse_images, auto.images)
    for _ in range(abs(power)):
        word = auto(word)
    return word


# The named automorphisms as literal image tuples, by their names in
# NAMED_CONJUGATORS.
LITERAL_AUTOMORPHISMS = {
    "sigma2": conj_by_sigma2(),
    "sigma1": conj_by_sigma1(),
    "flip": flip_generators(),
}


def move_order(key):
    """The move order 1, -1, 2, -2, ... of signed letters, as a sort key."""
    return abs(key), key < 0


def ordered_moves(rows):
    """Per-vertex move maps as lists of (signed letter, target), so that two
    graphs compare equal only with their moves in the same order."""
    return [list(row.items()) for row in rows]


def graph_edges(graph):
    """The edges (source, letter, target) of a graph, sorted: its moves along
    positive letters."""
    return sorted(
        (u, key, v) for u, row in enumerate(graph.moves) for key, v in row.items() if key > 0
    )


def assert_graph_invariants(graph):
    """A graph is its rank and one move map per vertex: each row's keys are
    signed letters of the rank, in the move order, and each edge u -i-> v is
    exactly two moves, +i at u and -i at v."""
    assert set(vars(graph)) == {"rank", "moves"}
    edges = graph_edges(graph)
    for row in graph.moves:
        assert list(row) == sorted(row, key=move_order)
        assert all(1 <= abs(key) <= graph.rank for key in row)
    for u, letter, v in edges:
        assert graph.moves[u][letter] == v and graph.moves[v][-letter] == u
    assert sum(map(len, graph.moves)) == 2 * len(edges)


def reference_stallings(generators):
    """The fold-and-prune construction that :func:`stallings_graph` replaced:
    union-find with separate out/in tables, then a pass that prunes non-base
    vertices of degree < 2, then the canonical breadth-first renumbering.
    Returns the move map of each vertex, sorted here in the move order, and
    the sorted edges, both from its own numbering."""
    rank = generators[0].rank
    edges = []
    next_vertex = 1
    for gen in generators:
        letters = list(gen.single_letters())
        prev = 0
        for pos, (letter, sign) in enumerate(letters):
            target = 0 if pos == len(letters) - 1 else next_vertex
            if target != 0:
                next_vertex += 1
            edges.append((prev, letter, target) if sign > 0 else (target, letter, prev))
            prev = target

    parent = list(range(next_vertex))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return True

    changed = True
    while changed:
        changed = False
        out_seen, in_seen = {}, {}
        for u, letter, v in edges:
            ru, rv = find(u), find(v)
            for seen, key, end in ((out_seen, (ru, letter), rv), (in_seen, (rv, letter), ru)):
                if key in seen:
                    changed |= union(seen[key], end)
                else:
                    seen[key] = end
    folded = {(find(u), letter, find(v)) for u, letter, v in edges}

    while True:
        degree = {}
        for u, _, v in folded:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        dangling = {w for w in degree if w != find(0) and degree[w] < 2}
        if not dangling:
            break
        folded = {e for e in folded if e[0] not in dangling and e[2] not in dangling}

    adjacency = {}
    for u, letter, v in sorted(folded):
        adjacency.setdefault(u, []).append((letter, 0, v))
        adjacency.setdefault(v, []).append((letter, 1, u))
    order = {find(0): 0}
    queue = [find(0)]
    while queue:
        current = queue.pop(0)
        for _, _, nbr in sorted(adjacency.get(current, [])):
            if nbr not in order:
                order[nbr] = len(order)
                queue.append(nbr)
    rows = [{} for _ in order]
    for u, letter, v in folded:
        rows[order[u]][letter] = order[v]
        rows[order[v]][-letter] = order[u]
    rows = [{key: row[key] for key in sorted(row, key=move_order)} for row in rows]
    return rows, sorted((order[u], letter, order[v]) for u, letter, v in folded)


def cascading_pair(k):
    """x^k y and x^(k+1) y: their petals fold onto each other in a chain of
    k merges, each one forcing the next, down to the rose on x and y."""
    return [FreeWord(2, ((1, k), (2, 1))), FreeWord(2, ((1, k + 1), (2, 1)))]


def random_generator_set(rng):
    """1-4 generators of 0-9 uniform letters at rank 1, 2, 3, 5 or 8."""
    rank = rng.choice((1, 2, 3, 5, 8))
    gens = []
    for _ in range(rng.randint(1, 4)):
        letters = [(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 9))]
        gens.append(FreeWord(rank, tuple(letters)))
    return gens


class TestWords:
    def test_parse(self):
        assert parse_free("x y^-1 x").letters == ((1, 1), (2, -1), (1, 1))

    def test_parse_g_letters(self):
        assert parse_free("g3", rank=5).letters == ((3, 1),)
        assert parse_free("g1 g2^-2", rank=2) == parse_free("x y^-2")

    def test_compact(self):
        assert parse_free("xYx") == parse_free("x y^-1 x")

    def test_out_of_range(self):
        with pytest.raises(WordParseError):
            parse_free("g3", rank=2)
        with pytest.raises(WordParseError):
            parse_free("y", rank=1)

    @pytest.mark.parametrize("text", ["", "x", "g1", "x^x"])
    def test_invalid_rank_before_text(self, text):
        # One error for an invalid bound, whatever the text.
        with pytest.raises(ValueError, match=r"^rank must be at least 1, got 0$"):
            parse_free(text, 0)

    def test_reduction(self):
        assert (X * X.inverse()).is_identity()
        with pytest.raises(ValueError, match=r"^rank mismatch: 2 != 3$"):
            X * FreeWord(3)

    @given(free_words(), free_words())
    def test_product_associative_sample(self, u, v):
        w = parse_free("xY")
        assert (u * v) * w == u * (v * w)

    def test_text_round_trip_high_rank(self):
        word = FreeWord(4, ((3, -2), (1, 1), (4, 5)))
        assert parse_free(word.to_text(), rank=4) == word


class TestAbelianize:
    def test_examples(self):
        assert abelianize(parse_free("x y^-1 x")) == (2, -1)
        assert abelianize(FreeWord(2)) == (0, 0)
        assert abelianize(parse_free("x y^-1 x^2")) == (3, -1)

    @given(free_words(), free_words())
    def test_homomorphism(self, u, v):
        total = abelianize(u * v)
        assert total == tuple(a + b for a, b in zip(abelianize(u), abelianize(v)))


class TestAutomorphisms:
    def test_generator_images(self):
        phi = conj_by_sigma2()
        assert phi(X) == parse_free("x y^-1 x")
        assert phi(Y) == parse_free("x y^-1 x^2")

    def test_inverse_round_trip(self):
        phi = conj_by_sigma2()
        assert reference_power(phi, reference_power(phi, Y, -1), 1) == Y
        rng = random.Random(31)
        for _ in range(50):
            word = random_free_word(rng, 20)
            assert reference_power(phi, reference_power(phi, word, 3), -3) == word

    def test_invalid_inverse_rejected(self):
        with pytest.raises(ValueError):
            GroupAutomorphism((X, Y), (Y, X))

    def test_inverse_images_required(self):
        with pytest.raises(TypeError):
            GroupAutomorphism((X, Y))

    def test_removed_members(self):
        assert not hasattr(GroupAutomorphism, "compose")
        assert not hasattr(GroupAutomorphism, "inverted")
        assert not hasattr(IntMatrix2, "determinant")
        assert not hasattr(SubgroupGraph, "edges")
        for name in ("_schreier_in_basis", "schreier_table"):
            assert not hasattr(freegroup, name)
        assert "schreier_table" not in freegroup.__all__

    def test_sigma1_is_flip_conjugate_of_sigma2(self):
        # The derivation the literal images replace: flip . conj_by_sigma2 . flip.
        flip, phi = flip_generators(), conj_by_sigma2()

        def conjugated(images):
            flipped = (substitute(g, flip.images) for g in (X, Y))
            return tuple(substitute(substitute(g, images), flip.images) for g in flipped)

        psi = conj_by_sigma1()
        assert psi.images == conjugated(phi.images)
        assert psi.inverse_images == conjugated(phi.inverse_images)

    def test_flip_realizes_half_twist_conjugation(self):
        flip = flip_generators()
        assert flip(X) == X.inverse()
        delta = half_twist()
        rng = random.Random(32)
        for _ in range(30):
            word = random_free_word(rng, 16)
            assert braid_equal(embed(flip(word)), delta * embed(word) * delta.inverse())

    def test_sigma1_conjugation_against_burau(self):
        psi = conj_by_sigma1()
        s1 = parse_braid("s1")
        rng = random.Random(33)
        for _ in range(30):
            word = random_free_word(rng, 16)
            assert braid_equal(embed(psi(word)), s1.inverse() * embed(word) * s1)

    def test_sigma2_conjugation_against_burau(self):
        phi = conj_by_sigma2()
        s2 = parse_braid("s2")
        rng = random.Random(34)
        for _ in range(30):
            word = random_free_word(rng, 16)
            assert braid_equal(embed(phi(word)), s2.inverse() * embed(word) * s2)


class TestAbelianizationMatrix:
    def test_sigma2_matrix(self):
        matrix = automorphism_abelianization(conj_by_sigma2())
        assert matrix.rows == ((2, 3), (-1, -1))
        (a, b), (c, d) = matrix.rows
        assert a * d - b * c == 1

    def test_sixth_power_is_identity(self):
        matrix = automorphism_abelianization(conj_by_sigma2())
        assert matrix**6 == IntMatrix2.identity()
        assert all(matrix**p != IntMatrix2.identity() for p in range(1, 6))

    def test_identity_automorphism(self):
        identity = GroupAutomorphism((X, Y), (X, Y))
        assert automorphism_abelianization(identity) == IntMatrix2.identity()

    def test_matches_composition(self):
        phi = conj_by_sigma2()
        matrix = automorphism_abelianization(phi)
        square = GroupAutomorphism(
            tuple(phi(image) for image in phi.images),
            tuple(substitute(image, phi.inverse_images) for image in phi.inverse_images),
        )
        assert automorphism_abelianization(square) == matrix * matrix


class TestKnMembership:
    def test_y_always_member(self):
        for n in range(2, 9):
            assert kn_member(Y, n)

    def test_x_examples(self):
        assert not kn_member(X, 3)
        assert kn_member(X * X, 3)

    def test_n2_is_everything(self):
        rng = random.Random(35)
        for _ in range(20):
            assert kn_member(random_free_word(rng, 12), 2)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            kn_member(X, 1)


# The reference that kn_rewrite's closed form is checked against: the
# Schreier generators encoded in the K_n basis case by case, one (coset i,
# generator j) pair at a time, with j = 1, 2, 3, 4 for x, x^-1, y, y^-1.
def schreier_in_basis(i, j, n):
    if j == 1:
        return ((2, 1),) if i == n - 2 else ()
    if j == 2:
        return ((2, -1),) if i == 0 else ()
    if j == 3:
        return ((1, 1),) if i == 0 else ((i + 2, 1), (2, -1))
    if i == 0:
        return ((1, -1),)
    return ((2, 1), (i + 2, -1))


def schreier_table(n):
    """Reidemeister-Schreier table for K_n with transversal 1, x, ..., x^{n-2}:
    (i, j) -> (h, k) with x^i g_j = h x^k, each h the encoding above
    substituted back into F_2."""
    basis = kn_basis(n)
    table = {}
    for i in range(n - 1):
        for j, step in ((1, 1), (2, -1), (3, 0), (4, 0)):
            h = substitute(FreeWord(n, schreier_in_basis(i, j, n)), basis)
            table[(i, j)] = (h, (i + step) % (n - 1))
    return table


class TestSchreierTable:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_x_rows(self, n):
        table = schreier_table(n)
        for i in range(n - 2):
            assert table[(i, 1)] == (FreeWord(2), i + 1)
        assert table[(n - 2, 1)] == (x_power(n - 1), 0)
        for i in range(1, n - 1):
            assert table[(i, 2)] == (FreeWord(2), i - 1)
        assert table[(0, 2)] == (x_power(-(n - 1)), n - 2)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_y_rows_are_conjugates(self, n):
        table = schreier_table(n)
        for i in range(n - 1):
            conj = x_power(i) * Y * x_power(-i)
            assert table[(i, 3)] == (conj, i)
            assert table[(i, 4)] == (conj.inverse(), i)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_defining_equation(self, n):
        # x^i g_j = h x^k for every row (i, j) -> (h, k).
        gens = {1: X, 2: X.inverse(), 3: Y, 4: Y.inverse()}
        table = schreier_table(n)
        for (i, j), (h, k) in table.items():
            assert x_power(i) * gens[j] == h * x_power(k)
            assert kn_member(h, n)


class TestKnBasis:
    def test_small_cases(self):
        assert [w.to_text() for w in kn_basis(2)] == ["y", "x"]
        assert [w.to_text() for w in kn_basis(3)] == ["y", "x^2", "x y x"]
        assert [w.to_text() for w in kn_basis(4)] == ["y", "x^3", "x y x^2", "x^2 y x"]

    def test_returned_list_is_not_shared(self):
        basis = kn_basis(3)
        basis.clear()
        assert [w.to_text() for w in kn_basis(3)] == ["y", "x^2", "x y x"]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_formula(self, n):
        basis = kn_basis(n)
        assert len(basis) == n
        assert basis[0] == Y
        assert basis[1] == x_power(n - 1)
        for i in range(1, n - 1):
            assert basis[i + 1] == x_power(i) * Y * x_power(n - 1 - i)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_members(self, n):
        for word in kn_basis(n):
            assert kn_member(word, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_stallings_rank_is_n(self, n):
        assert stallings_graph(kn_basis(n)).cycle_rank() == n


def reference_kn_table(n, letters=None):
    """The reference that ``freegroup._kn_runs`` is checked against: the
    ``_words.substitute`` table of the K_n basis that the library once
    cached per n, each basis word written as literal runs and normalized,
    next to its inverse.  Only ``letters`` when given, so that a large n
    needs no table of n entries."""
    table = {}
    for i in range(1, n + 1) if letters is None else letters:
        if i == 1:
            runs = ((2, 1),)
        elif i == 2:
            runs = ((1, n - 1),)
        else:
            runs = ((1, i - 2), (2, 1), (1, n + 1 - i))
        image = _words.normalize(runs)
        table[i] = (_words.invert(image), image)
    return table


class TestKnRuns:
    """The one closed-form map from K_n words to F_2 against the reference
    table, and the memory it leaves behind."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_table(self, n):
        table = reference_kn_table(n)
        rng = random.Random(f"kn-runs/{n}")
        for _ in range(1_000):
            runs = random_free_word(rng, 12, rank=n).letters
            assert freegroup._kn_runs(runs, n) == _words.substitute(runs, table), runs

    @pytest.mark.parametrize("n", [MAX_KN_INDEX - 1, MAX_KN_INDEX])
    def test_matches_reference_table_near_the_index_limit(self, n):
        rng = random.Random(f"kn-runs-large/{n}")
        letters = [1, 2, 3, 4, n - 1, n, *(rng.randint(5, n - 2) for _ in range(4))]
        table = reference_kn_table(n, letters)
        for _ in range(300):
            runs = FreeWord(
                n,
                tuple(
                    (rng.choice(letters), rng.choice((1, -1)) * rng.randint(1, 3))
                    for _ in range(rng.randint(0, 6))
                ),
            ).letters
            assert freegroup._kn_runs(runs, n) == _words.substitute(runs, table), runs

    @pytest.mark.parametrize("n", [2, 3, 50, 1000])
    def test_basis_is_the_reference_images(self, n):
        images = [image for _, image in reference_kn_table(n).values()]
        assert [word.letters for word in kn_basis(n)] == images

    def test_nothing_is_held_per_n(self):
        # Each call builds what it returns and nothing more: a table kept
        # per n held about 63 MB at each n near the index limit.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n in (MAX_KN_INDEX, MAX_KN_INDEX - 1):
                basis = kn_basis(n)
                image = kn_substitute(FreeWord(n, ((n, 2), (1, -1))), n)
                verdict = exotic_compare(
                    FreeWord(n, ((1, 1),)), FreeWord(n, ((1, 2),)), ExoticContext.kn(n)
                )
                assert (len(basis), image.rank, verdict) == (n, 2, "less")
                del basis, image
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2**21


def reference_kn_rewrite(word, n):
    """The letter-by-letter Schreier scan over the reference encoding."""
    runs = []
    state = 0
    for index, sign in word.single_letters():
        j = (1 if sign > 0 else 2) if index == 1 else (3 if sign > 0 else 4)
        runs.extend(schreier_in_basis(state, j, n))
        if index == 1:
            state = (state + sign) % (n - 1)
    return FreeWord(n, tuple(runs))


class TestKnRewrite:
    def test_basis_letters(self):
        assert kn_rewrite(Y, 4).letters == ((1, 1),)
        assert kn_rewrite(x_power(3), 4).letters == ((2, 1),)

    def test_conjugate_example(self):
        # Oracle first: g3 g2^-1 substitutes to (x y x)(x^2)^-1 = x y x^-1.
        assert kn_basis(3)[2] * kn_basis(3)[1].inverse() == parse_free("x y x^-1")
        rewritten = kn_rewrite(parse_free("x y x^-1"), 3)
        assert rewritten == FreeWord(3, ((3, 1), (2, -1)))

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            kn_rewrite(X, 3)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_round_trip(self, n):
        rng = random.Random(500 + n)
        for _ in range(200):
            word = random_kn_element(rng, n)
            assert kn_substitute(kn_rewrite(word, n), n) == word

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_letter_scan(self, n):
        rng = random.Random(700 + n)
        for _ in range(60):
            runs = [
                (rng.randint(1, 2), rng.choice((1, -1)) * rng.randint(1, 1000))
                for _ in range(rng.randint(0, 6))
            ]
            word = FreeWord(2, tuple(runs))
            word = word * x_power(-(abelianize(word)[0] % (n - 1)))
            assert kn_member(word, n)
            assert kn_rewrite(word, n) == reference_kn_rewrite(word, n)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x^1000000000 y x^-1000000000", "g2^500000000 g1 g2^-500000000"),
            ("y^1000000000", "g1^1000000000"),
        ],
    )
    def test_long_runs_take_a_few_steps(self, text, expected):
        start = time.perf_counter()
        rewritten = kn_rewrite(parse_free(text), 3)
        assert time.perf_counter() - start < 0.05
        assert rewritten.to_text() == expected


class TestSixthPowerClosure:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_phi_sixth_preserves_kn(self, n):
        phi = conj_by_sigma2()
        rng = random.Random(600 + n)
        for _ in range(200):
            word = random_kn_element(rng, n, max_length=6)
            assert kn_member(reference_power(phi, word, 6), n)

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_smaller_powers_escape(self, n):
        # Witness that the sixth power is needed: some member leaves K_n
        # under a smaller power.
        phi = conj_by_sigma2()
        found = None
        for p in range(1, 6):
            for word in [Y, x_power(n - 1)] + kn_basis(n):
                if not kn_member(reference_power(phi, word, p), n):
                    found = (word, p)
                    break
            if found:
                break
        assert found is not None

    def test_n4_is_preserved_by_every_power(self):
        # The abelianized map sends (a, b) to (2a + 3b, -a - b), and in every
        # power the top-right entry stays a multiple of 3, so the image
        # x-sum is a multiple of a mod 3: membership in K_4 (a = 0 mod 3)
        # can never be broken.  No witness exists for n = 4.
        phi = conj_by_sigma2()
        matrix = automorphism_abelianization(phi)
        for p in range(1, 6):
            assert (matrix**p).rows[0][1] % 3 == 0
        rng = random.Random(604)
        for p in range(1, 6):
            for _ in range(60):
                word = random_kn_element(rng, 4, max_length=6)
                assert kn_member(reference_power(phi, word, p), 4)


# The named conjugations have inner sixth powers: σ2^6 = embed(C)^-1 Δ² and
# σ1^6 = embed(D) Δ², and Δ² is central.
C = parse_free("x y^-1 x^-1 y")
D = parse_free("y x^-1 y^-1 x")


class TestSixthPowerIdentities:
    def test_braid_identities(self):
        assert braid_equal(parse_braid("s2^6"), embed(C).inverse() * half_twist(2))
        assert braid_equal(parse_braid("s1^6"), embed(D) * half_twist(2))

    def test_sixth_powers_are_conjugations(self):
        phi, psi = conj_by_sigma2(), conj_by_sigma1()
        rng = random.Random(2901)
        for _ in range(200):
            word = random_free_word(rng, 12)
            assert reference_power(phi, word, 6) == C * word * C.inverse()
            assert reference_power(psi, word, 6) == D.inverse() * word * D

    def test_flip_is_an_involution(self):
        flip = flip_generators()
        assert [flip(image) for image in flip.images] == [X, Y]
        rng = random.Random(2902)
        for _ in range(200):
            word = random_free_word(rng, 12)
            assert reference_power(flip, word, 2) == word

    @pytest.mark.parametrize("p", [-13, -7, 7, 13])
    def test_powers_reduce_mod_six(self, p):
        # φ^p = C^q φ^r C^-q and ψ^p = D^-q ψ^r D^q for p = 6q + r.
        phi, psi = conj_by_sigma2(), conj_by_sigma1()
        q, r = divmod(p, 6)
        rng = random.Random(2903 + p)
        for _ in range(200):
            word = random_free_word(rng, 12)
            inner_phi, inner_psi = (reference_power(a, word, r) for a in (phi, psi))
            assert reference_power(phi, word, p) == C**q * inner_phi * C**-q
            assert reference_power(psi, word, p) == D**-q * inner_psi * D**q


class TestNamedPower:
    def test_names(self):
        assert NAMED_CONJUGATORS.keys() == LITERAL_AUTOMORPHISMS.keys()

    @pytest.mark.parametrize("name", sorted(LITERAL_AUTOMORPHISMS))
    def test_matches_reference(self, name):
        auto = LITERAL_AUTOMORPHISMS[name]
        rng = random.Random(3100)
        for _ in range(200):
            word = random_free_word(rng, 12)
            for p in range(-13, 14):
                assert named_power(name, word, p) == reference_power(auto, word, p)


class TestStallings:
    def test_cyclic_subgroup(self):
        graph = stallings_graph([X])
        assert subgroup_contains(graph, x_power(5))
        assert not subgroup_contains(graph, Y)

    def test_membership_by_explicit_product(self):
        # x y x = (x y x^-1) x^2, a product of the generators.
        gens = [parse_free("x^2"), Y, parse_free("x y x^-1")]
        assert gens[2] * gens[0] == parse_free("x y x")
        graph = stallings_graph(gens)
        assert subgroup_contains(graph, parse_free("x y x"))

    def test_identity_always_member(self):
        graph = stallings_graph([parse_free("x y")])
        assert subgroup_contains(graph, FreeWord(2))

    def test_non_cyclically_reduced_generator(self):
        graph = stallings_graph([parse_free("x y x^-1")])
        assert subgroup_contains(graph, parse_free("x y^3 x^-1"))
        assert not subgroup_contains(graph, Y)
        assert graph.cycle_rank() == 1

    @pytest.mark.parametrize(
        "gens, word, member",
        [
            (["x^2"], "x^1000000000", True),
            (["x^2"], "x^1000000001", False),
            (["x^-3"], "x^-999999999", True),
            # x from the base: 0 -> 1 -> 2, then no x-move; the walk falls off.
            (["x^2 y"], "x^1000000000", False),
            # The walk along x starts off the base, at the end of y.
            (["y x^3 y^-1"], "y x^3000000000 y^-1", True),
            (["y x^3 y^-1"], "y x^1000000000 y^-1", False),
            (["x^2", "y x^5 y^-1"], "x^1000000000 y x^-1000000000 y^-1", True),
        ],
    )
    def test_long_runs(self, gens, word, member):
        # A billion-letter run walks at most one cycle of its key: no line of
        # the membership test runs more than a few times per vertex.
        graph = stallings_graph([parse_free(g) for g in gens])
        line_counts(subgroup_contains, graph, parse_free(word), limit=100)
        assert subgroup_contains(graph, parse_free(word)) is member

    # In <y x^5 y^-1, x^2 y> the x-moves at the end of y form a cycle of
    # period 5, and the x-walk from the base falls off after two letters,
    # where y leads back to the base.  The runs are one short of the period,
    # the period, one past it and multiples of it.
    @pytest.mark.parametrize(
        "word, member",
        [
            ("y x^4 y^-1", False),
            ("y x^5 y^-1", True),
            ("y x^6 y^-1", False),
            ("y x^10 y^-1", True),
            ("y x^-4 y^-1", False),
            ("y x^-5 y^-1", True),
            ("y x^-6 y^-1", False),
            ("y x^-15 y^-1", True),
            ("y x^1000000000 y^-1", True),
            ("y x^1000000001 y^-1", False),
            ("x^2 y", True),
            ("x^4 y", False),
            ("x^5 y", False),
            ("x^6 y", False),
            ("x^10 y", False),
            ("x^1000000000 y", False),
        ],
    )
    def test_runs_at_the_period(self, word, member):
        graph = stallings_graph([parse_free("y x^5 y^-1"), parse_free("x^2 y")])
        word = parse_free(word)
        assert subgroup_contains(graph, word) is member
        if word.length < 100:
            assert self.letter_walk(graph, word) is member

    def test_each_letter_moves_injectively(self):
        # The premise of the membership walk: in a folded graph no two moves
        # with one signed letter reach one vertex, so a walk along one letter
        # falls off or comes back to its start.
        rng = random.Random(3032)
        for _ in range(2_000):
            graph = stallings_graph(random_generator_set(rng))
            for key in {key for row in graph.moves for key in row}:
                targets = [row[key] for row in graph.moves if key in row]
                assert len(targets) == len(set(targets))

    @staticmethod
    def letter_walk(graph, word):
        """Membership read one letter at a time: the reference of the
        membership test's return-to-start shortcut."""
        vertex = graph.base
        for letter, sign in word.single_letters():
            vertex = graph.moves[vertex].get(letter * sign)
            if vertex is None:
                return False
        return vertex == graph.base

    def test_long_runs_on_any_move_maps(self):
        # The shortcut needs no folding: on random move maps, where a walk
        # may enter a cycle that does not pass through its start and so
        # walks every letter, it reads what the letter walk reads.
        rng = random.Random(3031)
        for _ in range(500):
            size = rng.randint(1, 6)
            moves = tuple(
                {key: rng.randrange(size) for key in (1, -1, 2, -2) if rng.random() < 0.8}
                for _ in range(size)
            )
            graph = SubgroupGraph(2, moves)
            for _ in range(20):
                runs = [(rng.randint(1, 2), rng.randint(-100, 100)) for _ in range(3)]
                word = FreeWord(2, tuple(runs))
                assert subgroup_contains(graph, word) == self.letter_walk(graph, word)

    def test_long_runs_match_letter_walk(self):
        # A run longer than the vertex count falls off or comes back to its
        # start, and then takes the shortcut; the letter-by-letter walk is
        # the reference.
        walk = self.letter_walk
        rng = random.Random(3030)
        long_runs = 0
        for _ in range(2_000):
            gens = random_generator_set(rng)
            graph = stallings_graph(gens)
            rank = gens[0].rank
            top = 10 * graph.num_vertices + 10
            for _ in range(5):
                # A member conjugated by a long run, or a random run word.
                runs = [(rng.randint(1, rank), rng.choice((1, -1)) * rng.randint(1, top))]
                runs += [(rng.randint(1, rank), rng.randint(-top, top)) for _ in range(3)]
                word = FreeWord(rank, tuple(runs))
                if rng.random() < 0.5:
                    middle = gens[rng.randrange(len(gens))]
                    word = word * middle * word.inverse()
                long_runs += any(abs(e) > graph.num_vertices for _, e in word.letters)
                assert subgroup_contains(graph, word) == walk(graph, word), (gens, word)
        assert long_runs > 5_000

    def test_trivial_subgroup(self):
        graph = stallings_graph([FreeWord(2)])
        assert graph.num_vertices == 1
        assert subgroup_contains(graph, FreeWord(2))
        assert not subgroup_contains(graph, X)

    @staticmethod
    def assert_matches_reference(gens):
        graph = stallings_graph(gens)
        rows, edges = reference_stallings(gens)
        assert_graph_invariants(graph)
        assert ordered_moves(graph.moves) == ordered_moves(rows)
        assert graph_edges(graph) == edges
        # The degree counts a loop twice: as +i and as -i.
        degrees = [len(row) for row in graph.moves]
        assert min(degrees[1:], default=2) >= 2, gens
        # cycle_rank counts the edges without listing them.
        assert graph.cycle_rank() == len(edges) - graph.num_vertices + 1

    def test_matches_reference_on_random_sets(self):
        rng = random.Random(1010)
        for _ in range(100_000):
            self.assert_matches_reference(random_generator_set(rng))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_reference_on_kn_bases(self, n):
        self.assert_matches_reference(kn_basis(n))

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 37, 300])
    def test_matches_reference_on_cascading_pairs(self, k):
        self.assert_matches_reference(cascading_pair(k))

    @pytest.mark.parametrize(
        "a, b", [(1, 1), (2, 3), (4, 6), (12, 18), (35, 21), (300, 299), (256, 96)]
    )
    def test_matches_reference_on_two_powers(self, a, b):
        # <x^a, x^b> = <x^gcd(a, b)>: the graph is one cycle of gcd(a, b) x-edges.
        gens = [x_power(a), x_power(b)]
        self.assert_matches_reference(gens)
        graph = stallings_graph(gens)
        assert graph.num_vertices == math.gcd(a, b) and graph.cycle_rank() == 1
        assert all(list(row) == [1, -1] for row in graph.moves)

    def test_fold_work_is_linear_in_letters(self):
        # A fold that sweeps every edge once per merge of the chain runs its
        # sweep body about k^2 times.
        k = 2000
        counts = line_counts(stallings_graph, cascading_pair(k), limit=10 * k)
        assert max(counts.values()) > k  # the tracer saw the fold

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
        reason="the bound is calibrated on the dict sizes of CPython 3.11",
    )
    def test_fold_keeps_one_map_per_vertex(self):
        # The rows the fold works in are the result's moves: one map per
        # vertex is about 350 B per letter, a second one about 600.
        k = 20_000
        tracemalloc.start()
        try:
            graph = stallings_graph([x_power(k)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_vertices == k
        assert peak < 450 * k

    def test_deterministic_construction(self):
        gens = [parse_free("x^2"), Y, parse_free("x y x^-1")]
        first = stallings_graph(gens)
        second = stallings_graph(gens)
        assert ordered_moves(first.moves) == ordered_moves(second.moves)

    @pytest.mark.parametrize(
        "gens",
        [["x^2", "y"], ["x y x^-1"], ["x y", "y x"]],
    )
    def test_agrees_with_naive_enumeration(self, gens):
        generators = [parse_free(g) for g in gens]
        graph = stallings_graph(generators)
        # Naive oracle: close the generator set under multiplication, keeping
        # intermediate words of length <= 10, until nothing new appears.  Any
        # subgroup element of length <= 6 admits a factorization whose
        # prefixes stay within that cap.
        elements = {FreeWord(2)}
        factors = generators + [g.inverse() for g in generators]
        while True:
            grown = {
                p for w in elements for f in factors if (p := w * f).length <= 10
            }
            if grown <= elements:
                break
            elements |= grown
        enumerated_short = {w for w in elements if w.length <= 6}
        from braidlab import ball

        for word in ball(2, 6):
            assert subgroup_contains(graph, word) == (word in enumerated_short)


Z3 = FreeWord(3, ((1, 1),))
RANK3 = tuple(FreeWord(3, ((i, 1),)) for i in (1, 2, 3))

# Each domain error of the module: a call, the exception type and the whole
# message.
DOMAIN_ERRORS = {
    "substitute-too-few-images": (
        lambda: substitute(X, [X]), ValueError, "need 2 images, got 1"
    ),
    "automorphism-without-images": (
        lambda: GroupAutomorphism((), ()),
        ValueError,
        "an automorphism needs at least one generator image",
    ),
    "automorphism-mixed-image-ranks": (
        lambda: GroupAutomorphism((X, Z3), (X, Y)),
        ValueError,
        "generator images must live in the same rank",
    ),
    "automorphism-inverse-count": (
        lambda: GroupAutomorphism((X, Y), (X,)),
        ValueError,
        "inverse images must match the rank",
    ),
    # y under (y, x) is x, but y under (y, y) is y, not x.
    "automorphism-inverse-against-generator": (
        lambda: GroupAutomorphism((Y, Y), (Y, X)),
        ValueError,
        "stored inverse fails against g1",
    ),
    "apply-automorphism-rank": (
        lambda: conj_by_sigma2()(Z3),
        ValueError,
        "word rank 3 does not match automorphism rank 2",
    ),
    "matrix-negative-power": (
        lambda: IntMatrix2.identity() ** -1,
        ValueError,
        "negative matrix powers are not supported",
    ),
    "abelianization-rank": (
        lambda: automorphism_abelianization(GroupAutomorphism(RANK3, RANK3)),
        ValueError,
        "abelianization matrix is only provided for rank 2",
    ),
    # One index past the limit, refused before any table is built.
    "kn-index-limit": (
        lambda: kn_basis(100_001), ValueError, "n must be at most 100000, got 100001"
    ),
    "stallings-letter-limit": (
        lambda: stallings_graph([FreeWord(2, ((1, 1_000_000_000),))]),
        ValueError,
        "generators have more than 100000 letters in total",
    ),
    "kn-member-rank": (
        lambda: kn_member(Z3, 3), ValueError, "K_n membership is defined for rank-2 words"
    ),
    "kn-rewrite-rank": (
        lambda: kn_rewrite(Z3, 3), ValueError, "K_n rewriting is defined for rank-2 words"
    ),
    # x leaves the trivial coset, where y^500001 would emit 1000002 runs.
    "kn-rewrite-run-limit": (
        lambda: kn_rewrite(parse_free("x y^500001 x^-1"), 3),
        ValueError,
        "kn_rewrite emits at most 1000000 runs, reached 1000002",
    ),
    "kn-substitute-rank": (
        lambda: kn_substitute(X, 3), ValueError, "expected a rank-3 word, got rank 2"
    ),
    # One character over the text limit, refused before the text is read.
    "parse-text-limit": (
        lambda: parse_free("x" * 8_388_609),
        ValueError,
        "word text takes at most 8388608 characters, got 8388609",
    ),
    "stallings-without-generators": (
        lambda: stallings_graph([]),
        ValueError,
        "at least one generator word is required (it may be trivial)",
    ),
    "stallings-mixed-ranks": (
        lambda: stallings_graph([X, Z3]), ValueError, "generators must share a rank"
    ),
    "subgroup-contains-rank": (
        lambda: subgroup_contains(stallings_graph([X]), Z3),
        ValueError,
        "rank mismatch: word 3, graph 2",
    ),
}


@pytest.mark.parametrize("name", DOMAIN_ERRORS)
def test_domain_errors(name):
    call, error, message = DOMAIN_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
