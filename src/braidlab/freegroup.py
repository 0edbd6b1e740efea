"""Free-group words, automorphisms, the kernels K_n, and subgroup membership.

Words of the free group F_r live over letters g1 .. gr (aliases x = g1 and
y = g2).  A :class:`FreeWord` is a :class:`~braidlab._words.RunWord`, like a
braid word: run-length encoded, always freely reduced, with validation,
parsing, products, inverses and powers from the run-word core.  On top of
the words this module provides:

* automorphisms with verified inverses, applied once by substitution,
  among them the conjugation actions that the three-strand braid group
  induces on its commutator subgroup, each named one a literal pair of image
  tuples (their powers are one conjugation in B_3 and one rewrite, in
  :func:`braidlab.exotic.named_power`),
* abelianization and 2x2 integer matrices for the induced maps on Z^2,
* the subgroups K_n = ker(F_2 -> Z_{n-1}, y -> 0, x -> 1): membership, the
  rank-n basis [y, x^{n-1}, x y x^{n-2}, ..., x^{n-2} y x], and
  Reidemeister-Schreier rewriting of members over it, a run a step,
* Stallings subgroup graphs (folded automata) for membership in arbitrary
  finitely generated subgroups.

Text grammar: terms ``x``, ``y`` or ``g<INT>`` with an optional ``^SINT``,
whitespace separated; rank-2 words also admit the compact alphabet
``x/X/y/Y`` (capitals are inverses).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from . import _words

__all__ = [
    "FreeWord",
    "parse_free",
    "abelianize",
    "substitute",
    "GroupAutomorphism",
    "IntMatrix2",
    "automorphism_abelianization",
    "conj_by_sigma2",
    "conj_by_sigma1",
    "flip_generators",
    "kn_member",
    "kn_basis",
    "kn_rewrite",
    "kn_substitute",
    "SubgroupGraph",
    "stallings_graph",
    "subgroup_contains",
]


@dataclasses.dataclass(frozen=True)
class FreeWord(_words.RunWord):
    """A freely reduced word in the free group of the given rank.

    ``letters`` holds ``(letter_index, exponent)`` runs with indices in
    ``[1, rank]``.  The public constructor, inherited from the run-word core,
    normalizes the runs and validates the rank and every index; library
    operations on reduced words (inverse, powers, products, parsing,
    substitution) build their results already reduced, through
    :meth:`_reduced`.  A product of words of different ranks raises
    ``ValueError``.  The class itself holds only data: the bound, its
    messages and the text alphabet.
    """

    _BOUND = "rank"
    _LEAST = 1
    _BOUND_ERROR = "rank must be at least 1, got {}"
    _RANGE_ERROR = "letter {} out of range for rank {}"
    _MISMATCH = "rank mismatch"
    _COMPACT = {"x": (1, 1), "X": (1, -1), "y": (2, 1), "Y": (2, -1)}
    _HEAD, _ALIAS, _TOKEN = "g", {"x": 1, "y": 2}, "letter"

    rank: int = 2
    letters: tuple[tuple[int, int], ...] = ()

    def _letter_name(self, index: int) -> str:
        """Text forms read ``x y^-1`` for rank <= 2, ``g1 g2^-1`` above."""
        return ("x", "y")[index - 1] if self.rank <= 2 else f"g{index}"


def parse_free(text: str, rank: int = 2) -> FreeWord:
    """Parse a free-group word (verbose grammar or rank-2 compact form).

    Raises :class:`~braidlab._words.WordParseError` with the byte offset of
    the offending token on malformed input or an out-of-range letter.  A
    rank below 1 raises the constructor's ``ValueError`` before the text is
    read.
    """
    return FreeWord._parse(text, rank)


def abelianize(word: FreeWord) -> tuple[int, ...]:
    """Exponent-sum vector, one entry per letter of the alphabet."""
    sums = [0] * word.rank
    for index, exponent in word.letters:
        sums[index - 1] += exponent
    return tuple(sums)


def substitute(word: FreeWord, images: Sequence[FreeWord]) -> FreeWord:
    """Apply the homomorphism sending letter i to ``images[i-1]``.

    All images must share one rank, the rank of the result.
    """
    if len(images) < word.rank:
        raise ValueError(f"need {word.rank} images, got {len(images)}")
    target_rank = images[0].rank
    for image in images:
        if image.rank != target_rank:
            raise ValueError(f"images must share one rank, got {target_rank} and {image.rank}")
    table = _words.substitution_table(image.letters for image in images)
    return FreeWord._reduced(target_rank, _words.substitute(word.letters, table))


@dataclasses.dataclass(frozen=True)
class GroupAutomorphism:
    """An automorphism given by the images of the generators and of its inverse.

    The constructor verifies that the two substitutions compose to the
    identity on every generator, both ways, so the stored inverse is always a
    genuine inverse.
    """

    images: tuple[FreeWord, ...]
    inverse_images: tuple[FreeWord, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("an automorphism needs at least one generator image")
        rank = len(self.images)
        for image in self.images:
            if image.rank != rank:
                raise ValueError("generator images must live in the same rank")
        if len(self.inverse_images) != rank:
            raise ValueError("inverse images must match the rank")
        for i in range(1, rank + 1):
            gen = FreeWord(rank, ((i, 1),))
            if substitute(self.images[i - 1], self.inverse_images) != gen:
                raise ValueError(f"stored inverse fails on the image of g{i}")
            if substitute(self.inverse_images[i - 1], self.images) != gen:
                raise ValueError(f"stored inverse fails against g{i}")

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, word: FreeWord) -> FreeWord:
        if word.rank != self.rank:
            raise ValueError(f"word rank {word.rank} does not match automorphism rank {self.rank}")
        return substitute(word, self.images)


@dataclasses.dataclass(frozen=True)
class IntMatrix2:
    """A 2x2 matrix of unbounded integers (rows as tuples)."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    @classmethod
    def identity(cls) -> "IntMatrix2":
        return cls(((1, 0), (0, 1)))

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return IntMatrix2(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))

    def __pow__(self, k: int) -> "IntMatrix2":
        if k < 0:
            raise ValueError("negative matrix powers are not supported")
        result = IntMatrix2.identity()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def automorphism_abelianization(auto: GroupAutomorphism) -> IntMatrix2:
    """Matrix of the induced map on Z^2; columns are the abelianized images."""
    if auto.rank != 2:
        raise ValueError("abelianization matrix is only provided for rank 2")
    col_x = abelianize(auto.images[0])
    col_y = abelianize(auto.images[1])
    return IntMatrix2(((col_x[0], col_y[0]), (col_x[1], col_y[1])))


def conj_by_sigma2() -> GroupAutomorphism:
    """The automorphism x -> x y^-1 x, y -> x y^-1 x^2 of F_2.

    Under the commutator-subgroup embedding x = σ1 σ2^-1, y = σ1^2 σ2^-2 it
    realizes g -> σ2^-1 g σ2 (verified against the Burau oracle in the test
    suite).
    """
    return GroupAutomorphism(
        (parse_free("xYx"), parse_free("xYxx")),
        (parse_free("Xy"), parse_free("XyXXy")),
    )


def flip_generators() -> GroupAutomorphism:
    """The involution x -> x^-1, y -> y^-1 (conjugation by the half twist)."""
    images = (parse_free("X"), parse_free("Y"))
    return GroupAutomorphism(images, images)


def conj_by_sigma1() -> GroupAutomorphism:
    """x -> x y^-1 x, y -> x^2 y^-1 x: g -> σ1^-1 g σ1 on the commutator
    subgroup, and flip . conj_by_sigma2 . flip (both checked in the tests)."""
    return GroupAutomorphism(
        (parse_free("xYx"), parse_free("xxYx")),
        (parse_free("yX"), parse_free("yXXyX")),
    )


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")


def kn_member(word: FreeWord, n: int) -> bool:
    """Whether a rank-2 word lies in K_n, i.e. its x-exponent sum is 0 mod n-1."""
    _check_n(n)
    if word.rank != 2:
        raise ValueError("K_n membership is defined for rank-2 words")
    return abelianize(word)[0] % (n - 1) == 0


def kn_basis(n: int) -> list[FreeWord]:
    """The rank-n basis [y, x^{n-1}, x y x^{n-2}, ..., x^{n-2} y x] of K_n.

    For 1 <= i <= n-2, x^i y x^{n-1-i} is the Schreier generator x^i y x^-i
    right-multiplied by x^{n-1}.  Each call returns a fresh list, read off
    the substitution table built once per n.
    """
    return [FreeWord._reduced(2, image) for _, image in _kn_table(n).values()]


@functools.lru_cache(maxsize=64)
def _kn_table(n: int) -> dict[int, tuple[_words.Runs, _words.Runs]]:
    """The :func:`_words.substitute` table of the K_n basis.

    The literal runs go through :func:`_words.normalize`, which also makes
    every small run the shared run object.
    """
    _check_n(n)
    conjugates = (((1, i), (2, 1), (1, n - 1 - i)) for i in range(1, n - 1))
    basis = (((2, 1),), ((1, n - 1),), *conjugates)
    return _words.substitution_table(_words.normalize(runs) for runs in basis)


# The most runs kn_rewrite emits for y-runs off the trivial coset, two per
# letter: `kn-rewrite 3 "x y^500000 x^-1"` took 0.57-0.65 s and 97 MB in a
# fresh process capped at 1 GiB (2-core VM).  Every other run emits one run.
MAX_KN_REWRITE_RUNS = 1_000_000


def kn_rewrite(word: FreeWord, n: int) -> FreeWord:
    """Rewrite a member of K_n over the basis alphabet g1 .. gn.

    Scans the word run by run, tracking the coset representative x^i and
    emitting each Schreier generator in closed form: an x-run is one divmod
    and emits g2^wraps, one g2 per wrap from x^{n-2} to x^0; a y-run y^e
    emits g1^e at the trivial coset and, at coset i > 0, where
    x^i y x^-i = g_{i+2} g2^-1, emits (g_{i+2} g2^-1)^e, written
    (g2 g_{i+2}^-1)^|e| for e < 0.  Substituting the basis words back
    (:func:`kn_substitute`) recovers the input.  Rejects words outside K_n,
    and stops before y-runs emit more than ``MAX_KN_REWRITE_RUNS`` runs.
    """
    _check_n(n)
    if word.rank != 2:
        raise ValueError("K_n rewriting is defined for rank-2 words")
    if not kn_member(word, n):
        raise ValueError(f"word is not a member of K_{n}")
    runs: list[tuple[int, int]] = []
    state = emitted = 0
    for index, exponent in word.letters:
        if index == 1:
            wraps, state = divmod(state + exponent, n - 1)
            runs.append((2, wraps))  # normalize drops a zero run
        elif state == 0:
            runs.append((1, exponent))
        else:
            emitted += 2 * abs(exponent)
            if emitted > MAX_KN_REWRITE_RUNS:
                raise ValueError(
                    f"kn_rewrite emits at most {MAX_KN_REWRITE_RUNS} runs, reached {emitted}"
                )
            pair = ((state + 2, 1), (2, -1)) if exponent > 0 else ((2, 1), (state + 2, -1))
            runs.extend(pair * abs(exponent))
    return FreeWord._reduced(n, _words.normalize(runs))


def kn_substitute(word: FreeWord, n: int) -> FreeWord:
    """Substitute the K_n basis words for the letters of a rank-n word."""
    _check_n(n)
    if word.rank != n:
        raise ValueError(f"expected a rank-{n} word, got rank {word.rank}")
    return FreeWord._reduced(2, _words.substitute(word.letters, _kn_table(n)))


class SubgroupGraph:
    """A folded Stallings graph for a finitely generated subgroup of F_r.

    Vertices are 0 .. len(moves) - 1 with the base point at 0.  ``moves[v]``
    maps a signed letter to the end of the unique step out of v with that
    label: +i along an edge labelled g_i, -i against it.  So each edge u -i-> v
    is two moves, +i at u and -i at v, and a loop is both at one vertex.
    :func:`stallings_graph` fills each map in the move order 1, -1, 2, -2, ...
    and numbers the vertices breadth first from the base along the moves in
    that order, so equal subgroups yield identical graphs, and the walks of
    :func:`braidlab.probe.subgroup_elements` take the moves in the same
    order.  Instances are immutable after construction.
    """

    base = 0

    def __init__(self, rank: int, moves: tuple[dict[int, int], ...]):
        self.rank = rank
        self.moves = moves

    @property
    def num_vertices(self) -> int:
        return len(self.moves)

    def cycle_rank(self) -> int:
        """First Betti number: edges - vertices + 1 (graphs here are connected)."""
        return sum(map(len, self.moves)) // 2 - self.num_vertices + 1

    def __repr__(self) -> str:
        return (
            f"SubgroupGraph(rank={self.rank}, vertices={self.num_vertices}, "
            f"edges={sum(map(len, self.moves)) // 2})"
        )


def stallings_graph(generators: Sequence[FreeWord]) -> SubgroupGraph:
    """Build the folded core graph of the subgroup the generators produce.

    The graph lives in ``rows``, one move map per vertex as in
    :class:`SubgroupGraph`, from the first petal to the result.  Each
    generator is laid as a path from the base to a fresh vertex, which is
    queued for merging into the base; a move whose signed letter is already
    taken at its vertex queues the two targets for merging too.  Folding is
    one worklist of pending merges (Touikan, *A fast algorithm for
    Stallings' folding process*, 2006): a merge of two union-find roots
    keeps the lower one, so the base stays 0, and moves the higher root's
    row into the lower one, queuing the targets of every signed letter both
    rows hold.  Each merge moves one row once, so no edge is swept twice.
    The roots are then numbered breadth first from the base along the moves
    in the move order: each root's keys are popped and re-inserted in that
    order with their renumbered targets, so the roots' rows are the result's
    ``moves``.

    Nothing dangles: every non-base vertex lies inside the folded path of a
    freely reduced generator, which enters and leaves it by two different
    edge ends, or by one loop traversed in one direction (one edge end used
    both ways would read a letter then its inverse), so its degree is at
    least 2, a loop counting twice.
    """
    if not generators:
        raise ValueError("at least one generator word is required (it may be trivial)")
    rank = generators[0].rank
    for gen in generators:
        if gen.rank != rank:
            raise ValueError("generators must share a rank")

    rows: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int]] = []
    for gen in generators:
        u = 0
        for letter, sign in gen.single_letters():
            v = len(rows)
            rows.append({-letter * sign: u})
            other = rows[u].setdefault(letter * sign, v)
            if other != v:
                pending.append((other, v))
            u = v
        pending.append((0, u))

    # A merge keeps the lower root and path halving moves a vertex to its
    # grandparent, so parent[w] <= w, and after the fold one increasing sweep
    # points every vertex at its root.
    parent = list(range(len(rows)))
    while pending:
        a, b = pending.pop()
        while parent[a] != a or parent[b] != b:
            parent[a], parent[b] = parent[parent[a]], parent[parent[b]]
            a, b = parent[a], parent[b]
        low, high = min(a, b), max(a, b)
        if low != high:
            parent[high] = low
            for key, v in rows[high].items():
                other = rows[low].setdefault(key, v)
                if other != v:
                    pending.append((other, v))
    for w, p in enumerate(parent):
        parent[w] = parent[p]

    order = {0: 0}
    visits = [0]
    for current in visits:
        row = rows[current]
        for key in sorted(row, key=lambda k: (abs(k), k < 0)):
            v = parent[row.pop(key)]
            if v not in order:
                order[v] = len(visits)
                visits.append(v)
            row[key] = order[v]
    moves = tuple(rows[v] for v in visits)
    # A collision that was never queued leaves a move whose reverse leads
    # elsewhere.
    if any(moves[v].get(-key) != u for u, row in enumerate(moves) for key, v in row.items()):
        raise AssertionError("folding left a move without its reverse")
    return SubgroupGraph(rank, moves)


def subgroup_contains(graph: SubgroupGraph, word: FreeWord) -> bool:
    """Whether the word traces a closed path at the base vertex, read run by
    run along ``graph.moves``.

    Each run is walked letter by letter.  In a folded graph a signed letter
    moves by a partial injection (the fold's self-check asserts it), so the
    walk falls off or comes back to its start within the vertex count; back
    after ``walked`` letters, it walks only the rest modulo ``walked``, and a
    run costs at most about twice the vertex count.  A move map that is not
    injective is still read correctly, with no shortcut.
    """
    if word.rank != graph.rank:
        raise ValueError(f"rank mismatch: word {word.rank}, graph {graph.rank}")
    moves = graph.moves
    vertex = graph.base
    for letter, exponent in word.letters:
        key = letter if exponent > 0 else -letter
        count = abs(exponent)
        start = vertex
        for walked in range(1, count + 1):
            vertex = moves[vertex].get(key)
            if vertex is None:
                return False
            if vertex == start:
                for _ in range((count - walked) % walked):
                    vertex = moves[vertex][key]
                break
    return vertex == graph.base
