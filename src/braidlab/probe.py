"""Search and verification experiments over the restricted Dehornoy orders.

Contents:

* deterministic enumeration of free-group balls and of subgroup elements
  (closed paths in a Stallings graph),
* a convexity probe that hunts for triples c_low < g < c_high with the
  bounds inside a candidate subgroup and g outside it (such a witness
  refutes convexity of the subgroup; exhausting the search radius proves
  nothing and is reported as inconclusive),
* a search for pairs violating the Conradian condition g < h g^2,
* a seeded verification suite exercising the order-theoretic facts the
  library is built on (shape positivity, conjugate sandwiches, braid
  identities, cofinality, subword property, trichotomy, left invariance).

Everything here is a pure function of its parameters and seed: randomness
comes from per-trial substreams derived from (seed, check, trial), so trial
order or concurrency cannot change a report.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from typing import Callable, Iterator, Sequence

from . import _words, dehornoy
from .braid import BraidWord, half_twist
from .dehornoy import _COMPARISON, EQUAL, GREATER, LESS, OrderVerdict, POSITIVE
from .burau import braid_equal
from .exotic import ExoticContext, _embed_runs, exotic_compare
from .freegroup import (
    FreeWord,
    SubgroupGraph,
    _kn_table,
    parse_free,
    stallings_graph,
    subgroup_contains,
)

__all__ = [
    "ball",
    "subgroup_elements",
    "ConvexityWitness",
    "convexity_probe",
    "conradian_violation_search",
    "CheckResult",
    "ExperimentReport",
    "lemma_suite",
    "random_braid_word",
    "random_free_word",
]

# c = x y^-1 x^-1 y, whose image Δ^2 σ2^-6 generates the centralizer of σ2
# in [B3, B3]: see _centralizes_sigma2.
_CENTRALIZER_RUNS = parse_free("x y^-1 x^-1 y").letters
_CENTRALIZER_INVERSE_RUNS = _words.invert(_CENTRALIZER_RUNS)
# The type of dehornoy._sign, and of lemma_suite's _sign_fn hook: reduced
# runs and a strand count to the kind and main index of the braid.
_SignCore = Callable[[Sequence[_words.Run], int], tuple[str, int | None]]
_DELTA_SQUARED = half_twist(2).letters
_OPPOSITE = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
MAX_GENERATOR_LETTERS = 100_000  # a graph vertex per letter; 10^5 letters fold in about 0.4 s
# The cases of verify's braid-relation-identities check:
# σ1^k σ2 σ1 = σ2 σ1 σ2^k and σ1^-1 σ2^k σ1 = σ2 σ1^k σ2^-1 for k in [-5, 5].
_IDENTITIES = tuple(
    (k, text, BraidWord(3, lhs), BraidWord(3, rhs))
    for k in range(-5, 6)
    for text, lhs, rhs in (
        ("s1^k s2 s1 = s2 s1 s2^k", ((1, k), (2, 1), (1, 1)), ((2, 1), (1, 1), (2, k))),
        (
            "s1^-1 s2^k s1 = s2 s1^k s2^-1",
            ((1, -1), (2, k), (1, 1)),
            ((2, 1), (1, k), (2, -1)),
        ),
    )
)


def ball(rank: int, radius: int) -> Iterator[FreeWord]:
    """All freely reduced words of length <= radius, in length-lex order.

    The letter order is g1 < g1^-1 < g2 < g2^-1 < ...; the first word is the
    identity.  There are 2r (2r-1)^(L-1) words of each length L >= 1, which
    totals 2 * 3^radius - 1 words at rank two.  They are the closed walks of
    the rose (one vertex, one loop per letter), from :func:`subgroup_elements`.
    """
    rose = _rose(rank)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    yield from subgroup_elements(rose, radius)


@functools.lru_cache(maxsize=64)
def _rose(rank: int) -> SubgroupGraph:
    """The one-vertex graph of F_rank, a loop per letter, built once per rank;
    its moves are in the order :func:`stallings_graph` gives a free basis."""
    top = FreeWord._top_index(rank)
    return SubgroupGraph(rank, ({key: 0 for i in range(1, top + 1) for key in (i, -i)},))


def subgroup_elements(graph: SubgroupGraph, max_length: int) -> Iterator[FreeWord]:
    """Subgroup elements of reduced length <= max_length, in length-lex order.

    Enumerates non-backtracking closed paths at the base vertex of the
    folded graph, taking the moves out of each vertex in the order of its
    ``graph.moves`` map; these spell exactly the reduced words of the
    subgroup.  Starts with the identity.  A negative ``max_length`` raises
    ValueError.
    """
    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    yield FreeWord._reduced(graph.rank, ())
    moves = graph.moves
    # Walks of each exact length, depth first.  The stack holds one (prefix,
    # backtracking move, move iterator) triple per letter, so long walks need
    # no recursion; the empty prefix has no backtracking move (no key is 0).
    for length in range(1, max_length + 1):
        stack = [((), 0, iter(moves[graph.base].items()))]
        while stack:
            prefix, back, options = stack[-1]
            for key, target in options:
                if key == back:
                    continue
                word = _words.append_letter(prefix, abs(key), 1 if key > 0 else -1)
                if len(stack) < length:
                    stack.append((word, -key, iter(moves[target].items())))
                    break
                if target == graph.base:
                    yield FreeWord._reduced(graph.rank, word)
            else:
                stack.pop()


class _CachedSeq:
    """Lazily materialized sequence allowing repeated partial scans."""

    def __init__(self, iterator: Iterator):
        self._iterator = iterator
        self._cache: list = []

    def __iter__(self):
        i = 0
        while True:
            if i == len(self._cache):
                try:
                    self._cache.append(next(self._iterator))
                except StopIteration:
                    return
            yield self._cache[i]
            i += 1


@dataclasses.dataclass(frozen=True)
class ConvexityWitness:
    """A violation of convexity: c_low < g < c_high with g outside the
    subgroup and both bounds inside it."""

    c_low: FreeWord
    c_high: FreeWord
    g: FreeWord


def convexity_probe(
    generators: Sequence[FreeWord],
    ctx: ExoticContext,
    radius: int,
    max_element_length: int | None = None,
) -> ConvexityWitness | None:
    """Search the ball for a convexity violation of the generated subgroup.

    Candidates g run over the ball of the given radius (non-members only, in
    enumeration order); bounds run over subgroup elements of reduced length
    up to ``max_element_length`` (default 2 * radius).  Returns the first
    witness found, or None when the radius is exhausted; None is
    inconclusive and never proves convexity.  Generators of more than
    ``MAX_GENERATOR_LETTERS`` letters in total, a negative radius or a
    negative ``max_element_length`` raise ValueError.

    The search depends on the rank E - V + 1 of the folded graph, which has
    V vertices and E edges (Kapovich-Myasnikov, *Stallings foldings and
    subgroups of free groups*, 2002):

    - The whole group F_r, and any subgroup with no member other than 1
      within the length bound (rank 0 among them), return None at once,
      with no search: F_r leaves no g outside it, and the one member 1
      cannot be both c_low and c_high.  A core graph is the one vertex
      with a loop on every letter exactly when the subgroup is F_r.
    - Rank >= 2 scans the members for each candidate, in enumeration order,
      and returns (first member below g, first member above g, g).
    - Rank 1, H = <p> with p > 1, walks the sorted powers of p instead.
      Write p = u v u^-1, reduced, with v cyclically reduced; then
      |p^j| = 2|u| + |j| |v| strictly increases with |j|.  So the first
      non-identity member enumerated is p or p^-1, one comparison with 1
      orients it, and p, ..., p^K are the members of positive exponent
      within the length bound, K = (bound - |p|) // |v| + 1 with
      |v| = |p^2| - |p|.  In a left order p > 1 gives p^j < p^j p,
      so 1 < p < p^2 < ... < p^K and p^-K < ... < p^-1 < 1.  A candidate
      g > 1 has c_low = 1, only positive powers can lie above it, and they
      do from the first one above g on, p^j0.  The scan meets 1 first and
      the positive powers in order of j, so it returns the witness
      (1, p^j0, g).  The probe finds p^j0 cheapest first: it compares g
      with p, then with p^K, and scans p^2, ..., p^(K-1) only when p^K
      lies above g and p does not.  So a candidate that p bounds costs two
      comparisons and one that no member bounds three (two when K = 1).
      p^K is built when a candidate first needs it, and p^2, ..., p^(K-1)
      only for a scan.  A candidate g < 1 mirrors this with p^-1, p^-K and
      the powers between; of p and p^-1, the one not enumerated first is
      also built only when a candidate needs it.
    """
    if not generators:
        raise ValueError("at least one generator word is required")
    for gen in generators:
        if gen.rank != ctx.rank:
            raise ValueError(
                f"generator rank {gen.rank} does not match context rank {ctx.rank}"
            )
    if sum(gen.length for gen in generators) > MAX_GENERATOR_LETTERS:
        raise ValueError(f"generators have more than {MAX_GENERATOR_LETTERS} letters in total")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    bound = 2 * radius if max_element_length is None else max_element_length
    if bound < 0:
        raise ValueError(f"max_element_length must be nonnegative, got {bound}")
    graph = stallings_graph(list(generators))
    if graph.num_vertices == 1 and len(graph.moves[0]) == 2 * ctx.rank:
        return None
    elements = subgroup_elements(graph, bound)
    one = next(elements)
    shortest = next(elements, None)
    if shortest is None:
        return None
    if graph.cycle_rank() == 1:
        return _probe_cyclic(graph, ctx, radius, bound, shortest)
    members = _CachedSeq(itertools.chain((one, shortest), elements))
    for g in ball(ctx.rank, radius):
        if g.is_identity() or subgroup_contains(graph, g):
            continue
        c_low = c_high = None
        for member in members:
            # One verdict per member: the order is total, so g < member
            # exactly when member > g.
            verdict = exotic_compare(member, g, ctx)
            if verdict == LESS and c_low is None:
                c_low = member
            elif verdict == GREATER and c_high is None:
                c_high = member
            if c_low is not None and c_high is not None:
                return ConvexityWitness(c_low, c_high, g)
    return None


def _probe_cyclic(
    graph: SubgroupGraph, ctx: ExoticContext, radius: int, bound: int, shortest: FreeWord
) -> ConvexityWitness | None:
    """The rank-1 search of :func:`convexity_probe`, whose docstring shows
    that it returns the witness of the member scan; ``shortest`` is the
    first non-identity member enumerated."""
    one = FreeWord._reduced(ctx.rank, ())
    top = (bound - shortest.length) // ((shortest * shortest).length - shortest.length) + 1
    # steps and lasts map the verdict of (g, member) for a member beyond g to
    # p^±1 and p^±K, the ends for the candidates on that side of 1; each is
    # built when a candidate first needs it.  shortest is p or p^-1, whose
    # powers have the same lengths.
    steps = {exotic_compare(one, shortest, ctx): shortest}
    lasts = {}
    for g in ball(ctx.rank, radius):
        if g.is_identity() or subgroup_contains(graph, g):
            continue
        beyond = LESS if exotic_compare(one, g, ctx) == LESS else GREATER
        step = steps.get(beyond)
        if step is None:
            step = steps[beyond] = shortest.inverse()
        first = step
        if exotic_compare(g, step, ctx) != beyond:
            if top == 1:
                continue
            last = lasts.get(beyond)
            if last is None:
                last = lasts[beyond] = step**top
            if exotic_compare(g, last, ctx) != beyond:
                continue
            for _ in range(2, top):
                first = first * step
                if exotic_compare(g, first, ctx) == beyond:
                    break
            else:
                first = last
        if beyond == LESS:
            return ConvexityWitness(one, first, g)
        return ConvexityWitness(first, one, g)
    return None


def conradian_violation_search(
    ctx: ExoticContext, radius: int
) -> tuple[FreeWord, FreeWord] | None:
    """First pair (g, h) with 1 < g, 1 < h and h g^2 < g, if one exists in
    the ball.

    Such a pair witnesses that the order is not Conradian.  Pairs are scanned
    with g outer and h inner, both in ball order.  Positivity is decided
    lazily, in ball order, for the words the scan reaches: a pair found early
    signs a short prefix of the ball, not all of it.
    """
    one = FreeWord(ctx.rank)
    positives = _CachedSeq(
        w
        for w in ball(ctx.rank, radius)
        if not w.is_identity() and exotic_compare(one, w, ctx) == LESS
    )
    for g in positives:
        gg = g * g
        for h in positives:
            if exotic_compare(h * gg, g, ctx) == LESS:
                return g, h
    return None


def random_braid_word(rng: random.Random, max_length: int, strands: int = 3) -> BraidWord:
    """Uniform letters, length uniform in 0..max_length (before reduction).

    The same words as drawing each letter with ``rng.randint(1, strands - 1)``
    and ``rng.choice((1, -1))``: see :func:`_random_runs`.
    """
    return BraidWord._reduced(strands, _random_runs(rng, max_length, strands - 1))


def random_free_word(rng: random.Random, max_length: int, rank: int = 2) -> FreeWord:
    """Uniform letters of the given rank, length uniform in 0..max_length.

    The same words as drawing each letter with ``rng.randint(1, rank)`` and
    ``rng.choice((1, -1))``: see :func:`_random_runs`.
    """
    return FreeWord._reduced(rank, _random_runs(rng, max_length, rank))


def _random_runs(rng: random.Random, max_length: int, top: int) -> _words.Runs:
    """Reduced runs of a word of uniform letters with indices in 1..top.

    Each index and each sign is drawn as ``Random._randbelow`` draws behind
    ``randint`` and ``choice``: ``getrandbits`` of the bit length of the
    range, drawn again while the value is out of range.  So the stream of
    random bits, and every word, is that of the ``randint``/``choice`` draw.
    The same bits are merged as they are drawn: each letter joins the last
    run, or cancels one letter of it, or starts a run, exactly as
    :func:`_words.normalize` reduces the letter list, so no list of letters
    is built.
    """
    if top < 1:
        raise ValueError(f"no letter index to draw from: the range is 1..{top}")
    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    getrandbits = rng.getrandbits
    bits = top.bit_length()
    shared = _words._SHARED_RUNS
    runs: list[_words.Run] = []
    for _ in range(rng.randint(0, max_length)):
        index = getrandbits(bits)
        while index >= top:
            index = getrandbits(bits)
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        index += 1
        exponent = -1 if sign else 1
        if runs and runs[-1][0] == index:
            exponent += runs.pop()[1]
            if not exponent:
                continue
        run = (index, exponent)
        runs.append(shared.get(run, run))
    return tuple(runs)


@dataclasses.dataclass
class CheckResult:
    """Outcome of one named check: sample count, failures, and ``steps``, a
    deterministic effort counter.  Each run sequence the check signs through
    the counting ``sign`` of :func:`lemma_suite` adds 1 + its letter count;
    ``sign`` reads the runs with the sign core of
    :func:`~braidlab.dehornoy.dehornoy_sign`, or with the ``_sign_fn`` test
    hook, which has the same type.  The rejection draws of the sandwich
    samplers sign through the uncounted sign function and add nothing;
    counting them changes every report (ROADMAP items 3 and 10)."""

    name: str
    samples: int
    failures: list[dict]
    steps: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "passed": self.passed,
            "failures": self.failures,
            "steps": self.steps,
        }


@dataclasses.dataclass
class ExperimentReport:
    """Deterministic record of a verification run: identical seed and trial
    count reproduce an identical report."""

    seed: int
    trials: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [check.to_json_dict() for check in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"verification report (seed={self.seed}, trials={self.trials})"]
        for check in self.checks:
            status = "pass" if check.passed else f"FAIL ({len(check.failures)} failures)"
            lines.append(
                f"  {check.name}: {status} [samples={check.samples}, steps={check.steps}]"
            )
            for failure in check.failures[:3]:
                lines.append(f"    witness: {failure}")
        lines.append("result: " + ("pass" if self.passed else "fail"))
        return "\n".join(lines)


def _sample_positive_commutator_base(
    rng: random.Random,
    max_length: int,
    sign_of: _SignCore,
    n: int | None = None,
) -> tuple[_words.Runs, _words.Runs] | None:
    """Rejection-sample a 1-positive element of [B3, B3] (or K_n) that does
    not commute with σ2, as the runs of its rank-2 word and of its image
    under :func:`~braidlab.exotic.embed`; None after 1,000 draws (with the
    Dehornoy sign, 100,000 sampled bases took at most 22 draws each).

    A draw stays runs from start to finish: a K_n draw is substituted down
    to F_2 with the cached basis table, the image comes from the run loop of
    embed, and ``sign_of`` is the sign core or ``lemma_suite``'s
    ``_sign_fn`` hook, which has its type.  The words are those of
    :func:`random_free_word`, :func:`~braidlab.freegroup.kn_substitute` and
    embed on the same substream.
    """
    for _ in range(1_000):
        if n is None:
            word = _random_runs(rng, max_length, 2)
        else:
            word = _words.substitute(_random_runs(rng, max_length, n), _kn_table(n))
        braid = _embed_runs(word)
        if sign_of(braid, 3) != (POSITIVE, 1) or _centralizes_sigma2(word):
            continue
        return word, tuple(braid)
    return None


def _centralizes_sigma2(runs: _words.Runs) -> bool:
    """Whether embed of the reduced rank-2 ``runs`` commutes with σ2; exact.

    The centralizer of σ1 in B3 is <σ1, Δ^2> (Fenn-Rolfsen-Zhu,
    *Centralisers in the braid group and singular braid monoid*, 1996), and
    Δ σ1 Δ^-1 = σ2, so the centralizer of σ2 is <σ2, Δ^2>.  Δ^2 is central,
    so its elements are σ2^a Δ^(2b), with exponent sum a + 6b.  Those in
    [B3, B3] have a = -6b: they are the powers of σ2^-6 Δ^2 = embed(c) for
    c = x y^-1 x^-1 y.  embed is injective, so embed(word) commutes with σ2
    exactly when word = c^b for some integer b.  c is cyclically reduced (it
    starts with x and ends with y), so the reduced word c^b is c written b
    times, or c^-1 written -b times, with no merge at the seams: its runs
    are those of c, or of c^-1, repeated.
    """
    count = len(runs) // 4
    return runs in (_CENTRALIZER_RUNS * count, _CENTRALIZER_INVERSE_RUNS * count)


def _braid_text(runs: _words.Runs) -> str:
    return BraidWord._reduced(3, runs).to_text()


def lemma_suite(
    seed: int,
    trials: int,
    _sign_fn: _SignCore | None = None,
) -> ExperimentReport:
    """Run the seeded verification suite and report every failure.

    The suite is one table of (report name, cases, test) rows run by one
    loop: a test takes one case and returns a failure dict or None, and a
    row's ``steps`` adds 1 + length for each word its tests signed, not
    counting the sandwich samplers' rejection draws (see
    :class:`CheckResult`).  A sampled check runs its test on ``trials``
    cases, each with its own substream ``(seed, key, trial)``.

    Every check works on run tuples from the draw to the verdict, as
    :func:`~braidlab.exotic.exotic_compare` does: words are drawn by
    :func:`_random_runs`, products and inverses are seam-only
    :mod:`braidlab._words` operations, u is compared with v by the sign of
    the one concatenation u^-1 v, and signs come from the sign core of
    :func:`~braidlab.dehornoy.dehornoy_sign`.  A word object is built only
    for a failure's text and for the Burau oracle of ``trichotomy``.

    ``_sign_fn`` is a test-only hook replacing the sign core, so
    deliberately broken comparators can be shown to be caught; leave it None
    for real runs.  It has the type of the sign core: reduced runs and a
    strand count to the kind and main index.  Failures are recorded in the
    report, never raised.  At seed 1 and 25 trials these mutants fail the
    eight checks, in report order, this many times:

    - the negated sign: 25 25 25 0 4 25 0 0;
    - the sign of the first run of the main index: 20 0 0 0 0 11 9 0;
    - the sign of the last run of the main index: 0 18 15 0 0 11 9 0;
    - the sign of the exponent sum, main index 1: 2 25 25 0 4 0 3 0;
    - σ1 and σ2 relabelled, then the Dehornoy sign: 0 18 20 0 0 0 0 0.

    ``braid-relation-identities`` tests Burau, not signs, and
    ``left-invariance`` signs the same word on both sides, so no sign mutant
    fails them.  The exponent-sum mutant signs every commutator trivial, so
    both sandwich samplers give up.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sign_of = dehornoy._sign if _sign_fn is None else _sign_fn
    steps = 0

    def sign(runs: Sequence[_words.Run]) -> tuple[str, int | None]:
        nonlocal steps
        steps += 1 + _words.length(runs)
        return sign_of(runs, 3)

    def compare(u: _words.Runs, v: _words.Runs) -> str:
        # u^-1 v as one seam-only concatenation, as in exotic_compare.
        return _COMPARISON[sign(_words.concat(_words.invert(u), v))[0]]

    def sampled(key: str, test: Callable[[int, random.Random], dict | None]):
        # The substream of each trial is made when its case runs, so a
        # report holds one generator at a time, not one per trial.
        return lambda trial: test(trial, random.Random(f"{seed}/{key}/{trial}"))

    def commutator(beta: _words.Runs, k: int) -> _words.Runs:
        """β σ2^k β^-1 σ2^-k."""
        inner = _words.concat(_words.concat(beta, ((2, k),)), _words.invert(beta))
        return _words.concat(inner, ((2, -k),))

    def shape(trial: int, rng: random.Random) -> dict | None:
        """σ2^{k_1} σ1^{l_1} ... σ2^{k_m} σ1^{l_m} σ2^{n} σ1 with k_i > 0,
        l_i < 0 and n > 1 is 1-positive."""
        runs: list[tuple[int, int]] = []
        for _ in range(rng.randint(0, 6)):
            runs.append((2, rng.randint(1, 5)))
            runs.append((1, -rng.randint(1, 5)))
        runs.append((2, rng.randint(2, 5)))
        runs.append((1, 1))
        # Indices alternate and no exponent is 0: the runs are reduced.
        verdict = sign(runs)
        if verdict != (POSITIVE, 1):
            text = _braid_text(tuple(runs))
            return {"trial": trial, "word": text, "verdict": str(OrderVerdict(*verdict))}
        return None

    def sandwich_f2(trial: int, rng: random.Random) -> dict | None:
        """For 1-positive β in [B3, B3] not commuting with σ2 and k > 0:
        1 < β σ2^k β^-1 σ2^-k < β."""
        sampled_base = _sample_positive_commutator_base(rng, 12, sign_of)
        if sampled_base is None:
            return {"trial": trial, "error": "rejection sampling exhausted"}
        word, beta = sampled_base
        k = rng.randint(1, 4)
        inner = commutator(beta, k)
        if compare((), inner) != LESS or compare(inner, beta) != LESS:
            return {"trial": trial, "beta": FreeWord._reduced(2, word).to_text(), "k": k}
        return None

    def sandwich_kn(trial: int, rng: random.Random) -> dict | None:
        """The K_n version: σ2^6 = embed(x y^-1 x^-1 y)^-1 Δ^2 and Δ^2 is central, so the
        commutator stays in K_n (x-exponent sum 0); the sandwich inequalities persist."""
        n = (3, 4, 5)[trial % 3]
        sampled_base = _sample_positive_commutator_base(rng, 6, sign_of, n=n)
        if sampled_base is None:
            return {"trial": trial, "n": n, "error": "rejection sampling exhausted"}
        word, beta = sampled_base
        k = rng.randint(1, 2)
        inner = commutator(beta, 6 * k)
        if compare((), inner) == LESS and compare(inner, beta) == LESS:
            return None
        text = FreeWord._reduced(2, word).to_text()
        return {"trial": trial, "n": n, "beta": text, "k": k, "error": "sandwich inequality failed"}

    def identity(case: tuple[int, str, BraidWord, BraidWord]) -> dict | None:
        k, text, lhs, rhs = case
        return None if braid_equal(lhs, rhs) else {"identity": text, "k": k}

    def cofinality(p: int) -> dict | None:
        """Δ^2 < Δ^{4p} σ2^{-12p} = (Δ^{2p} σ2^{-6p})^2."""
        square = _words.concat(_words.power(_DELTA_SQUARED, 2 * p), ((2, -12 * p),))
        return None if compare(_DELTA_SQUARED, square) == LESS else {"p": p}

    def subword(trial: int, rng: random.Random) -> dict | None:
        """β σ_k β^-1 is positive."""
        beta = _random_runs(rng, 40, 2)
        k = rng.choice((1, 2))
        conjugate = _words.concat(_words.concat(beta, ((k, 1),)), _words.invert(beta))
        if sign(conjugate)[0] != POSITIVE:
            return {"trial": trial, "beta": _braid_text(beta), "k": k}
        return None

    def trichotomy(trial: int, rng: random.Random) -> dict | None:
        u = _random_runs(rng, 40, 2)
        v = _random_runs(rng, 40, 2)
        forward, backward = compare(u, v), compare(v, u)
        if backward != _OPPOSITE[forward]:
            error = "asymmetric comparison"
        elif (forward == EQUAL) != braid_equal(BraidWord._reduced(3, u), BraidWord._reduced(3, v)):
            error = "equality disagrees with Burau"
        else:
            return None
        return {"trial": trial, "u": _braid_text(u), "v": _braid_text(v), "error": error}

    def left_invariance(trial: int, rng: random.Random) -> dict | None:
        """(f u)^-1 (f v) freely reduces to u^-1 v, so both sides sign the
        same word: an order defined by a positive cone is left-invariant by
        definition, and this check only tests that comparison is
        deterministic."""
        f = _random_runs(rng, 40, 2)
        u = _random_runs(rng, 40, 2)
        v = _random_runs(rng, 40, 2)
        if compare(u, v) != compare(_words.concat(f, u), _words.concat(f, v)):
            texts = {"f": _braid_text(f), "u": _braid_text(u), "v": _braid_text(v)}
            return {"trial": trial, **texts}
        return None

    trial_cases = range(trials)
    table: list[tuple[str, Sequence, Callable[..., dict | None]]] = [
        ("alternating-shape-positivity", trial_cases, sampled("shape", shape)),
        ("conjugate-sandwich-f2", trial_cases, sampled("sandwich-f2", sandwich_f2)),
        ("conjugate-sandwich-kn", trial_cases, sampled("sandwich-kn", sandwich_kn)),
        ("braid-relation-identities", _IDENTITIES, identity),
        ("half-twist-cofinality", range(1, 5), cofinality),
        ("subword-property", trial_cases, sampled("subword", subword)),
        ("trichotomy", trial_cases, sampled("trichotomy", trichotomy)),
        ("left-invariance", trial_cases, sampled("left-invariance", left_invariance)),
    ]
    checks = []
    for name, cases, test in table:
        steps = 0
        failures = [failure for failure in map(test, cases) if failure is not None]
        checks.append(CheckResult(name, len(cases), failures, steps))
    return ExperimentReport(seed, trials, checks)
