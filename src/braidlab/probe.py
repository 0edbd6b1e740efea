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
import random
from typing import Callable, Iterator, Sequence

from . import _words
from .braid import BraidWord, half_twist
from .dehornoy import (
    EQUAL,
    GREATER,
    LESS,
    OrderVerdict,
    POSITIVE,
    commutes,
    dehornoy_sign,
)
from .burau import braid_equal
from .exotic import ExoticContext, commutator_rewrite, embed
from .freegroup import (
    FreeWord,
    SubgroupGraph,
    _check_rank,
    kn_member,
    kn_substitute,
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

_SIGMA2 = BraidWord(3, ((2, 1),))


def ball(rank: int, radius: int) -> Iterator[FreeWord]:
    """All freely reduced words of length <= radius, in length-lex order.

    The letter order is g1 < g1^-1 < g2 < g2^-1 < ...; the first word is the
    identity.  There are 2r (2r-1)^(L-1) words of each length L >= 1, which
    totals 2 * 3^radius - 1 words at rank two.  They are the closed walks of
    the rose (one vertex, one loop per letter), from :func:`subgroup_elements`.
    """
    _check_rank(rank)
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    loops = {i: 0 for i in range(1, rank + 1)}
    yield from subgroup_elements(SubgroupGraph(rank, 1, [loops], [loops]), radius)


def subgroup_elements(graph: SubgroupGraph, max_length: int) -> Iterator[FreeWord]:
    """Subgroup elements of reduced length <= max_length, in length-lex order.

    Enumerates non-backtracking closed paths at the base vertex of the
    folded graph; these spell exactly the reduced words of the subgroup.
    Starts with the identity.
    """
    yield FreeWord(graph.rank)
    moves = []
    for u in range(graph.num_vertices):
        options = [(letter, 1, v) for letter, v in graph.fwd[u].items()]
        options += [(letter, -1, v) for letter, v in graph.bwd[u].items()]
        moves.append(sorted(options, key=lambda move: (move[0], -move[1])))
    # Walks of each exact length, depth first.  The stack holds one (prefix,
    # move iterator) pair per letter, so long walks need no recursion.
    for length in range(1, max_length + 1):
        stack = [((), iter(moves[graph.base]))]
        while stack:
            prefix, options = stack[-1]
            for letter, sign, target in options:
                if prefix and prefix[-1][0] == letter and prefix[-1][1] * sign < 0:
                    continue
                word = _words.append_letter(prefix, letter, sign)
                if len(stack) < length:
                    stack.append((word, iter(moves[target])))
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
    context: ExoticContext


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
    inconclusive and never proves convexity.
    """
    from .exotic import exotic_compare

    if not generators:
        raise ValueError("at least one generator word is required")
    for gen in generators:
        if gen.rank != ctx.rank:
            raise ValueError(
                f"generator rank {gen.rank} does not match context rank {ctx.rank}"
            )
    bound = 2 * radius if max_element_length is None else max_element_length
    graph = stallings_graph(list(generators))
    members = _CachedSeq(subgroup_elements(graph, bound))
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
                return ConvexityWitness(c_low, c_high, g, ctx)
    return None


def conradian_violation_search(
    ctx: ExoticContext, radius: int
) -> tuple[FreeWord, FreeWord] | None:
    """First pair (g, h) with 1 < g, 1 < h and h g^2 < g, if one exists in
    the ball.

    Such a pair witnesses that the order is not Conradian.  Pairs are scanned
    with g outer and h inner, both in ball order.
    """
    from .exotic import exotic_compare

    one = FreeWord(ctx.rank)
    positives = [
        w
        for w in ball(ctx.rank, radius)
        if not w.is_identity() and exotic_compare(one, w, ctx) == LESS
    ]
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
    """
    if top < 1:
        raise ValueError(f"no letter index to draw from: the range is 1..{top}")
    getrandbits = rng.getrandbits
    bits = top.bit_length()
    letters = []
    for _ in range(rng.randint(0, max_length)):
        index = getrandbits(bits)
        while index >= top:
            index = getrandbits(bits)
        sign = getrandbits(2)
        while sign >= 2:
            sign = getrandbits(2)
        letters.append((index + 1, -1 if sign else 1))
    return _words.normalize(letters)


@dataclasses.dataclass
class CheckResult:
    """Outcome of one named check: sample count, failures, and the total
    letter count of the words whose signs were computed (a deterministic
    effort counter)."""

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

    def failure_count(self) -> int:
        return sum(len(check.failures) for check in self.checks)

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


def _trial_rng(seed: int, check: str, trial: int) -> random.Random:
    return random.Random(f"{seed}/{check}/{trial}")


def _sample_positive_commutator_base(
    rng: random.Random,
    max_length: int,
    sign_of: Callable[[BraidWord], OrderVerdict],
    n: int | None = None,
) -> tuple[FreeWord, BraidWord] | None:
    """Rejection-sample a 1-positive element of [B3, B3] (or K_n) that does
    not commute with σ2; gives up after 10^4 attempts."""
    for _ in range(10_000):
        if n is None:
            word = random_free_word(rng, max_length)
        else:
            word = kn_substitute(random_free_word(rng, max_length, rank=n), n)
        braid = embed(word)
        if braid.is_identity():
            continue
        verdict = sign_of(braid)
        if verdict.kind != POSITIVE or verdict.main_index != 1:
            continue
        if commutes(braid, _SIGMA2):
            continue
        return word, braid
    return None


def lemma_suite(
    seed: int,
    trials: int,
    _sign_fn: Callable[[BraidWord], OrderVerdict] | None = None,
) -> ExperimentReport:
    """Run the seeded verification suite and report every failure.

    ``_sign_fn`` is a test-only hook replacing the Dehornoy sign computation,
    so deliberately broken comparators can be shown to be caught; leave it
    None for real runs.  Failures are recorded in the report, never raised.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    sign_of = _sign_fn if _sign_fn is not None else dehornoy_sign
    steps = 0

    def sign(word: BraidWord) -> OrderVerdict:
        nonlocal steps
        steps += 1 + word.length
        return sign_of(word)

    def compare(u: BraidWord, v: BraidWord) -> str:
        return sign(u.inverse() * v).comparison()

    one = BraidWord(3)
    checks: list[CheckResult] = []

    def finish(name: str, samples: int, failures: list[dict]) -> None:
        nonlocal steps
        checks.append(CheckResult(name, samples, failures, steps))
        steps = 0

    # (a) words σ2^{k_1} σ1^{l_1} ... σ2^{k_m} σ1^{l_m} σ2^{n} σ1 with
    # k_i > 0, l_i < 0, n > 1 are 1-positive.
    failures: list[dict] = []
    for trial in range(trials):
        rng = _trial_rng(seed, "shape", trial)
        m = rng.randint(0, 6)
        runs: list[tuple[int, int]] = []
        for _ in range(m):
            runs.append((2, rng.randint(1, 5)))
            runs.append((1, -rng.randint(1, 5)))
        runs.append((2, rng.randint(2, 5)))
        runs.append((1, 1))
        word = BraidWord(3, tuple(runs))
        verdict = sign(word)
        if verdict.kind != POSITIVE or verdict.main_index != 1:
            failures.append({"trial": trial, "word": word.to_text(), "verdict": str(verdict)})
    finish("alternating-shape-positivity", trials, failures)

    # (b) for 1-positive β in [B3, B3] not commuting with σ2 and k > 0:
    # 1 < β σ2^k β^-1 σ2^-k < β.
    failures = []
    for trial in range(trials):
        rng = _trial_rng(seed, "sandwich-f2", trial)
        sampled = _sample_positive_commutator_base(rng, 12, sign_of)
        if sampled is None:
            failures.append({"trial": trial, "error": "rejection sampling exhausted"})
            continue
        word, beta = sampled
        k = rng.randint(1, 4)
        conjugator = _SIGMA2**k
        inner = beta * conjugator * beta.inverse() * conjugator.inverse()
        if compare(one, inner) != LESS or compare(inner, beta) != LESS:
            failures.append({"trial": trial, "beta": word.to_text(), "k": k})
    finish("conjugate-sandwich-f2", trials, failures)

    # (c) the K_n version: exponents 6k keep the commutator inside K_n and
    # the sandwich inequalities persist.
    failures = []
    for trial in range(trials):
        rng = _trial_rng(seed, "sandwich-kn", trial)
        n = (3, 4, 5)[trial % 3]
        sampled = _sample_positive_commutator_base(rng, 6, sign_of, n=n)
        if sampled is None:
            failures.append({"trial": trial, "n": n, "error": "rejection sampling exhausted"})
            continue
        word, beta = sampled
        k = rng.randint(1, 2)
        conjugator = _SIGMA2 ** (6 * k)
        inner = beta * conjugator * beta.inverse() * conjugator.inverse()
        entry = {"trial": trial, "n": n, "beta": word.to_text(), "k": k}
        if not kn_member(commutator_rewrite(inner), n):
            failures.append({**entry, "error": "commutator left K_n"})
        elif compare(one, inner) != LESS or compare(inner, beta) != LESS:
            failures.append({**entry, "error": "sandwich inequality failed"})
    finish("conjugate-sandwich-kn", trials, failures)

    # (d) braid identities σ1^k σ2 σ1 = σ2 σ1 σ2^k and
    # σ1^-1 σ2^k σ1 = σ2 σ1^k σ2^-1 for k in [-5, 5].
    failures = []
    identity_count = 0
    for k in range(-5, 6):
        lhs = BraidWord(3, ((1, k), (2, 1), (1, 1)))
        rhs = BraidWord(3, ((2, 1), (1, 1), (2, k)))
        identity_count += 1
        if not braid_equal(lhs, rhs):
            failures.append({"identity": "s1^k s2 s1 = s2 s1 s2^k", "k": k})
        lhs = BraidWord(3, ((1, -1), (2, k), (1, 1)))
        rhs = BraidWord(3, ((2, 1), (1, k), (2, -1)))
        identity_count += 1
        if not braid_equal(lhs, rhs):
            failures.append({"identity": "s1^-1 s2^k s1 = s2 s1^k s2^-1", "k": k})
    finish("braid-relation-identities", identity_count, failures)

    # (e) Δ^2 < Δ^{4p} σ2^{-12p} = (Δ^{2p} σ2^{-6p})^2 for p in 1..4.
    failures = []
    for p in range(1, 5):
        square = half_twist(4 * p) * BraidWord(3, ((2, -12 * p),))
        if compare(half_twist(2), square) != LESS:
            failures.append({"p": p})
    finish("half-twist-cofinality", 4, failures)

    # (f) sampled order axioms.
    failures = []
    for trial in range(trials):
        rng = _trial_rng(seed, "subword", trial)
        beta = random_braid_word(rng, 40)
        k = rng.choice((1, 2))
        generator = BraidWord(3, ((k, 1),))
        if sign(beta * generator * beta.inverse()).kind != POSITIVE:
            failures.append({"trial": trial, "beta": beta.to_text(), "k": k})
    finish("subword-property", trials, failures)

    failures = []
    for trial in range(trials):
        rng = _trial_rng(seed, "trichotomy", trial)
        u = random_braid_word(rng, 40)
        v = random_braid_word(rng, 40)
        forward, backward = compare(u, v), compare(v, u)
        opposite = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
        entry = {"trial": trial, "u": u.to_text(), "v": v.to_text()}
        if backward != opposite[forward]:
            failures.append({**entry, "error": "asymmetric comparison"})
        elif (forward == EQUAL) != braid_equal(u, v):
            failures.append({**entry, "error": "equality disagrees with Burau"})
    finish("trichotomy", trials, failures)

    # (f u)^-1 (f v) freely reduces to u^-1 v, so both sides sign the same
    # word: an order defined by a positive cone is left-invariant by
    # definition, and this check only tests that comparison is deterministic.
    failures = []
    for trial in range(trials):
        rng = _trial_rng(seed, "left-invariance", trial)
        f = random_braid_word(rng, 40)
        u = random_braid_word(rng, 40)
        v = random_braid_word(rng, 40)
        if compare(u, v) != compare(f * u, f * v):
            failures.append(
                {"trial": trial, "f": f.to_text(), "u": u.to_text(), "v": v.to_text()}
            )
    finish("left-invariance", trials, failures)

    return ExperimentReport(seed, trials, checks)
