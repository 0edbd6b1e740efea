"""The benchmark's three workloads: seeded inputs, one operation, answer checks.

Every workload is a closed loop with one client: the harness calls ``run`` on
one input at a time, each call starting when the previous one returned.  The
library is only reached through attributes of the ``braidlab`` modules looked
up at call time, so the traced run sees every call once its wrappers are
installed.

A workload provides

* ``build(seed, smoke)``: the list of inputs of one pass, made from the seed
  alone (``smoke`` selects tiny sizes for the harness's own test);
* ``run(item)``: the timed operation, returning its answer;
* ``text(answer)``: the canonical text of an answer, hashed into the digest
  and compared between passes;
* ``check(item, answer)``: ``None`` when the answer is verified, otherwise a
  reason.  Checks run outside the timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import braidlab as bl
import braidlab.cli

# Modulus of the independent Burau check below, and the number of random
# evaluation points: two matrices of Laurent polynomials of degree at most D
# that agree at a random point differ with probability at most ~D / 2^61.
_P = (1 << 61) - 1
_BURAU_POINTS = 2


def _mat_mul(m, n):
    (a, b, c, d), (e, f, g, h) = m, n
    return (
        (a * e + b * g) % _P,
        (a * f + b * h) % _P,
        (c * e + d * g) % _P,
        (c * f + d * h) % _P,
    )


def _mat_pow(m, k):
    result = (1, 0, 0, 1)
    while k:
        if k & 1:
            result = _mat_mul(result, m)
        m = _mat_mul(m, m)
        k >>= 1
    return result


def burau_at(runs, t: int):
    """Reduced Burau image of a three-strand run sequence evaluated at t mod P.

    Written here rather than taken from :mod:`braidlab.burau`, so that the
    check does not trust the layer a change may be optimizing; exponents are
    taken by repeated squaring, so long runs stay cheap.
    """
    ti = pow(t, _P - 2, _P)
    images = {
        (1, 1): (-t % _P, 1, 0, 1),
        (1, -1): (-ti % _P, ti, 0, 1),
        (2, 1): (1, 0, t, -t % _P),
        (2, -1): (1, 0, 1, -ti % _P),
    }
    m = (1, 0, 0, 1)
    for index, exponent in runs:
        sign = 1 if exponent > 0 else -1
        m = _mat_mul(m, _mat_pow(images[(index, sign)], abs(exponent)))
    return m


def _random_letters(rng: random.Random, length: int, alphabet: int):
    return tuple((rng.randint(1, alphabet), rng.choice((1, -1))) for _ in range(length))


def _stratified_lengths(rng: random.Random, count: int, low: int, high: int):
    """``count`` lengths, log-uniform on [low, high], one per equal stratum, so
    every seed draws the same length profile and only the words differ."""
    ratio = math.log(high / low)
    return [round(low * math.exp(ratio * (k + rng.random()) / count)) for k in range(count)]


class SignLong:
    """``dehornoy_sign`` of one long three-strand word per operation."""

    name = "sign-long"
    # Share of each family in a pass: planted-sign words, generic random words,
    # and the two adversarial families.
    FAMILIES = (("planted", 6), ("generic", 4), ("delta", 3), ("comm4", 3))
    PASS, SMOKE_PASS = 960, 16
    LENGTHS, SMOKE_LENGTHS = (200, 1600), (20, 160)
    TRACE_OPS = 48

    def build(self, seed: int, smoke: bool):
        rng = random.Random(f"sign-long/{seed}")
        total = self.SMOKE_PASS if smoke else self.PASS
        low, high = self.SMOKE_LENGTHS if smoke else self.LENGTHS
        weight = sum(w for _, w in self.FAMILIES)
        items = []
        for family, w in self.FAMILIES:
            for length in _stratified_lengths(rng, total * w // weight, low, high):
                items.append(self._make(rng, family, length))
        rng.shuffle(items)
        points = [rng.randrange(2, _P - 1) for _ in range(_BURAU_POINTS)]
        return [(family, word, expected, points) for family, word, expected in items]

    @staticmethod
    def _make(rng, family, length):
        if family == "planted":
            beta = bl.BraidWord(3, _random_letters(rng, (length - 1) // 2, 2))
            sign = rng.choice((1, -1))
            middle = bl.BraidWord(3, ((rng.randint(1, 2), sign),))
            return family, beta * middle * beta.inverse(), bl.POSITIVE if sign > 0 else bl.NEGATIVE
        if family == "generic":
            return family, bl.BraidWord(3, _random_letters(rng, length, 2)), None
        if family == "delta":
            k = max(1, round((length - 1) / 12))
            word = bl.half_twist(-2 * k) * bl.BraidWord(3, ((1, 1),)) * bl.half_twist(2 * k)
            return family, word, "positive(1)"
        k = max(1, round(length / 16))
        return family, bl.BraidWord(3, ((1, -k), (2, k), (1, k), (2, -k))) ** 4, None

    def run(self, item):
        return bl.dehornoy_sign(item[1])

    def text(self, answer) -> str:
        return str(answer)

    def check(self, item, answer):
        family, word, expected, points = item
        if family == "planted":
            return None if answer.kind == expected else f"planted sign is {expected}"
        if family == "delta":
            return None if str(answer) == expected else f"expected {expected}"
        # Certificate: the handle-free form shows the reported sign in its
        # lowest generator and has the Burau image of the input.
        reduced = bl.handle_reduce(word)
        if not reduced.letters:
            shown = bl.TRIVIAL
        else:
            main = min(i for i, _ in reduced.letters)
            signs = {e > 0 for i, e in reduced.letters if i == main}
            if len(signs) != 1:
                return "reduced form is not sigma-definite"
            shown = f"{bl.POSITIVE if signs.pop() else bl.NEGATIVE}({main})"
        if shown != str(answer):
            return f"reduced form shows {shown}"
        for t in points:
            if burau_at(word.letters, t) != burau_at(reduced.letters, t):
                return "reduced form has another Burau image"
        return None


class VerifySuite:
    """``braidlab verify --seed s --trials T --json`` run in-process."""

    name = "verify-suite"
    PASS, SMOKE_PASS = 150, 6
    TRIALS, SMOKE_TRIALS = 25, 3
    TRACE_OPS = 12

    def build(self, seed: int, smoke: bool):
        rng = random.Random(f"verify-suite/{seed}")
        count = self.SMOKE_PASS if smoke else self.PASS
        trials = self.SMOKE_TRIALS if smoke else self.TRIALS
        seeds = rng.sample(range(1, 10**6), count)
        return [["verify", "--seed", str(s), "--trials", str(trials), "--json"] for s in seeds]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = braidlab.cli.run(argv)
        return code, out.getvalue()

    def text(self, answer) -> str:
        code, out = answer
        return f"{code}\n{out}"

    def check(self, argv, answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        try:
            report, end = json.JSONDecoder().raw_decode(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        if out[end:].strip():
            return "more than one JSON document"
        if report.get("passed") is not True:
            return "report did not pass"
        return None


F2 = bl.ExoticContext.f2()


class ProbeSearch:
    """``convexity_probe`` of small random subgroups, plus known-answer searches."""

    name = "probe-search"
    CONTEXTS = (None, 3, 4, 5, 6, 7, 8)
    PER_CONTEXT, SMOKE_PER_CONTEXT = 150, 2
    TRACE_OPS = 200

    @staticmethod
    def known():
        """Operations whose answer must not be ``None``: the four subgroups of
        acceptance criterion 9 at radius 10, and non-Conradian searches."""
        p = bl.parse_free
        items = [
            ("probe", F2, gens, 10, True)
            for gens in ([p("x")], [p("y")], [p("x^2"), p("y")], bl.kn_basis(3))
        ]
        items += [
            ("conradian", F2, None, 6, True),
            ("conradian", bl.ExoticContext.kn(3), None, 4, True),
            ("conradian", bl.ExoticContext.kn(4), None, 3, True),
        ]
        return items

    def build(self, seed: int, smoke: bool):
        rng = random.Random(f"probe-search/{seed}")
        per_context = self.SMOKE_PER_CONTEXT if smoke else self.PER_CONTEXT
        items = self.known()
        for n in self.CONTEXTS:
            ctx = F2 if n is None else bl.ExoticContext.kn(n)
            # One or two generators of 1-3 letters, in equal shares.
            for k in range(per_context):
                length = 1 + (k // 2) % 3
                gens = [self._generator(rng, ctx.rank, length) for _ in range(1 + k % 2)]
                items.append(("probe", ctx, gens, 5, False))
        rng.shuffle(items)
        return items

    @staticmethod
    def _generator(rng, rank, length):
        while True:
            word = bl.FreeWord(rank, _random_letters(rng, length, rank))
            if not word.is_identity():
                return word

    def run(self, item):
        kind, ctx, gens, radius, _ = item
        if kind == "probe":
            return bl.convexity_probe(gens, ctx, radius)
        return bl.conradian_violation_search(ctx, radius)

    def text(self, answer) -> str:
        if answer is None:
            return "none"
        if isinstance(answer, bl.ConvexityWitness):
            words = (answer.c_low, answer.g, answer.c_high)
        else:
            words = answer
        return " | ".join(w.to_text() for w in words)

    def check(self, item, answer):
        kind, ctx, gens, _, known = item
        if answer is None:
            return "no answer on a known-answer operation" if known else None

        def image(word):
            return bl.embed(ctx.to_f2(word))

        def less(u, v):
            a, b = image(u), image(v)
            return bl.braid_compare(a, b) == bl.LESS and not bl.braid_equal(a, b)

        if kind == "probe":
            graph = bl.stallings_graph(gens)
            low, g, high = answer.c_low, answer.g, answer.c_high
            if not (bl.subgroup_contains(graph, low) and bl.subgroup_contains(graph, high)):
                return "a bound lies outside the subgroup"
            if bl.subgroup_contains(graph, g):
                return "g lies inside the subgroup"
            if not (less(low, g) and less(g, high)):
                return "witness inequalities do not hold"
            return None
        g, h = answer
        one = bl.FreeWord(ctx.rank)
        if not (less(one, g) and less(one, h) and less(h * g * g, g)):
            return "pair does not violate the Conradian condition"
        return None


WORKLOADS = {w.name: w for w in (SignLong(), VerifySuite(), ProbeSearch())}
