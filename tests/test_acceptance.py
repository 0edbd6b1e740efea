"""Acceptance suite: every criterion at full scale, one pass/fail line each.

All checks are exact (symbolic); there are no numeric tolerances anywhere.
Each criterion prints ``ACCEPTANCE <n> <name>: PASS|FAIL`` (run pytest with
``-s`` to see the lines for passing criteria).

Known honest failure: criterion 5 requires, for every n in 3..8, a member of
K_n pushed outside K_n by a power p < 6 of the sigma2-conjugation
automorphism.  For n = 4 no such witness exists (conjugation by sigma2
preserves K_4 outright; see the failure message for the mod-3 argument), so
that criterion is reported FAIL by design honesty rather than weakened.
"""

from __future__ import annotations

import random

from braidlab import (
    EQUAL,
    GREATER,
    LESS,
    BraidWord,
    ExoticContext,
    FreeWord,
    IntMatrix2,
    automorphism_abelianization,
    ball,
    braid_compare,
    braid_equal,
    commutator_rewrite,
    conj_by_sigma2,
    conradian_violation_search,
    convexity_probe,
    dehornoy_sign,
    embed,
    exotic_compare,
    half_twist,
    handle_reduce,
    kn_basis,
    kn_member,
    kn_rewrite,
    kn_substitute,
    named_power,
    parse_braid,
    parse_free,
    random_braid_word,
    random_free_word,
    stallings_graph,
    subgroup_contains,
)
from braidlab.cli import run

F2 = ExoticContext.f2()
SIGMA2 = BraidWord(3, ((2, 1),))


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def random_kn_element(rng: random.Random, n: int, max_length: int = 6) -> FreeWord:
    return kn_substitute(random_free_word(rng, max_length, rank=n), n)


def sample_positive_base(rng: random.Random, n: int | None = None) -> BraidWord:
    """A 1-positive element of [B3, B3] (of K_n when given) not commuting
    with σ2."""
    from braidlab import commutes

    while True:
        if n is None:
            word = random_free_word(rng, 10)
        else:
            word = random_kn_element(rng, n)
        braid = embed(word)
        if braid.is_identity():
            continue
        verdict = dehornoy_sign(braid)
        if verdict.is_positive and verdict.main_index == 1 and not commutes(braid, SIGMA2):
            return braid


def test_criterion_01_order_axioms():
    rng = random.Random(1001)
    failures = 0
    transitive_hits = 0
    positives: list[BraidWord] = []
    opposite = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    for _ in range(1000):
        f = random_braid_word(rng, 60)
        u = random_braid_word(rng, 60)
        v = random_braid_word(rng, 60)
        w = random_braid_word(rng, 60)

        forward, backward = braid_compare(u, v), braid_compare(v, u)
        if backward != opposite[forward]:
            failures += 1
        if (forward == EQUAL) != braid_equal(u, v):
            failures += 1

        if braid_compare(u, v) == LESS and braid_compare(v, w) == LESS:
            transitive_hits += 1
            if braid_compare(u, w) != LESS:
                failures += 1

        if braid_compare(u, v) != braid_compare(f * u, f * v):
            failures += 1

        if dehornoy_sign(u).is_positive:
            positives.append(u)
        if len(positives) >= 2:
            if not dehornoy_sign(positives[0] * positives[1]).is_positive:
                failures += 1
            positives.clear()

    ok = failures == 0 and transitive_hits > 50
    report(1, "order-axioms", ok, f"transitivity fired {transitive_hits} times")
    assert ok


def test_criterion_02_oracle_consistency():
    rng = random.Random(1002)
    failures = 0
    for _ in range(1000):
        word = random_braid_word(rng, 200)
        if not braid_equal(word, handle_reduce(word)):
            failures += 1

    relator = parse_braid("s1 s2 s1 s2^-1 s1^-1 s2^-1")
    for trial in range(500):
        u = random_braid_word(rng, 60)
        if trial % 2 == 0:
            cut = rng.randint(0, len(u.letters))
            v = BraidWord(3, u.letters[:cut]) * relator * BraidWord(3, u.letters[cut:])
        else:
            v = random_braid_word(rng, 60)
        if braid_equal(u, v) != dehornoy_sign(u.inverse() * v).is_trivial:
            failures += 1

    ok = failures == 0
    report(2, "oracle-consistency", ok)
    assert ok


def test_criterion_03_subword_property():
    rng = random.Random(1003)
    failures = 0
    for _ in range(500):
        beta = random_braid_word(rng, 60)
        k = rng.choice((1, 2))
        conjugate = beta * BraidWord(3, ((k, 1),)) * beta.inverse()
        if not dehornoy_sign(conjugate).is_positive:
            failures += 1
    ok = failures == 0
    report(3, "subword-property", ok)
    assert ok


def test_criterion_04_conjugation_conformity():
    phi = conj_by_sigma2()
    s2 = SIGMA2
    x, y = parse_free("x"), parse_free("y")
    ok = braid_equal(embed(phi(x)), s2.inverse() * embed(x) * s2)
    ok = ok and braid_equal(embed(phi(y)), s2.inverse() * embed(y) * s2)
    ok = ok and phi(x) == parse_free("x y^-1 x") and phi(y) == parse_free("x y^-1 x^2")

    rng = random.Random(1004)
    failures = 0
    for _ in range(200):
        word = random_free_word(rng, 20)
        if not braid_equal(embed(phi(word)), s2.inverse() * embed(word) * s2):
            failures += 1
    ok = ok and failures == 0
    report(4, "sigma2-conjugation", ok)
    assert ok


def test_criterion_05_sixth_power_closure():
    phi = conj_by_sigma2()
    matrix = automorphism_abelianization(phi)
    parts: list[str] = []
    ok = True

    if matrix.rows != ((2, 3), (-1, -1)):
        ok = False
        parts.append("abelianization matrix mismatch")
    if matrix**6 != IntMatrix2.identity():
        ok = False
        parts.append("sixth power is not the identity")

    rng = random.Random(1005)
    for n in range(3, 9):
        closure_failures = 0
        for _ in range(200):
            word = random_kn_element(rng, n)
            if not kn_member(named_power("sigma2", word, 6), n):
                closure_failures += 1
        if closure_failures:
            ok = False
            parts.append(f"sixth power left K_{n} {closure_failures} times")

    # A witness (w, p) with p < 6 and the p-th power leaving K_n, per n.
    missing: list[int] = []
    for n in range(3, 9):
        candidates = kn_basis(n) + [
            w for w in ball(2, 4) if kn_member(w, n) and not w.is_identity()
        ]
        found = None
        for p in range(1, 6):
            for word in candidates:
                if not kn_member(named_power("sigma2", word, p), n):
                    found = (word, p)
                    break
            if found:
                break
        if found is None:
            missing.append(n)
    if missing:
        ok = False
        parts.append(
            f"no escape witness exists for n={missing}: abelianized, the "
            "automorphism maps (a, b) to (2a+3b, -a-b), and in every power "
            "p < 6 of that matrix the top-right entry is divisible by 3, so "
            "the image x-sum is congruent to a multiple of a mod 3; members "
            "of K_4 have a = 0 mod 3, hence every power keeps them inside "
            "K_4 and the required witness cannot exist"
        )

    report(5, "sixth-power-closure", ok, "; ".join(parts))
    assert ok, "; ".join(parts)


def test_criterion_06_kernel_basis():
    ok = True
    parts = []
    x, y = parse_free("x"), parse_free("y")
    for n in range(2, 11):
        basis = kn_basis(n)
        expected = [y, x ** (n - 1)] + [
            (x**i) * y * (x ** (n - 1 - i)) for i in range(1, n - 1)
        ]
        if basis != expected:
            ok = False
            parts.append(f"basis formula fails for n={n}")
        if stallings_graph(basis).cycle_rank() != n:
            ok = False
            parts.append(f"rank is not {n}")

    rng = random.Random(1006)
    for n in range(3, 7):
        failures = 0
        for _ in range(200):
            word = random_kn_element(rng, n, max_length=8)
            if kn_substitute(kn_rewrite(word, n), n) != word:
                failures += 1
        if failures:
            ok = False
            parts.append(f"rewrite round trip failed {failures} times for n={n}")

    report(6, "kernel-basis", ok, "; ".join(parts))
    assert ok


def test_criterion_07_shape_positivity():
    rng = random.Random(1007)
    failures = 0
    for _ in range(500):
        m = rng.randint(0, 6)
        runs = []
        for _ in range(m):
            runs.append((2, rng.randint(1, 5)))
            runs.append((1, -rng.randint(1, 5)))
        runs.append((2, rng.randint(2, 5)))
        runs.append((1, 1))
        verdict = dehornoy_sign(BraidWord(3, tuple(runs)))
        if not (verdict.is_positive and verdict.main_index == 1):
            failures += 1
    ok = failures == 0
    report(7, "shape-positivity", ok)
    assert ok


def test_criterion_08_inequality_chains():
    one = BraidWord(3)
    failures = 0

    rng = random.Random(1008)
    for _ in range(200):
        beta = sample_positive_base(rng)
        k = rng.randint(1, 4)
        conj = SIGMA2**k
        inner = beta * conj * beta.inverse() * conj.inverse()
        if braid_compare(one, inner) != LESS or braid_compare(inner, beta) != LESS:
            failures += 1

    for n in (3, 4, 5):
        for _ in range(100):
            beta = sample_positive_base(rng, n)
            k = rng.randint(1, 2)
            conj = SIGMA2 ** (6 * k)
            inner = beta * conj * beta.inverse() * conj.inverse()
            if not kn_member(commutator_rewrite(inner), n):
                failures += 1
            elif braid_compare(one, inner) != LESS or braid_compare(inner, beta) != LESS:
                failures += 1

    for p in range(1, 5):
        rhs = half_twist(4 * p) * BraidWord(3, ((2, -12 * p),))
        if braid_compare(half_twist(2), rhs) != LESS:
            failures += 1

    ok = failures == 0
    report(8, "inequality-chains", ok)
    assert ok


def test_criterion_09_convexity_witnesses():
    ok = True
    parts = []
    candidates = {
        "<x>": [parse_free("x")],
        "<y>": [parse_free("y")],
        "<x^2, y>": [parse_free("x^2"), parse_free("y")],
        "K_3": kn_basis(3),
    }
    for label, generators in candidates.items():
        witness = convexity_probe(generators, F2, 10)
        if witness is None:
            ok = False
            parts.append(f"no witness for {label} within radius 10")
            continue
        graph = stallings_graph(generators)
        valid = (
            subgroup_contains(graph, witness.c_low)
            and subgroup_contains(graph, witness.c_high)
            and not subgroup_contains(graph, witness.g)
            and exotic_compare(witness.c_low, witness.g, F2) == LESS
            and exotic_compare(witness.g, witness.c_high, F2) == LESS
        )
        if not valid:
            ok = False
            parts.append(f"invalid witness for {label}")
    report(9, "convexity-witnesses", ok, "; ".join(parts))
    assert ok


def test_criterion_10_non_conradian_witness():
    pair = conradian_violation_search(F2, 6)
    ok = pair is not None
    detail = ""
    if ok:
        g, h = pair
        one = FreeWord(2)
        ok = (
            exotic_compare(one, g, F2) == LESS
            and exotic_compare(one, h, F2) == LESS
            and exotic_compare(h * g * g, g, F2) == LESS
        )
        detail = f"g={g.to_text()}, h={h.to_text()}"
    report(10, "non-conradian-witness", ok, detail)
    assert ok


def test_criterion_11_reproducibility(capsys):
    argv = ["verify", "--seed", "1", "--trials", "100"]
    code_first = run(list(argv))
    first = capsys.readouterr().out
    code_second = run(list(argv))
    second = capsys.readouterr().out
    ok = code_first == 0 and code_second == 0 and first == second
    with capsys.disabled():
        report(11, "reproducibility", ok, f"{len(first)} bytes per report")
    assert ok
