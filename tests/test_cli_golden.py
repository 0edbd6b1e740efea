"""Byte-exact CLI outputs: one command per subcommand and output mode, and
``--stdin`` streams of the five commands that take them.

Each case is (argv, exit code, standard output), with standard input before
the exit code for the streams.  The expected outputs pin the observable
behaviour of the whole library through the CLI, so a change meant to leave
behaviour alone must keep every one of them byte-identical.
"""

from __future__ import annotations

import io

import pytest

from braidlab.cli import run

GOLDEN = [
    (["sign", "s1 s2^-1"], 0, "positive(1)\n"),
    (["sign", "aBAb"], 0, "negative(1)\n"),
    (["sign", "--strands", "5", "s3 s4^-1 s3^-1 s2"], 0, "positive(2)\n"),
    (["sign", "--strands", "5", "s2 s3 s2^-1 s4^-2"], 0, "positive(2)\n"),
    (["sign", "--json", "s1 s2 s1^-1"], 0, '{"kind": "positive", "main_index": 1}\n'),
    (["sign", "s1 q2"], 2, ""),
    (
        ["sign", "--json", "s1^x"],
        2,
        '{"error": {"message": "malformed exponent \'x\' (at offset 0)", '
        '"offset": 0, "type": "usage"}}\n',
    ),
    (["compare", "s1 s2", "s2 s1"], 0, "less\n"),
    (["compare", "--json", "", "s1 s2^-1"], 0, '{"result": "less"}\n'),
    (
        ["reduce", "--trace", "s1 s2 s1^-1 s2^-1 s1"],
        0,
        '{"handle": {"end": 2, "index": 1, "sign": 1, "start": 0}, "step": 1, '
        '"word": "s2^-1 s1^2"}\n'
        "s2^-1 s1^2\n",
    ),
    (
        ["reduce", "--trace", "--json", "s1 s2 s1^-1 s2^-1 s1"],
        0,
        '{"steps": [{"handle": {"end": 2, "index": 1, "sign": 1, "start": 0}, '
        '"step": 1, "word": "s2^-1 s1^2"}], "word": "s2^-1 s1^2"}\n',
    ),
    (
        ["burau", "aB"],
        0,
        '{"entries": [[[[0, 1], [1, -1]], [[-1, -1]]], [[[0, 1]], [[-1, -1]]]]}\n',
    ),
    (
        ["burau", "s1 s2^-1 s1^2"],
        0,
        '{"entries": [[[[2, 1], [3, -1]], [[-1, -1], [0, 1], [1, -2], [2, 1]]], '
        "[[[2, 1]], [[-1, -1], [0, 1], [1, -1]]]]}\n",
    ),
    (["embed", "x y^-1"], 0, "s1 s2 s1^-2\n"),
    (["unembed", "s1 s2 s1 s1 s2 s1 s2^-6"], 0, "x y^-1 x^-1 y\n"),
    (["aut", "sigma2", "y", "--power", "6"], 0, "x y^-1 x^-1 y x y x^-1\n"),
    (["aut", "sigma1", "x y^-1"], 0, "x^-1\n"),
    (["aut", "flip", "x^2 y"], 0, "x^-2 y^-1\n"),
    (["kn-basis", "4"], 0, "y\nx^3\nx y x^2\nx^2 y x\n"),
    (["kn-rewrite", "3", "x y x^-1"], 0, "g3 g2^-1\n"),
    (["exotic-compare", "x", "y"], 0, "less\n"),
    (["exotic-compare", "--ctx", "kn:3", "g1", "g2"], 0, "greater\n"),
    (
        ["exotic-compare", "--ctx", "kn:7", "--json", "g1 g3^-1", "g2^2"],
        0,
        '{"ctx": "kn:7", "result": "less"}\n',
    ),
    (
        ["probe-convexity", "--gens", "x", "--radius", "3"],
        0,
        "witness: c_low = x^-1 < g = y^-1 < c_high = 1 (g outside the subgroup)\n",
    ),
    (
        ["probe-convexity", "--json", "--gens", "x^2", "y", "--radius", "3"],
        0,
        '{"ctx": "f2", "witness": {"c_high": "y", "c_low": "", "g": "x"}}\n',
    ),
    (
        ["probe-convexity", "--gens", "x", "y", "--radius", "2"],
        1,
        "none (inconclusive: radius 2 exhausted; this does not prove convexity)\n",
    ),
    # No member of <x^100> but 1 fits the default length bound 20.
    (
        ["probe-convexity", "--gens", "x^100", "--radius", "10"],
        1,
        "none (inconclusive: radius 10 exhausted; this does not prove convexity)\n",
    ),
    (
        ["probe-convexity", "--json", "--gens", "x^100", "--radius", "10"],
        1,
        '{"conclusive": false, "radius": 10, "witness": null}\n',
    ),
    *(
        (
            ["probe-convexity", "--json", "--gens", *gens, "--radius", "-1"],
            1,
            '{"error": {"message": "radius must be nonnegative, got -1", "type": "domain"}}\n',
        )
        for gens in (["x", "y"], [""])
    ),
    (
        ["verify", "--seed", "1", "--trials", "10"],
        0,
        "verification report (seed=1, trials=10)\n"
        "  alternating-shape-positivity: pass [samples=10, steps=157]\n"
        "  conjugate-sandwich-f2: pass [samples=10, steps=382]\n"
        "  conjugate-sandwich-kn: pass [samples=10, steps=778]\n"
        "  braid-relation-identities: pass [samples=22, steps=0]\n"
        "  half-twist-cofinality: pass [samples=4, steps=220]\n"
        "  subword-property: pass [samples=10, steps=208]\n"
        "  trichotomy: pass [samples=10, steps=546]\n"
        "  left-invariance: pass [samples=10, steps=426]\n"
        "result: pass\n",
    ),
    (
        ["verify", "--seed", "2", "--trials", "10", "--json"],
        0,
        '{"checks": ['
        '{"failures": [], "name": "alternating-shape-positivity", "passed": true, '
        '"samples": 10, "steps": 204}, '
        '{"failures": [], "name": "conjugate-sandwich-f2", "passed": true, '
        '"samples": 10, "steps": 390}, '
        '{"failures": [], "name": "conjugate-sandwich-kn", "passed": true, '
        '"samples": 10, "steps": 860}, '
        '{"failures": [], "name": "braid-relation-identities", "passed": true, '
        '"samples": 22, "steps": 0}, '
        '{"failures": [], "name": "half-twist-cofinality", "passed": true, '
        '"samples": 4, "steps": 220}, '
        '{"failures": [], "name": "subword-property", "passed": true, '
        '"samples": 10, "steps": 266}, '
        '{"failures": [], "name": "trichotomy", "passed": true, '
        '"samples": 10, "steps": 418}, '
        '{"failures": [], "name": "left-invariance", "passed": true, '
        '"samples": 10, "steps": 546}'
        '], "passed": true, "seed": 2, "trials": 10}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, code, stdout", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_output_is_byte_identical(capsys, argv, code, stdout):
    assert run(argv) == code
    assert capsys.readouterr().out == stdout


TRACE_1 = '{"handle": {"end": 2, "index": 1, "sign": 1, "start": 0}, "step": 1, '
TRACED = "s1 s2 s1^-1\ns2\ns1 s2 s1^-1 s2^-1 s1\n"

# Text and --json mode of each command, reduce --trace, and streams that
# stop at a bad middle line, whose error document names that input line.
STDIN_GOLDEN = [
    (
        ["sign", "--stdin"],
        "s1 s2^-1\naBAb\n\ns2^-3\n",
        0,
        "positive(1)\nnegative(1)\ntrivial\nnegative(2)\n",
    ),
    (
        ["sign", "--stdin", "--json"],
        "s1 s2^-1\naBAb\n\ns2^-3\n",
        0,
        '{"kind": "positive", "main_index": 1}\n{"kind": "negative", "main_index": 1}\n'
        '{"kind": "trivial", "main_index": null}\n{"kind": "negative", "main_index": 2}\n',
    ),
    (
        ["reduce", "--stdin"],
        "s1 s2 s1^-1\n\ns1 s2 s1^-1 s2^-1 s1\n",
        0,
        "s2^-1 s1 s2\n\ns2^-1 s1^2\n",
    ),
    (
        ["reduce", "--stdin", "--json"],
        "s1 s2 s1^-1\n\ns1 s2 s1^-1 s2^-1 s1\n",
        0,
        '{"word": "s2^-1 s1 s2"}\n{"word": ""}\n{"word": "s2^-1 s1^2"}\n',
    ),
    (
        ["reduce", "--trace", "--stdin"],
        TRACED,
        0,
        TRACE_1 + '"word": "s2^-1 s1 s2"}\ns2^-1 s1 s2\n'
        "s2\n"
        + TRACE_1 + '"word": "s2^-1 s1^2"}\ns2^-1 s1^2\n',
    ),
    (
        ["reduce", "--trace", "--stdin", "--json"],
        TRACED,
        0,
        '{"steps": [' + TRACE_1 + '"word": "s2^-1 s1 s2"}], "word": "s2^-1 s1 s2"}\n'
        '{"steps": [], "word": "s2"}\n'
        '{"steps": [' + TRACE_1 + '"word": "s2^-1 s1^2"}], "word": "s2^-1 s1^2"}\n',
    ),
    *(
        (
            ["burau", "--stdin", *json_flag],
            "aB\n\n",
            0,
            '{"entries": [[[[0, 1], [1, -1]], [[-1, -1]]], [[[0, 1]], [[-1, -1]]]]}\n'
            '{"entries": [[[[0, 1]], []], [[], [[0, 1]]]]}\n',
        )
        for json_flag in ([], ["--json"])
    ),
    (["embed", "--stdin"], "x\ny^-1\n\nx y^-1\n", 0, "s1 s2^-1\ns2^2 s1^-2\n\ns1 s2 s1^-2\n"),
    (
        ["embed", "--stdin", "--json"],
        "x\ny^-1\n\nx y^-1\n",
        0,
        '{"word": "s1 s2^-1"}\n{"word": "s2^2 s1^-2"}\n{"word": ""}\n{"word": "s1 s2 s1^-2"}\n',
    ),
    (["unembed", "--stdin"], "s1 s2^-1\ns1 s2 s1 s1 s2 s1 s2^-6\n", 0, "x\nx y^-1 x^-1 y\n"),
    (
        ["unembed", "--stdin", "--json"],
        "s1 s2^-1\ns1 s2 s1 s1 s2 s1 s2^-6\n",
        0,
        '{"word": "x"}\n{"word": "x y^-1 x^-1 y"}\n',
    ),
    # A malformed middle line ends the stream.
    (["sign", "--stdin"], "s1\ns1 s9\ns2^-1\n", 2, "positive(1)\n"),
    (
        ["sign", "--stdin", "--json"],
        "s1\ns1 s9\ns2^-1\n",
        2,
        '{"kind": "positive", "main_index": 1}\n'
        '{"error": {"line": 2, "message": "generator index 9 out of range for 3 strands '
        '(at offset 3)", "offset": 3, "type": "usage"}}\n',
    ),
    (
        ["unembed", "--stdin", "--json"],
        "s1 s2^-1\ns1\ns1 s2^-1\n",
        1,
        '{"word": "x"}\n'
        '{"error": {"line": 2, "message": "word has nonzero exponent sum, so it lies '
        'outside [B3, B3]", "type": "domain"}}\n',
    ),
    (
        ["embed", "--stdin", "--json", "x"],
        "y\n",
        2,
        '{"error": {"message": "give either a word argument or --stdin, not both", '
        '"type": "usage"}}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, stdin, code, stdout",
    STDIN_GOLDEN,
    ids=[f"{' '.join(case[0])} -> {case[2]}" for case in STDIN_GOLDEN],
)
def test_stdin_output_is_byte_identical(capsys, monkeypatch, argv, stdin, code, stdout):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == code
    assert capsys.readouterr().out == stdout
