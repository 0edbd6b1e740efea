"""Byte-exact CLI outputs: one command per subcommand and output mode, and
``--stdin`` streams of the five commands that take them.

Each case is (argv, exit code, standard output), with standard input before
the exit code for the streams.  The expected outputs pin the observable
behaviour of the whole library through the CLI, so a change meant to leave
behaviour alone must keep every one of them byte-identical.
"""

from __future__ import annotations

import hashlib
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
        "  alternating-shape-positivity: pass [samples=10, steps=245]\n"
        "  conjugate-sandwich-f2: pass [samples=10, steps=992]\n"
        "  conjugate-sandwich-kn: pass [samples=10, steps=901]\n"
        "  braid-relation-identities: pass [samples=22, steps=0]\n"
        "  half-twist-cofinality: pass [samples=4, steps=220]\n"
        "  subword-property: pass [samples=10, steps=284]\n"
        "  trichotomy: pass [samples=10, steps=448]\n"
        "  word-independence: pass [samples=10, steps=324]\n"
        "result: pass\n",
    ),
    (
        ["verify", "--seed", "2", "--trials", "10", "--json"],
        0,
        '{"checks": ['
        '{"failures": [], "name": "alternating-shape-positivity", "passed": true, '
        '"samples": 10, "steps": 150}, '
        '{"failures": [], "name": "conjugate-sandwich-f2", "passed": true, '
        '"samples": 10, "steps": 592}, '
        '{"failures": [], "name": "conjugate-sandwich-kn", "passed": true, '
        '"samples": 10, "steps": 1555}, '
        '{"failures": [], "name": "braid-relation-identities", "passed": true, '
        '"samples": 22, "steps": 0}, '
        '{"failures": [], "name": "half-twist-cofinality", "passed": true, '
        '"samples": 4, "steps": 220}, '
        '{"failures": [], "name": "subword-property", "passed": true, '
        '"samples": 10, "steps": 232}, '
        '{"failures": [], "name": "trichotomy", "passed": true, '
        '"samples": 10, "steps": 444}, '
        '{"failures": [], "name": "word-independence", "passed": true, '
        '"samples": 10, "steps": 326}'
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


# sha256 of the standard output of ``verify --seed s --trials 25`` for seeds
# 1-20, in text and in --json.  A report is a pure function of its seed and
# trial count, so a change meant to leave behaviour alone keeps every digest.
VERIFY_SHA256 = {
    False: [
        "daccf99258141c5fa050274c9c6483e7462a3e293a27236d2a3f52b706296827",
        "dc613e646c6ca2de6ca1b0e490a5098cdf7476558bdbf039ba12478550e06ec1",
        "981569bf25f07c752672f21c996e1dd6b861911809e8ead89c71ad3893482197",
        "c0a16df01b412cbd480d19e37a3a0645b414d84bd7621257a583e9b45b1f0491",
        "67109380f88d5977fbaa9645f62b8dc7b42407da09a6c4cd1a54a3567dcaf976",
        "90bc6d5ad24355c6280e7da89f7bd461afb41b0c8cc09aa706f18af33f17cd90",
        "be941eb0d7e94c15ed1da5e9206a482cc9e97367d2d34536bb62e6f8ed92386d",
        "3ca64eff8946ad5f99c933b2403be9431403ae32cf539a518d2e7959f3198bd1",
        "8133a2ad90ff7555cafd6492039ada9d2502aba00b36c42645eda15bfdc5201b",
        "c4942895272036c6763fbe6ed122514e29b836b8db684c390817153b91fe2612",
        "03e4c5d8b88b14a80329b9700c0bef2159625871f1c6d002cc613806f27549db",
        "679615aac9b47c9ae28b4d731e7a86cbe6f78ad13d40d14805657aeceeabca00",
        "48dac6c8d91dcd29cb180c5ed5bc087f350fa5d30b1b22ab0717250461b408e2",
        "999bf51430b26c7f7bdc944696b28da7f9e73958220cae76621bf75d98793001",
        "8d2c098f0698695f950f21146edb59619133782d1dd4b7332b925bc17c18b47a",
        "9b5d4095fab7f91bfafca53de744bb54a88bd835741dbc92c2c7444b733f8d47",
        "d8774af251cb6c769a5bf2fdf1c8410ab2ac783f33a086acd0f32e1db178fcd2",
        "973e33c95c5b327490a3050d715bb2de53c16d490218f5a469cbe34e3f98c3ff",
        "f8017d1aa317e90fcc891135ed1483cc2949d2eeed9b615dcb7eb2e1b3627f8d",
        "0f9f190d82676e92f313521962e4a97ce926456dbee6b5e8cae635237f763df4",
    ],
    True: [
        "fb83b73542a90c1398aef25393cb963e30464f01a7a9ee5f5184f75e7b8b1c2a",
        "ec87495ae29bbeb29270a9bee54bb8b5a596a77090e1710d8566b718745a68f2",
        "6069dc33d483045d930b242968ae167a3806b9fec18fcf121c480f949cffc8ad",
        "5c205254e1d8378f61989ec297fe22afeeee71bfd39078d76856c618b907420d",
        "e52c79852595655c896964d1986f6dfa5498aa5602450c3f32bb45cd5577fc91",
        "cf443b9404d3c1ad77a2af6668dd444225e05b08dfcffa79fa125dd7db5775a9",
        "c43bf84e4755aec25d189bd860d3335056459d8a819d11080fa7e7a639de84f6",
        "38f0c8730ac54a661e5c18a0fb25e8c293eec5e86446b4b9997c7a0fec98818f",
        "9fcb39c21a1d0dcadc53ac788314a77d385f76aabce950d65894109385f0125b",
        "173f1232bfa375adb786b9b21bfc736477320b6ec3142c1213dae763b214965d",
        "21c60994f86e2cd031e43cab60aee222d2b16db776c633a9bdc6181db7ae56b7",
        "ad4c193d8323d284e13d1f0f143af1b453c8523fb748180b54b5c2a3eb19f346",
        "bb96f7c57639095890af22dd1ae0c1a2d6a5d8efbb42832d1ad534778eaec414",
        "1bb19ed4f8835caf367b0082e7cb95a41625bfc6790bfadc284e9a3cc115013b",
        "435f5b07ef4200bdcb8085c30c71412d3cc5ead4eb512533975296fea011b810",
        "66ee234a25c8fcf4fd0d8a6aff0aa593309c2ce9d021635f13559812b5b0e077",
        "736c455bfb5d9d6be4ad7d2e88d2ad54d44ec3207e2f28f3b205fc86caf31e41",
        "cc5e79a04a4ce4090e13eadc40008119d36fdf5d192cf097c35f52c6ad4cc2c2",
        "8fb17a82b92b12e707cb9f1ee465bc7dcc99b2e81f6659d36f3ebe6733c58147",
        "18b4aeee4f3f69b2b0514b5929caea633598519cce15c255ad23eb9e5c2ff821",
    ],
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_verify_reports_are_byte_identical(capsys, as_json):
    digests = []
    for seed in range(1, 21):
        argv = ["verify", "--seed", str(seed), "--trials", "25"] + ["--json"] * as_json
        assert run(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == VERIFY_SHA256[as_json]
