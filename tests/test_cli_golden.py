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


# sha256 of the standard output of ``verify --seed s --trials 25`` for seeds
# 1-20, in text and in --json.  A report is a pure function of its seed and
# trial count, so a change meant to leave behaviour alone keeps every digest.
VERIFY_SHA256 = {
    False: [
        "6d8d5d41c77c1d451322ee0e1652accb2faeae8bd0db5f18273afe2016fd5d59",
        "61b95b35196e4bfddff1658664e7a4323231e0abe7e0a33554596735eabc67fa",
        "4890f0879656d2e96d779557c6986e0c465f3ba9b53a81ba319b3a17cce73295",
        "cb838369c00cb4d76bca51ec7205cabc19cbc68787d32d3f1629dbc4da9c2495",
        "9b220f206d3ce1eb335c9f534ff6ed0a234feefd839e5752db56001dbdeab31b",
        "2c8211ef90112c1f6e3ea3c8a360f8b35607639d060d20f450f906890f1b9c30",
        "1723ebfce721519df576f2ae13f42a607680162cef41e23e7eccb64250e10212",
        "81725d8c623d6fc700c76ae801ca285e43f465041e45e4202282a9516ec3197c",
        "292851508802c86d0b9322a49d7df6f4e16c031db6de1a74f8113c7c90cbe325",
        "fb739bcb278fa6661f08132fa16bfe97de75520cb0c36fdc15ae8c37fe45f101",
        "bfe331016cbb712af9aee2e9cc8ddaae30ec5ff0171b72b6fba95d7eba0b0810",
        "28534776895d658bc1c925b8f11da85f7cfc6d22b5b2876164870e32546509f7",
        "66bcae5504870e1460de291371e6582a89d562db0e9d36127e3df19a31060ca2",
        "d4e2977c9f369838aa054722643d27f9a05a3ed20e5d8913289466309a4a25b0",
        "cecf6e365bfe376dcfd9f39b107d42c90dce6582f23d1ebe707c17bd38bce3ea",
        "e6b36ac56aeff94f20cd65521915daea9795f780c7fe8b8de567d20dff43526d",
        "089989283ed62eb3d2f090308ce6ae3557ef274d7db406c836d144160c9df5e2",
        "836e0271aa47b6c39c9090aad859d3311a8c068b9bd19806848a5d6f83f1a0df",
        "d911a9861af5829eae54d735961847c03a466f5872fbcbd123861d8a01571bc4",
        "5d1d128d53be0a52f914eb30d873c3d68b19ed1addcfc2803235c3b9aa487377",
    ],
    True: [
        "08b31e546174ddd619fe58ab59c14d0b28a5750c0071efd2822723d64984e16f",
        "805cd956296a21d798bd483509b5b83845e9ca42684cfadaac82291203b54051",
        "a744bd0189453e03c4cb527cc5dd1e0e08702a1d2987bd1abcd7bb9227f3510e",
        "f791c834c6dcd38a29181847e8243be73d85c07a35459e0d7777fd269a756c76",
        "fdb3ecc4b21aecadf8bd418401d219904de30d3168ec578f8196d1cb487aad23",
        "32144f81d8da9b7ab388e8ea0292fa56beae6f3e19a31d0258283b8306b5004e",
        "6985f454a52ef342dd52730b54718f18ce1537305dff086cb5b6fe083a1fb09d",
        "a69e953801904088b64fbe68bbbaf24e33ade6766ba4360808f5fda657a50c14",
        "add8a4365aad1d69b40df8679f1b7f7b3425be75fc06795ee154f596e514c7de",
        "24d28cca797029552ecbd97b2840feab931605b01b7f13abd96da8bfe86d5f24",
        "fe843b0647c598b72e59536c19f4b51e333da63fb39b5ba2df222b4d7bd0aa7b",
        "44c7936e90dc791b84a372fe60dbb557faab5d8aab209b06aad62499aceb5105",
        "f8eabe2aa63bf774b75ad5fd656d5ae4bd565d832333c463ef3a075c0b1494ed",
        "b536c1f1b25e44e2c56f913ffb9d728188487ea011981dd7a6458c3c9abe7346",
        "2280d566d896fa645d575511507d49acb2088879ef866f036b23d9210407d411",
        "4e21fcd298d717ad4d42ce9c6a9c31a47c2283a4c81ec5071cc944e107b5d6c1",
        "935d4324b58366c38fdde838bac80004cc79a892ac6a36af078848b24d41e6cd",
        "cea8b6187dc0484edd3ac8ae7e6af894a8278387d803d30397defa5188edaa28",
        "a1aae67eb939baad065bb991e4ed658aee1888a42cda78d0ba27a49779a80046",
        "2cf0779f7fd19cc4c623753486f3bcbad1fa9e0e8e3c88b8afcfdcbf916e7a33",
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
