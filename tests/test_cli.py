"""The command-line interface: outputs, exit codes, JSON contracts."""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidlab
from braidlab import _words, conj_by_sigma2, exotic, parse_free
from braidlab.cli import run

SRC = Path(braidlab.__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSign:
    def test_positive(self, capsys):
        code, out, _ = invoke(capsys, "sign", "s1 s2^-1")
        assert code == 0 and out == "positive(1)\n"

    def test_trivial(self, capsys):
        code, out, _ = invoke(capsys, "sign", "")
        assert code == 0 and out == "trivial\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "sign", "--json", "s2^-3")
        assert code == 0
        assert json.loads(out) == {"kind": "negative", "main_index": 2}

    def test_huge_strand_count(self, capsys):
        # Only the strands the word touches are computed.
        code, out, _ = invoke(
            capsys, "sign", "--strands", "100000000000000000000", "s1 s2 s1^-1", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"kind": "positive", "main_index": 1}

    def test_huge_generator_index(self, capsys):
        # The two generators commute, so the commutator is trivial.
        big = "s99999999999999999999"
        code, out, _ = invoke(
            capsys,
            "sign",
            "--json",
            "--strands",
            "100000000000000000000",
            f"{big} s1 {big}^-1 s1^-1",
        )
        assert code == 0
        assert json.loads(out) == {"kind": "trivial", "main_index": None}

    def test_exponents_of_a_billion(self, capsys):
        code, out, _ = invoke(capsys, "sign", "s1^1000000000 s2 s1^-1000000000")
        assert code == 0 and out == "positive(1)\n"


class TestCompare:
    def test_equal(self, capsys):
        code, out, _ = invoke(capsys, "compare", "s1", "s1")
        assert code == 0 and out == "equal\n"

    def test_less(self, capsys):
        code, out, _ = invoke(capsys, "compare", "", "s1 s2^-1")
        assert code == 0 and out == "less\n"


class TestReduce:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "s1 s2 s1^-1")
        assert code == 0 and out == "s2^-1 s1 s2\n"

    def test_trace_lines_are_json(self, capsys):
        code, out, _ = invoke(capsys, "reduce", "--trace", "s1 s2 s1^-1")
        assert code == 0
        lines = out.strip().split("\n")
        step = json.loads(lines[0])
        assert step["step"] == 1
        assert step["handle"] == {"start": 0, "end": 2, "index": 1, "sign": 1}
        assert step["word"] == "s2^-1 s1 s2"
        assert lines[-1] == "s2^-1 s1 s2"

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDLAB_BUDGET", "0")
        code, out, err = invoke(capsys, "reduce", "s1 s2 s1^-1")
        assert code == 1
        assert "exceeded" in err

    def test_negative_budget_env_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDLAB_BUDGET", "-7")
        code, out, err = invoke(capsys, "reduce", "s1 s2 s1^-1")
        assert (code, out) == (1, "")
        assert err == "error: the step budget must be nonnegative, got -7\n"
        code, out, _ = invoke(capsys, "reduce", "--json", "s1 s2 s1^-1")
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "domain", "message": "the step budget must be nonnegative, got -7"}
        }

    def test_budget_env_does_not_bound_sign(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDLAB_BUDGET", "0")
        code, out, _ = invoke(capsys, "sign", "s1 s2 s1^-1")
        assert code == 0 and out == "positive(1)\n"

    def test_non_integer_budget_env_is_one_json_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDLAB_BUDGET", "not-a-number")
        code, out, err = invoke(capsys, "reduce", "--json", "s1 s2 s1^-1")
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "type": "domain",
                "message": "BRAIDLAB_BUDGET must be an integer, got 'not-a-number'",
            }
        }
        assert err == "error: BRAIDLAB_BUDGET must be an integer, got 'not-a-number'\n"


class TestBurau:
    def test_identity_matrix(self, capsys):
        code, out, _ = invoke(capsys, "burau", "")
        assert code == 0
        assert json.loads(out) == {"entries": [[[[0, 1]], []], [[], [[0, 1]]]]}

    def test_long_run(self, capsys):
        # A run is one step of the packed kernel, not 10^5 of them.
        # test_burau.py checks the same cost shape without a clock.
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "burau", "s1^100000")
        assert time.perf_counter() - start < 2
        # σ1^n = [[(-t)^n, Σ_{j<n} (-t)^j], [0, 1]].
        (a, b), (c, d) = json.loads(out)["entries"]
        assert code == 0 and a == [[100000, 1]] and c == [] and d == [[0, 1]]
        assert b == [[j, (-1) ** j] for j in range(100000)]

    def test_wrong_strands_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "burau", "s3")
        assert code == 2


class TestEmbedUnembed:
    def test_embed(self, capsys):
        code, out, _ = invoke(capsys, "embed", "x")
        assert code == 0 and out == "s1 s2^-1\n"

    def test_unembed(self, capsys):
        code, out, _ = invoke(capsys, "unembed", "s1 s2^-1")
        assert code == 0 and out == "x\n"

    def test_unembed_rejects_nonzero_sum(self, capsys):
        code, _, err = invoke(capsys, "unembed", "s1")
        assert code == 1 and "exponent sum" in err

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x\ny\n"))
        code, out, _ = invoke(capsys, "embed", "--stdin")
        assert code == 0
        assert out == "s1 s2^-1\ns1^2 s2^-2\n"


class TestStdinJsonLines:
    """``--stdin --json`` writes JSON Lines: one document per input word, and
    at the first bad line one error document, then it stops."""

    @pytest.mark.parametrize("bad", [1, 2, 4])
    def test_bad_line_ends_the_stream(self, capsys, monkeypatch, bad):
        lines = ["s1", "s2^-1", "", "s1 s2^-1"]
        lines.insert(bad - 1, "s1 s9")
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code, out, err = invoke(capsys, "sign", "--stdin", "--json")
        documents = [json.loads(line) for line in out.splitlines()]
        assert code == 2
        assert len(documents) == bad
        assert all("kind" in doc for doc in documents[:-1])
        assert documents[-1]["error"]["type"] == "usage"
        assert documents[-1]["error"]["line"] == bad
        assert err.startswith(f"usage error: line {bad}: ")

    def test_undecodable_input_names_no_line(self, capsys, monkeypatch):
        # The bad byte is decoded with the chunk that holds it, before the
        # words ahead of it in that chunk are handled: no line is to blame.
        data = b"s1\n" * 4000 + b"\xff\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = invoke(capsys, "sign", "--stdin", "--json")
        *results, last = [json.loads(line) for line in out.splitlines()]
        assert code == 1 and len(results) < 4000
        assert last["error"]["type"] == "domain" and "line" not in last["error"]
        assert err.startswith("error: 'utf-8' codec can't decode")

    def test_one_document_per_word(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x\ny^-1\n\n"))
        code, out, _ = invoke(capsys, "embed", "--stdin", "--json")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"word": "s1 s2^-1"},
            {"word": "s2^2 s1^-2"},
            {"word": ""},
        ]


class TestAut:
    def test_sigma2_images(self, capsys):
        code, out, _ = invoke(capsys, "aut", "sigma2", "x")
        assert code == 0 and out == "x y^-1 x\n"

    def test_inverse_power(self, capsys):
        code, out, _ = invoke(capsys, "aut", "sigma2", "x y^-1 x", "--power", "-1")
        assert code == 0 and out == "x\n"

    @pytest.mark.parametrize("name", ["sigma2", "sigma1", "flip"])
    @pytest.mark.parametrize("power", [1, 600])
    def test_one_rewrite_and_no_substitution(self, capsys, monkeypatch, name, power):
        """A power is one conjugation in B_3 and one rewrite, whatever p."""
        calls = {"substitute": 0, "commutator_rewrite": 0}

        def counted(module, attribute):
            function = getattr(module, attribute)

            def wrapper(*args):
                calls[attribute] += 1
                return function(*args)

            monkeypatch.setattr(module, attribute, wrapper)

        counted(_words, "substitute")
        counted(exotic, "commutator_rewrite")
        code, _, _ = invoke(capsys, "aut", name, "x y^-1", "--power", str(power))
        assert code == 0 and calls == {"substitute": 0, "commutator_rewrite": 1}


class TestKn:
    def test_basis(self, capsys):
        code, out, _ = invoke(capsys, "kn-basis", "3")
        assert code == 0 and out == "y\nx^2\nx y x\n"

    def test_rewrite(self, capsys):
        code, out, _ = invoke(capsys, "kn-rewrite", "3", "x y x^-1")
        assert code == 0 and out == "g3 g2^-1\n"

    def test_rewrite_long_runs(self, capsys):
        code, out, _ = invoke(capsys, "kn-rewrite", "3", "x^1000000000 y x^-1000000000")
        assert code == 0 and out == "g2^500000000 g1 g2^-500000000\n"

    def test_rewrite_rejects_non_member(self, capsys):
        code, _, err = invoke(capsys, "kn-rewrite", "3", "x")
        assert code == 1 and "not a member" in err

    def test_rewrite_checks_the_index_first(self, capsys):
        # One rule for n: past the index limit, before membership.
        code, out, _ = invoke(capsys, "kn-rewrite", "--json", "3000000", "x")
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "domain",
            "message": "n must be at most 100000, got 3000000",
        }


class TestExoticCompare:
    def test_default_ctx(self, capsys):
        code, out, _ = invoke(capsys, "exotic-compare", "x", "y")
        assert code == 0 and out == "less\n"

    def test_kn_ctx(self, capsys):
        code, out, _ = invoke(capsys, "exotic-compare", "--ctx", "kn:3", "", "g1")
        assert code == 0 and out == "less\n"

    def test_bad_ctx(self, capsys):
        code, _, err = invoke(capsys, "exotic-compare", "--ctx", "k3", "x", "y")
        assert code == 2

    # The n of kn:<n> follows the INT rule of s<INT> and g<INT>; int() would
    # read each of these (kn:3_0 as K_30) or fail with its own message.
    @pytest.mark.parametrize("ctx", ["kn:3_0", "kn:+3", "kn: 3", "kn:03", "kn:٣", "kn:", "kn:x"])
    def test_ctx_outside_the_int_rule(self, capsys, ctx):
        code, out, err = invoke(capsys, "exotic-compare", "--json", "--ctx", ctx, "g1", "g2")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "usage",
            "message": f"unknown context {ctx!r}; expected f2 or kn:<n>",
        }
        assert "int()" not in err

    def test_ctx_below_k2(self, capsys):
        code, _, err = invoke(capsys, "exotic-compare", "--ctx", "kn:1", "g1", "g2")
        assert code == 2
        assert err == "usage error: bad context 'kn:1': n must be at least 2, got 1\n"

    @pytest.mark.parametrize("n", [3, 7])
    def test_ctx_echo(self, capsys, n):
        code, out, _ = invoke(capsys, "exotic-compare", "--json", "--ctx", f"kn:{n}", "g1", "g2")
        assert code == 0 and json.loads(out) == {"ctx": f"kn:{n}", "result": "greater"}


class TestProbeConvexity:
    def test_witness_found(self, capsys):
        code, out, _ = invoke(
            capsys, "probe-convexity", "--ctx", "f2", "--gens", "x", "--radius", "8"
        )
        assert code == 0 and out.startswith("witness:")

    def test_json_witness(self, capsys):
        code, out, _ = invoke(
            capsys,
            "probe-convexity",
            "--json",
            "--gens",
            "y",
            "--radius",
            "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["witness"]) == {"c_low", "g", "c_high"}

    def test_long_members_give_one_json_document(self, capsys):
        # Members of x^1200 are walked to length 2500, deeper than Python's
        # default recursion limit.
        code, out, _ = invoke(
            capsys,
            "probe-convexity",
            "--gens",
            "x^1200",
            "--radius",
            "2",
            "--max-element-length",
            "2500",
            "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "ctx": "f2",
            "witness": {"c_high": "x^1200", "c_low": "", "g": "x"},
        }

    def test_generators_too_long_is_a_domain_error(self, capsys):
        code, out, err = invoke(capsys, "probe-convexity", "--json", "--gens", "x^1000000000")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "domain"
        assert "letters in total" in err

    def test_negative_max_element_length_is_a_domain_error(self, capsys):
        code, out, _ = invoke(
            capsys,
            "probe-convexity",
            "--json",
            "--gens",
            "x",
            "--radius",
            "3",
            "--max-element-length",
            "-4",
        )
        assert code == 1
        assert json.loads(out) == {
            "error": {"message": "max_element_length must be nonnegative, got -4", "type": "domain"}
        }

    def test_inconclusive_exit(self, capsys):
        # The trivial subgroup can never produce a witness.
        code, out, _ = invoke(
            capsys, "probe-convexity", "--gens", "", "--radius", "2"
        )
        assert code == 1 and "inconclusive" in out


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--seed", "1", "--trials", "5")
        assert code == 0
        assert out.endswith("result: pass\n")

    def test_json_valid(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--json", "--seed", "1", "--trials", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_byte_identical_runs(self, capsys):
        _, first, _ = invoke(capsys, "verify", "--seed", "2", "--trials", "6")
        _, second, _ = invoke(capsys, "verify", "--seed", "2", "--trials", "6")
        assert first == second


class TestErrors:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_parse_error_offset_in_json(self, capsys):
        code, out, _ = invoke(capsys, "sign", "--json", "s1 s9")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "usage"
        assert payload["error"]["offset"] == 3

    def test_json_on_every_error_path(self, capsys):
        for argv in (
            ["sign", "--json", "s9"],
            ["unembed", "--json", "s1"],
            ["kn-rewrite", "--json", "3", "x"],
        ):
            _, out, _ = invoke(capsys, *argv)
            json.loads(out)  # must not raise

    @pytest.mark.parametrize("word", ["a", ""])
    def test_invalid_strand_count_is_domain_error(self, capsys, word):
        code, out, err = invoke(capsys, "sign", "--json", "--strands", "1", word)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "domain",
            "message": "strand count must be at least 2, got 1",
        }

    def test_missing_word(self, capsys):
        code, _, err = invoke(capsys, "sign")
        assert code == 2


class TestHelp:
    """``--help`` prints the argparse help and returns 0 instead of raising
    SystemExit, with the same output as the installed command."""

    @pytest.mark.parametrize("argv", [["--help"], ["sign", "--help"], ["verify", "--json", "-h"]])
    def test_returns_zero(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0 and out.startswith("usage: braidlab") and err == ""
        assert (code, out, err) == fresh_process(argv)


def fresh_process(argv, launch=("-m", "braidlab.cli"), **options):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, *launch, *argv], capture_output=True, text=True, env=env, **options
    )
    return child.returncode, child.stdout, child.stderr


MEMORY_CAP = 2**30  # bytes of address space for each long-input process


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


# The command line, which at exit writes its peak resident set in kB as the
# last word of standard error.  That is VmHWM, which exec starts afresh;
# ru_maxrss keeps the resident set the child had as a fork of the test
# process, so it reads the test process's size for any small command.
METERED_CLI = (
    "import atexit, re, runpy, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        print(re.search(r'VmHWM:\\s*(\\d+)', status.read())[1], file=sys.stderr)\n"
    "atexit.register(peak)\n"
    "runpy.run_module('braidlab.cli', run_name='__main__', alter_sys=True)\n"
)


def long_input(argv, out, code, seconds, id, stdin=None, peak_mb=None):
    """A ``LONG_INPUTS`` row; ``stdin``, if given, makes the text to feed,
    and ``peak_mb``, if given, bounds the child's peak resident set."""
    return pytest.param(argv, out, code, seconds, stdin, peak_mb, id=id)


REWRITE_LIMIT_ERROR = (
    '{"error": {"message": "commutator rewriting takes at most 1000000 braid letters, '
    'got 2000000000", "type": "domain"}}\n'
)
# Long inputs with short answers, as (argv, stdout, exit code, seconds, stdin).
# Each time bound is at least 10x the time measured on a 2-core VM (0.38 s,
# 0.15 s, 0.23 s, 0.14 s, 0.13 s, 0.10 s, 0.09 s, 0.09 s, 0.09 s, 0.54 s,
# 0.65 s, 1.8 s, 0.10 s, 0.12 s, 0.09 s, 0.48 s, 0.09 s, 0.09 s,
# 0.37-0.49 s, 0.07 s and 0.38-0.45 s), so a slow shared machine does not
# fail a row, while an input whose cost grows with its letters rather than
# its runs still does.
LONG_INPUTS = [
    long_input(
        ["probe-convexity", "--json", "--gens", "x^49998 y", "x^49999 y", "--radius", "1"],
        '{"conclusive": false, "radius": 1, "witness": null}\n',
        1,
        10,
        id="probe-cascading-fold",
    ),
    long_input(
        ["probe-convexity", "--json", "--gens", "x^1000000000"],
        '{"error": {"message": "generators have more than 100000 letters in total", '
        '"type": "domain"}}\n',
        1,
        5,
        id="probe-over-letter-limit",
    ),
    long_input(["sign", "s1^1000000000"], "positive(1)\n", 0, 5, id="sign-long-run"),
    # Δ^2 is central, so the flip's power needs only p mod 2.
    long_input(["aut", "flip", "x", "--power", "1000000000"], "x\n", 0, 5, id="aut-flip-huge"),
    # A rewrite is as long as its input, so a long input is a domain error.
    long_input(
        ["aut", "--json", "sigma2", "x", "--power", "1000000000"],
        REWRITE_LIMIT_ERROR,
        1,
        5,
        id="aut-sigma2-huge",
    ),
    long_input(
        ["unembed", "--json", "s2^1000000000 s1^-1000000000"],
        REWRITE_LIMIT_ERROR,
        1,
        5,
        id="unembed-huge",
    ),
    # An image or a rewrite past its output limit is a domain error.
    long_input(
        ["embed", "--json", "x^1000000000"],
        '{"error": {"message": "embed takes at most 500000 letters, got 1000000000", '
        '"type": "domain"}}\n',
        1,
        5,
        id="embed-huge",
    ),
    long_input(
        ["kn-rewrite", "--json", "3", "x y^1000000000 x^-1"],
        '{"error": {"message": "kn_rewrite emits at most 1000000 runs, reached 2000000000", '
        '"type": "domain"}}\n',
        1,
        5,
        id="kn-rewrite-huge",
    ),
    # An x-run emits one run, however long.
    long_input(
        ["kn-rewrite", "--json", "3", "x^1000000000"],
        '{"word": "g2^500000000"}\n',
        0,
        5,
        id="kn-rewrite-long-x-run",
    ),
    # The largest outputs the limits accept.
    long_input(
        ["embed", "--json", "y^500000"],
        '{"word": "' + " ".join(["s1^2 s2^-2"] * 500_000) + '"}\n',
        0,
        10,
        id="embed-at-limit",
    ),
    long_input(
        ["kn-rewrite", "--json", "3", "x y^500000 x^-1"],
        '{"word": "' + " ".join(["g3 g2^-1"] * 500_000) + '"}\n',
        0,
        10,
        id="kn-rewrite-at-limit",
    ),
    # Word text on --stdin: the longest word the CLI prints, padded to the
    # text limit, is read; the 45 MB line of 10^7 runs that took 23.5 s and
    # 992 MB is refused before it is parsed.
    long_input(
        ["sign", "--stdin"],
        "positive(1)\n",
        0,
        30,
        id="sign-stdin-at-text-limit",
        stdin=lambda: " ".join(["s1^2 s2^-2"] * 500_000).ljust(_words.MAX_TEXT_LENGTH) + "\n",
    ),
    long_input(
        ["unembed", "--json", "--stdin"],
        '{"error": {"line": 1, "message": "word text takes at most 8388608 characters, '
        'got 8388610", "type": "domain"}}\n',
        1,
        5,
        id="unembed-stdin-over-text-limit",
        stdin=lambda: " ".join(["s2 s1^-1"] * 5_000_000) + "\n",
        # A line is read to at most the limit and two characters: 32 MB
        # peak, where reading the whole line took 117 MB.
        peak_mb=64,
    ),
    # The K_n index: a basis of n words, or a probe's rose of 2n loops, is
    # built only up to its limit.
    long_input(
        ["kn-basis", "--json", "3000000"],
        '{"error": {"message": "n must be at most 100000, got 3000000", "type": "domain"}}\n',
        1,
        5,
        id="kn-basis-over-index-limit",
    ),
    long_input(
        ["probe-convexity", "--json", "--ctx", "kn:3000000", "--gens", "g1", "--radius", "1"],
        '{"error": {"message": "bad context \'kn:3000000\': n must be at most 100000, '
        'got 3000000", "type": "usage"}}\n',
        2,
        5,
        id="probe-over-index-limit",
    ),
    long_input(
        ["kn-basis", "--json", "100000"],
        json.dumps(
            {
                "basis": ["y", "x^99999", "x y x^99998"]
                + [f"x^{i} y x^{99999 - i}" for i in range(2, 99998)]
                + ["x^99998 y x"]
            }
        )
        + "\n",
        0,
        10,
        id="kn-basis-at-index-limit",
        # The basis and its text: 59 MB peak, where a cached table of the
        # basis took 105 MB.
        peak_mb=80,
    ),
    # A comparison at the index limit maps two letters, not the basis: 17 MB
    # peak, where building the basis table first took 99 MB.
    long_input(
        ["exotic-compare", "--json", "--ctx", "kn:100000", "g1", "g1^2"],
        '{"ctx": "kn:100000", "result": "less"}\n',
        0,
        5,
        id="exotic-compare-at-index-limit",
        peak_mb=40,
    ),
    # The Burau image of 10^7 letters ran out of memory in its decode, with
    # no answer printed; the bit limit, which caps a word at 174,762
    # letters, refuses it before packing: 16 MB peak.
    long_input(
        ["burau", "--json", "s1^10000000"],
        '{"error": {"message": "the Burau image packs at most 4194304 bits '
        '(width times letters), got 320000000", "type": "domain"}}\n',
        1,
        5,
        id="burau-over-letter-limit",
        peak_mb=40,
    ),
    # σ1^n = [[(-t)^n, Σ_{j<n} (-t)^j], [0, 1]] for the most letters the
    # bit limit admits, 174,762 at width 24: 51 MB peak.
    long_input(
        ["burau", "--json", "s1^174762"],
        json.dumps(
            {"entries": [[[[174762, 1]], [[j, (-1) ** j] for j in range(174762)]], [[], [[0, 1]]]]}
        )
        + "\n",
        0,
        5,
        id="burau-at-letter-limit",
        peak_mb=80,
    ),
    # Many long runs: 10^5 letters at width 1,008 took 15 s with a 432 MB
    # peak; refused before packing, 15 MB peak.
    long_input(
        ["burau", "--json", " ".join(["s1^1000 s2^-1000"] * 50)],
        '{"error": {"message": "the Burau image packs at most 4194304 bits '
        '(width times letters), got 100800000", "type": "domain"}}\n',
        1,
        5,
        id="burau-over-bit-limit",
        peak_mb=40,
    ),
    # (s1 s2)^3 = Δ^2 maps to t^3, so (s1 s2)^1023 maps to t^1023 at the
    # limit, 2,046 letters at width 2,048: 18 MB peak.
    long_input(
        ["burau", "--json", " ".join(["s1 s2"] * 1023)],
        '{"entries": [[[[1023, 1]], []], [[], [[1023, 1]]]]}\n',
        0,
        5,
        id="burau-at-bit-limit",
        peak_mb=40,
    ),
]


@pytest.mark.parametrize("argv, out, code, seconds, stdin, peak_mb", LONG_INPUTS)
def test_long_input(argv, out, code, seconds, stdin, peak_mb):
    """Each row answers in a fresh process with its address space capped
    and within its time bound; a hang fails by ``TimeoutExpired``."""
    text = stdin() if stdin else None
    got_code, got_out, err = fresh_process(
        argv, ("-c", METERED_CLI), input=text, timeout=seconds, preexec_fn=cap_memory
    )
    assert (got_code, got_out) == (code, out)
    if peak_mb is not None:
        assert int(err.split()[-1]) / 1024 < peak_mb


def test_long_automorphism_power():
    """``aut sigma2 x --power 20000`` in a fresh capped process (0.17 s
    measured, bound 5 s) against the sixth-power identity: φ^6(w) = C w C^-1
    with C = x y^-1 x^-1 y, and 20000 = 6 * 3333 + 2."""
    phi, c = conj_by_sigma2(), parse_free("x y^-1 x^-1 y")
    expected = c**3333 * phi(phi(parse_free("x"))) * c**-3333
    argv = ["aut", "sigma2", "x", "--power", "20000"]
    got = fresh_process(argv, timeout=5, preexec_fn=cap_memory)
    assert got == (0, expected.to_text() + "\n", "")


class TestRunAsModule:
    """``python -m braidlab`` runs the command line from a plain checkout."""

    def test_help(self):
        code, out, err = fresh_process(["--help"], ("-m", "braidlab"))
        assert code == 0 and out.startswith("usage: braidlab") and err == ""

    def test_sign_json(self):
        code, out, err = fresh_process(["sign", "--json", "s1 s2^-1"], ("-m", "braidlab"))
        assert code == 0 and err == ""
        assert json.loads(out) == {"kind": "positive", "main_index": 1}


class TestParserReuse:
    """One parser serves every call of ``run`` in a process; a failed parse
    must leave nothing behind for the next call."""

    def test_same_outputs_as_fresh_processes(self, capsys):
        commands = [
            ["sign", "--strands", "x", "s1"],
            ["compare", "--strands", "4", "s3", "s1 s2"],
            ["exotic-compare", "--json", "x", "y", "--bogus"],
        ]
        in_process = [invoke(capsys, *argv) for argv in commands]
        assert [r[0] for r in in_process] == [2, 0, 2]
        assert in_process == [fresh_process(argv) for argv in commands]
