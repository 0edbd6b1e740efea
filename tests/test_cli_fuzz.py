"""Fuzzing the command line: every command on small, partly malformed inputs
returns an exit code and never raises.  With ``--json`` it writes exactly one
JSON document (JSON Lines, one per word read, under ``--stdin``); without it
it writes text, and each error as one line on standard error."""

from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from braidlab.cli import run
from braidlab.exotic import NAMED_CONJUGATORS

MALFORMED = ["s0", "s9", "s1^", "^2", "s1^x", "s-1", "q", "x^", "g0", "g9", "(", "1", "z^2"]


def _words(letters, compact):
    """Words of at most 8 terms with |exponent| <= 5 or in the compact
    alphabet; a quarter of them get one malformed token."""
    term = st.tuples(st.sampled_from(letters), st.integers(-5, 5)).map("{0[0]}^{0[1]}".format)
    verbose = st.lists(term, max_size=8).map(" ".join)
    word = st.one_of(verbose, verbose, st.text(compact, max_size=8))
    spoiled = st.tuples(word, st.sampled_from(MALFORMED), st.integers(0, 8)).map(
        lambda t: t[0][: t[2]] + " " + t[1] + " " + t[0][t[2] :]
    )
    return st.one_of(word, word, word, spoiled)


def _arg(values):
    return values.map(lambda value: [str(value)])


def _option(name, values):
    return values.map(lambda value: [name, str(value)])


# An index this large overflows any per-strand allocation at once, so code
# that allocates per strand fails here with OverflowError instead of running
# out of memory.  Indices near 10^8 or 10^9 would allocate gigabytes first.
HUGE = 10**20
BRAID = _words(["s1", "s2", "s3", f"s{HUGE - 1}"], "aAbB")
FREE = _words(["x", "y", "g1", "g3"], "xXyY")
# A generator too long for a Stallings graph: the probe refuses it at once.
LONG_GENERATOR = st.sampled_from(["x^1000000000", "g1^-1000000000"])
# Generators of the whole group: of F2, and of K_3 in its basis g1, g2, g3.
# The probe answers these at once, with no search.
WHOLE_GROUP = st.sampled_from([["x", "y"], ["y x", "x^-1"], ["g1", "g2", "g3"]])
GENERATORS = st.lists(st.one_of(FREE, FREE, FREE, LONG_GENERATOR), min_size=1, max_size=2)
N = st.integers(-1, 8)
CTX = _option("--ctx", st.sampled_from(["f2", "kn:x"] + [f"kn:{n}" for n in range(1, 9)]))
STRANDS = st.one_of(st.just([]), _option("--strands", st.sampled_from([0, 1, 2, 3, 4, HUGE])))


def _aut_args(name):
    """The name, a word and a power up to 300, or ±10^9 for the flip, whose
    power needs only p mod 2."""
    power = st.integers(-300, 300)
    if name == "flip":
        power = st.one_of(power, st.sampled_from([-(10**9), 10**9]))
    return st.tuples(_arg(st.just(name)), _arg(FREE), _option("--power", power)).map(
        lambda parts: [arg for part in parts for arg in part]
    )


# Per command: the parts of its argv, and its stdin word when it takes --stdin.
COMMANDS = {
    "sign": ([STRANDS], BRAID),
    "compare": ([_arg(BRAID), _arg(BRAID), STRANDS], None),
    "reduce": ([STRANDS, st.sampled_from([[], ["--trace"]])], BRAID),
    "burau": ([], BRAID),
    "embed": ([], FREE),
    "unembed": ([], BRAID),
    "aut": (
        [st.sampled_from(sorted(NAMED_CONJUGATORS) + ["bogus"]).flatmap(_aut_args)],
        None,
    ),
    "kn-basis": ([_arg(N)], None),
    "kn-rewrite": ([_arg(N), _arg(FREE)], None),
    "exotic-compare": ([_arg(FREE), _arg(FREE), CTX], None),
    "probe-convexity": (
        [
            CTX,
            st.one_of(GENERATORS, GENERATORS, GENERATORS, WHOLE_GROUP).map(
                lambda gens: ["--gens", *gens]
            ),
            _option("--radius", st.integers(-2, 4)),
            st.one_of(st.just([]), _option("--max-element-length", st.integers(-2, 6))),
        ],
        None,
    ),
    "verify": ([_option("--seed", st.integers(0, 50)), _option("--trials", st.integers(0, 3))], None),
}


@st.composite
def command_lines(draw):
    """``(argv, stdin lines or None)`` for one command, without ``--json``."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    parts, word = COMMANDS[name]
    argv = [name] + [arg for part in parts for arg in draw(part)]
    if word is None:
        return argv, None
    if draw(st.booleans()):
        return argv + ["--stdin"], draw(st.lists(word, min_size=1, max_size=4))
    return argv + [draw(word)], None


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(stdin_text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_json_contract(case):
    argv, lines = case
    argv = argv[:1] + ["--json"] + argv[1:]
    code, out, _ = _run(argv, "".join(line + "\n" for line in lines or ()))
    assert code in (0, 1, 2), argv
    documents = [json.loads(line) for line in out.splitlines()]
    if lines is None:
        assert len(documents) == 1, argv
    elif code == 0:
        assert len(documents) == len(lines), argv
    else:
        assert 1 <= len(documents) <= len(lines), argv
    if code == 2:
        assert documents[-1]["error"]["type"] == "usage", argv
    if code == 0:
        assert all("error" not in doc for doc in documents), argv


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_text_contract(case):
    """Text mode exits as ``--json`` does.  A result is at least one stdout
    line per word; an error is one stderr line, naming the same input line as
    the error document of ``--json``."""
    argv, lines = case
    stdin_text = "".join(line + "\n" for line in lines or ())
    code, out, err = _run(argv, stdin_text)
    json_code, json_out, _ = _run(argv[:1] + ["--json"] + argv[1:], stdin_text)
    assert code == json_code, argv
    error = json.loads(json_out.splitlines()[-1]).get("error")
    if error is None:  # a result: success, or a property that fails (exit 1)
        assert code in (0, 1) and err == "", argv
        assert len(out.splitlines()) >= (len(lines) if lines and code == 0 else 1), argv
    else:
        assert code == (2 if error["type"] == "usage" else 1), argv
        (message,) = err.splitlines()
        prefix = "usage error: " if code == 2 else "error: "
        if "line" in error:
            prefix += f"line {error['line']}: "
        assert message.startswith(prefix), argv
