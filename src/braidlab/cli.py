"""Command-line interface.

Commands: sign, compare, reduce, burau, embed, unembed, aut, kn-basis,
kn-rewrite, exotic-compare, probe-convexity, verify.  Braid words use the
``s1 s2^-1`` grammar (or the compact a/A/b/B form on three strands);
free-group words use ``x y^-1 g3`` (or compact x/X/y/Y at rank two).

Exit codes: 0 on success (including a found witness), 1 when a verified
property fails or a domain error occurs (budget exhausted, no witness
found), 2 on usage or word-parse errors.  With ``--json`` standard output is
a single JSON document on every path, errors included (one per input word
under ``--stdin``, see below); ``--help`` is the one path that prints text.
The environment variable ``BRAIDLAB_BUDGET``, read here and nowhere in the
library, sets the step budget of ``reduce`` (an absolute step count); signs
and comparisons come from Dynnikov coordinates and need no budget.

Single-word commands accept ``--stdin`` to process one word per input line;
with ``--json`` they write JSON Lines, one document per input word, and at
the first line that fails they write its error document and stop.  That
document, and the message on standard error, name the 1-based input line.

Each ``_cmd_*`` handler is a function of its arguments (and of one word,
for the single-word commands, and of ``BRAIDLAB_BUDGET`` for ``reduce``)
that returns a :class:`Result` and prints nothing.  :func:`run` alone reads
``--stdin``, renders a result as text or JSON, and reports usage and domain
errors, from argparse and handlers alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import NamedTuple, Sequence

from ._words import _INT_RE, MAX_TEXT_LENGTH, WordParseError
from .braid import parse_braid
from .burau import burau_matrix
from .dehornoy import (
    BudgetExceededError,
    braid_compare,
    dehornoy_sign,
    handle_reduce,
    handle_reduce_trace,
)
from .exotic import (
    NAMED_CONJUGATORS,
    ExoticContext,
    commutator_rewrite,
    embed,
    exotic_compare,
    named_power,
)
from .freegroup import kn_basis, kn_rewrite, parse_free
from .probe import convexity_probe, lemma_suite

__all__ = ["run", "main"]

USAGE_ERROR = 2
FAILURE = 1
OK = 0


class _UsageError(Exception):
    pass


class _QuietParser(argparse.ArgumentParser):
    """argparse whose errors raise :class:`_UsageError` instead of exiting, so
    ``run`` reports them; ``--help`` still ends in argparse's ``SystemExit``."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _QuietParser(prog="braidlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler, word=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(handler=handler)
        if word:
            p.add_argument("word", nargs="?", default=None)
            p.add_argument("--stdin", action="store_true", help="read one word per line")
        return p

    p = add("sign", "Dehornoy sign of a braid word", _cmd_sign, word=True)
    p.add_argument("--strands", type=int, default=3)

    p = add("compare", "compare two braids in the Dehornoy order", _cmd_compare)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strands", type=int, default=3)

    p = add("reduce", "handle-reduce a braid word", _cmd_reduce, word=True)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--trace", action="store_true", help="print each step as a JSON line")

    add("burau", "reduced Burau matrix of a three-strand word (JSON)", _cmd_burau, word=True)
    add("embed", "embed a rank-2 free word into [B3, B3]", _cmd_embed, word=True)
    add("unembed", "rewrite a zero-exponent-sum braid over {x, y}", _cmd_unembed, word=True)

    p = add("aut", "apply a named automorphism of F_2", _cmd_aut)
    p.add_argument("name", choices=sorted(NAMED_CONJUGATORS))
    p.add_argument("word")
    p.add_argument("--power", type=int, default=1)

    p = add("kn-basis", "basis of the kernel K_n", _cmd_kn_basis)
    p.add_argument("n", type=int)

    p = add("kn-rewrite", "rewrite a K_n member over the basis alphabet", _cmd_kn_rewrite)
    p.add_argument("n", type=int)
    p.add_argument("word")

    p = add(
        "exotic-compare", "compare free-group words in a restricted order", _cmd_exotic_compare
    )
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ctx", default="f2", help="f2 or kn:<n>")

    p = add(
        "probe-convexity", "search for a convexity violation of a subgroup", _cmd_probe_convexity
    )
    p.add_argument("--ctx", default="f2")
    p.add_argument("--gens", nargs="+", required=True, help="generator words")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--max-element-length", type=int, default=None)

    p = add("verify", "run the seeded verification suite", _cmd_verify)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)

    return parser


def _parse_ctx(text: str) -> ExoticContext:
    """``f2``, or ``kn:`` followed by an INT of the word grammar."""
    if text == "f2":
        return ExoticContext.f2()
    if text.startswith("kn:") and _INT_RE.match(text[3:]):
        try:
            return ExoticContext.kn(int(text[3:]))
        except ValueError as exc:
            raise _UsageError(f"bad context {text!r}: {exc}") from None
    raise _UsageError(f"unknown context {text!r}; expected f2 or kn:<n>")


class Result(NamedTuple):
    """A command's JSON document, text form (``None``: the JSON) and exit code."""

    payload: dict
    text: str | None = None
    code: int = OK


def _cmd_sign(args, text: str) -> Result:
    verdict = dehornoy_sign(parse_braid(text, args.strands))
    return Result({"kind": verdict.kind, "main_index": verdict.main_index}, str(verdict))


def _cmd_compare(args) -> Result:
    result = braid_compare(
        parse_braid(args.left, args.strands), parse_braid(args.right, args.strands)
    )
    return Result({"result": result}, result)


def _cmd_reduce(args, text: str) -> Result:
    word = parse_braid(text, args.strands)
    env = os.environ.get("BRAIDLAB_BUDGET")
    try:
        budget = None if env is None else int(env)
    except ValueError:
        raise ValueError(f"BRAIDLAB_BUDGET must be an integer, got {env!r}") from None
    if not args.trace:
        reduced = handle_reduce(word, budget=budget).to_text()
        return Result({"word": reduced}, reduced)
    reduced, trace = handle_reduce_trace(word, budget=budget)
    steps = [
        {"step": item.step, "handle": dataclasses.asdict(item.handle), "word": item.word.to_text()}
        for item in trace
    ]
    payload = {"word": reduced.to_text(), "steps": steps}
    if args.json:  # no text form: a Result with none prints the JSON
        return Result(payload)
    lines = [json.dumps(step, sort_keys=True) for step in steps] + [payload["word"]]
    return Result(payload, "\n".join(lines))


def _cmd_burau(args, text: str) -> Result:
    return Result({"entries": burau_matrix(parse_braid(text)).to_json_entries()})


def _cmd_embed(args, text: str) -> Result:
    braid = embed(parse_free(text, 2)).to_text()
    return Result({"word": braid}, braid)


def _cmd_unembed(args, text: str) -> Result:
    word = commutator_rewrite(parse_braid(text)).to_text()
    return Result({"word": word}, word)


def _cmd_aut(args) -> Result:
    image = named_power(args.name, parse_free(args.word, 2), args.power).to_text()
    return Result({"word": image}, image)


def _cmd_kn_basis(args) -> Result:
    basis = [word.to_text() for word in kn_basis(args.n)]
    return Result({"basis": basis}, "\n".join(basis))


def _cmd_kn_rewrite(args) -> Result:
    rewritten = kn_rewrite(parse_free(args.word, 2), args.n).to_text()
    return Result({"word": rewritten}, rewritten)


def _cmd_exotic_compare(args) -> Result:
    ctx = _parse_ctx(args.ctx)
    result = exotic_compare(
        parse_free(args.left, ctx.rank), parse_free(args.right, ctx.rank), ctx
    )
    return Result({"result": result, "ctx": str(ctx)}, result)


def _cmd_probe_convexity(args) -> Result:
    ctx = _parse_ctx(args.ctx)
    generators = [parse_free(text, ctx.rank) for text in args.gens]
    witness = convexity_probe(generators, ctx, args.radius, args.max_element_length)
    if witness is None:
        return Result(
            {"witness": None, "radius": args.radius, "conclusive": False},
            f"none (inconclusive: radius {args.radius} exhausted; this does not prove convexity)",
            FAILURE,
        )
    c_low, g, c_high = (word.to_text() for word in (witness.c_low, witness.g, witness.c_high))
    return Result(
        {"witness": {"c_low": c_low, "g": g, "c_high": c_high}, "ctx": str(ctx)},
        f"witness: c_low = {c_low or '1'} < g = {g} < c_high = {c_high or '1'} "
        f"(g outside the subgroup)",
    )


def _cmd_verify(args) -> Result:
    report = lemma_suite(args.seed, args.trials)
    return Result(report.to_json_dict(), report.to_text(), OK if report.passed else FAILURE)


def _print(result: Result, as_json: bool) -> int:
    text = result.text
    print(json.dumps(result.payload, sort_keys=True) if as_json or text is None else text)
    return result.code


def run(argv: Sequence[str]) -> int:
    """Dispatch a command line; returns the exit code, never raises."""
    as_json, line = "--json" in argv, None
    try:
        args = _build_parser().parse_args(list(argv))
        as_json = args.json
        if "stdin" not in args:
            return _print(args.handler(args), as_json)
        if args.stdin and args.word is not None:
            raise _UsageError("give either a word argument or --stdin, not both")
        if args.word is not None:
            return _print(args.handler(args, args.word), as_json)
        if not args.stdin:
            raise _UsageError("a word argument is required (or use --stdin)")
        # A line is read to at most MAX_TEXT_LENGTH + 2 characters, so a longer
        # one is refused by the parser, with the count read, at bounded memory.
        lines = iter(lambda: sys.stdin.readline(MAX_TEXT_LENGTH + 2), "")
        for number, text in enumerate(lines, 1):
            line = number  # set only while its word is handled: a failed read names no line
            _print(args.handler(args, text.rstrip("\n")), as_json)
            line = None
        return OK
    except SystemExit as exc:  # argparse is done early: --help
        return exc.code
    except (_UsageError, BudgetExceededError, ValueError) as exc:
        usage = isinstance(exc, (_UsageError, WordParseError))
        error = {"type": "usage" if usage else "domain", "message": str(exc)}
        if isinstance(exc, WordParseError):
            error["offset"] = exc.offset
        if line is not None:
            error["line"] = line
        if as_json:
            print(json.dumps({"error": error}, sort_keys=True))
        where = "" if line is None else f"line {line}: "
        print(f"{'usage error' if usage else 'error'}: {where}{exc}", file=sys.stderr)
        return USAGE_ERROR if usage else FAILURE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
