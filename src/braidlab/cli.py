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
The environment variable ``BRAIDLAB_BUDGET`` overrides the step budget of
``reduce`` (an absolute step count); signs and comparisons come from
Dynnikov coordinates and need no budget.

Single-word commands accept ``--stdin`` to process one word per input line;
with ``--json`` they write JSON Lines, one document per input word, and at
the first line that fails they write its error document and stop.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from ._words import WordParseError
from .braid import parse_braid
from .burau import burau_matrix
from .dehornoy import (
    BudgetExceededError,
    braid_compare,
    dehornoy_sign,
    handle_reduce,
    handle_reduce_trace,
)
from .exotic import ExoticContext, commutator_rewrite, embed, exotic_compare
from .freegroup import (
    NAMED_AUTOMORPHISMS,
    apply_automorphism,
    kn_basis,
    kn_rewrite,
    parse_free,
)
from .probe import convexity_probe, lemma_suite

__all__ = ["run", "main"]

USAGE_ERROR = 2
FAILURE = 1
OK = 0


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse is done early (``--help``); the argument is the exit code."""


class _QuietParser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so ``run`` stays total."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _QuietParser(prog="braidlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.set_defaults(handler=handler)
        return p

    p = add("sign", "Dehornoy sign of a braid word", _cmd_sign)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--stdin", action="store_true", help="read one word per line")

    p = add("compare", "compare two braids in the Dehornoy order", _cmd_compare)
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strands", type=int, default=3)

    p = add("reduce", "handle-reduce a braid word", _cmd_reduce)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--trace", action="store_true", help="print each step as a JSON line")
    p.add_argument("--stdin", action="store_true")

    p = add("burau", "reduced Burau matrix of a three-strand word (JSON)", _cmd_burau)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true")

    p = add("embed", "embed a rank-2 free word into [B3, B3]", _cmd_embed)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true")

    p = add("unembed", "rewrite a zero-exponent-sum braid over {x, y}", _cmd_unembed)
    p.add_argument("word", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true")

    p = add("aut", "apply a named automorphism of F_2", _cmd_aut)
    p.add_argument("name", choices=sorted(NAMED_AUTOMORPHISMS))
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
    if text == "f2":
        return ExoticContext.f2()
    if text.startswith("kn:"):
        try:
            return ExoticContext.kn(int(text[3:]))
        except ValueError as exc:
            raise _UsageError(f"bad context {text!r}: {exc}") from None
    raise _UsageError(f"unknown context {text!r}; expected f2 or kn:<n>")


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _input_words(args) -> list[str]:
    if getattr(args, "stdin", False):
        if args.word is not None:
            raise _UsageError("give either a word argument or --stdin, not both")
        return [line.rstrip("\n") for line in sys.stdin]
    if args.word is None:
        raise _UsageError("a word argument is required (or use --stdin)")
    return [args.word]


def _cmd_sign(args) -> int:
    for text in _input_words(args):
        verdict = dehornoy_sign(parse_braid(text, args.strands))
        _emit(
            {"kind": verdict.kind, "main_index": verdict.main_index},
            args.json,
            str(verdict),
        )
    return OK


def _cmd_compare(args) -> int:
    result = braid_compare(
        parse_braid(args.left, args.strands), parse_braid(args.right, args.strands)
    )
    _emit({"result": result}, args.json, result)
    return OK


def _cmd_reduce(args) -> int:
    for text in _input_words(args):
        word = parse_braid(text, args.strands)
        if args.trace:
            reduced, trace = handle_reduce_trace(word)
            steps = [
                {
                    "step": item.step,
                    "handle": item.handle.to_json_dict(),
                    "word": item.word.to_text(),
                }
                for item in trace
            ]
            if args.json:
                print(json.dumps({"word": reduced.to_text(), "steps": steps}, sort_keys=True))
            else:
                for step in steps:
                    print(json.dumps(step, sort_keys=True))
                print(reduced.to_text())
        else:
            reduced = handle_reduce(word)
            _emit({"word": reduced.to_text()}, args.json, reduced.to_text())
    return OK


def _cmd_burau(args) -> int:
    for text in _input_words(args):
        matrix = burau_matrix(parse_braid(text))
        print(json.dumps({"entries": matrix.to_json_entries()}, sort_keys=True))
    return OK


def _cmd_embed(args) -> int:
    for text in _input_words(args):
        braid = embed(parse_free(text, 2))
        _emit({"word": braid.to_text()}, args.json, braid.to_text())
    return OK


def _cmd_unembed(args) -> int:
    for text in _input_words(args):
        word = commutator_rewrite(parse_braid(text))
        _emit({"word": word.to_text()}, args.json, word.to_text())
    return OK


def _cmd_aut(args) -> int:
    auto = NAMED_AUTOMORPHISMS[args.name]()
    image = apply_automorphism(auto, parse_free(args.word, 2), args.power)
    _emit({"word": image.to_text()}, args.json, image.to_text())
    return OK


def _cmd_kn_basis(args) -> int:
    basis = kn_basis(args.n)
    if args.json:
        print(json.dumps({"basis": [word.to_text() for word in basis]}, sort_keys=True))
    else:
        for word in basis:
            print(word.to_text())
    return OK


def _cmd_kn_rewrite(args) -> int:
    rewritten = kn_rewrite(parse_free(args.word, 2), args.n)
    _emit({"word": rewritten.to_text()}, args.json, rewritten.to_text())
    return OK


def _cmd_exotic_compare(args) -> int:
    ctx = _parse_ctx(args.ctx)
    result = exotic_compare(
        parse_free(args.left, ctx.rank), parse_free(args.right, ctx.rank), ctx
    )
    _emit({"result": result, "ctx": str(ctx)}, args.json, result)
    return OK


def _cmd_probe_convexity(args) -> int:
    ctx = _parse_ctx(args.ctx)
    generators = [parse_free(text, ctx.rank) for text in args.gens]
    witness = convexity_probe(generators, ctx, args.radius, args.max_element_length)
    if witness is None:
        _emit(
            {"witness": None, "radius": args.radius, "conclusive": False},
            args.json,
            f"none (inconclusive: radius {args.radius} exhausted; this does not prove convexity)",
        )
        return FAILURE
    payload = {
        "witness": {
            "c_low": witness.c_low.to_text(),
            "g": witness.g.to_text(),
            "c_high": witness.c_high.to_text(),
        },
        "ctx": str(ctx),
    }
    text = (
        f"witness: c_low = {witness.c_low.to_text() or '1'!s} < "
        f"g = {witness.g.to_text()} < c_high = {witness.c_high.to_text() or '1'!s} "
        f"(g outside the subgroup)"
    )
    _emit(payload, args.json, text)
    return OK


def _cmd_verify(args) -> int:
    report = lemma_suite(args.seed, args.trials)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(report.to_text())
    return OK if report.passed else FAILURE


def _error_payload(kind: str, exc: Exception) -> dict:
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, WordParseError):
        payload["error"]["offset"] = exc.offset
    return payload


def run(argv: Sequence[str]) -> int:
    """Dispatch a command line; returns the exit code, never raises."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        wants_json = "--json" in argv
        if wants_json:
            print(json.dumps(_error_payload("usage", exc), sort_keys=True))
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _Exit as exc:
        return exc.args[0]

    try:
        return args.handler(args)
    except (_UsageError, WordParseError) as exc:
        if args.json:
            print(json.dumps(_error_payload("usage", exc), sort_keys=True))
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (BudgetExceededError, ValueError) as exc:
        if args.json:
            print(json.dumps(_error_payload("domain", exc), sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
