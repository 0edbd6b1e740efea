"""Per-module spans and counters, recorded from outside the library.

:class:`Tracer` rebinds every module attribute of ``braidlab`` that names a
wrapped public function (``braidlab.freegroup.kn_basis`` and
``braidlab.exotic.kn_basis`` alike) to a recording wrapper, and wraps the
constructors of ``BraidWord`` and ``FreeWord``.  Each call is a span; spans
nest, and a span's self time is its duration minus that of its child spans.
The layers are the modules, with the run core ``_words`` counted under
``braid``.

Counters are taken at the same boundaries.  Work done only to count, such as
re-running a handle reduction with its trace to learn the step count, runs
with recording suspended (the wrappers then call straight through) and its
time is removed from the enclosing span.
"""

from __future__ import annotations

import collections
import inspect
import io
import sys
import time

import braidlab
import braidlab.cli

LAYERS = ("braid", "burau", "dehornoy", "freegroup", "exotic", "probe", "cli")
_MODULES = ("_words", "braid", "burau", "dehornoy", "freegroup", "exotic", "probe", "cli")

# Counters reported by the traced run, in report order.
COUNTERS = (
    "dehornoy.letters_in",
    "dehornoy.handle_steps",
    "dehornoy.peak_letters",
    "braid.words_built",
    "braid.already_reduced",
    "burau.letters_in",
    "burau.coeff_bits_max",
    "freegroup.kn_basis_calls",
    "freegroup.kn_basis_repeats",
    "freegroup.conj_by_sigma1_calls",
    "freegroup.substitute_letters_out",
    "exotic.compare_calls",
    "exotic.embed_letters_out",
    "exotic.rewrite_letters_in",
    "probe.ball_words",
    "probe.probes",
    "probe.probe_compares",
    "cli.bytes_out",
)

# Reported ratios: name -> (numerator counter, denominator counter).
RATIOS = {
    "braid.renormalized_ratio": ("braid.already_reduced", "braid.words_built"),
    "freegroup.kn_basis_repeat_ratio": ("freegroup.kn_basis_repeats", "freegroup.kn_basis_calls"),
    "probe.compares_per_probe": ("probe.probe_compares", "probe.probes"),
}


def _module(name: str):
    return sys.modules[f"braidlab.{name}"]


def _layer(module_name: str) -> str:
    name = module_name.rpartition(".")[2]
    return "braid" if name == "_words" else name


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield fn


def _is_reduced(runs) -> bool:
    if not isinstance(runs, (tuple, list)):
        return False
    previous = None
    for index, exponent in runs:
        if exponent == 0 or index == previous:
            return False
        previous = index
    return True


class Tracer:
    """Installs recording wrappers on construction; :meth:`close` removes them.

    ``counting`` turns the counters on; the length sweep leaves them off, so
    that only span times are taken.
    """

    def __init__(self, counting: bool = True):
        self.counting = counting
        self.active = True
        self._stack: list[float] = []
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self._kn_built: set[int] = set()
        self._rebound: list[tuple[object, str, object]] = []
        self._install()

    # -- spans -------------------------------------------------------------

    def _exclude(self, seconds: float) -> None:
        """Remove time spent on bookkeeping from the enclosing span."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, fn, layer: str, pre=None, post=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            token = None
            if pre is not None and tracer.counting:
                h0 = clock()
                token = tracer._suspended(pre, args)
                tracer._exclude(clock() - h0)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                tracer.calls[layer] += 1
                tracer.self_s[layer] += duration - child
                if stack:
                    stack[-1] += duration
            if post is not None and tracer.counting:
                h0 = clock()
                tracer._suspended(post, args, result, token)
                tracer._exclude(clock() - h0)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer: str, per_item=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    if not tracer.active:
                        yield from inner
                        return
                    stack = tracer._stack
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        duration = clock() - start
                        child = stack.pop()
                        tracer.calls[layer] += 1
                        tracer.self_s[layer] += duration - child
                        if stack:
                            stack[-1] += duration
                    if per_item is not None and tracer.counting:
                        tracer.counts[per_item] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _suspended(self, hook, *args):
        self.active = False
        try:
            return hook(*args)
        finally:
            self.active = True

    # -- counters ----------------------------------------------------------

    def _on_reduce(self, args, reduced, _token):
        word = args[0]
        self.counts["dehornoy.letters_in"] += word.length
        _, steps = _module("dehornoy").handle_reduce_trace(word, *args[1:])
        self._on_trace(steps, word)

    def _on_reduce_trace(self, args, result, _token):
        self.counts["dehornoy.letters_in"] += args[0].length
        self._on_trace(result[1], args[0])

    def _on_trace(self, steps, word):
        self.counts["dehornoy.handle_steps"] += len(steps)
        peak = max([word.length] + [step.word.length for step in steps])
        self.counts["dehornoy.peak_letters"] = max(self.counts["dehornoy.peak_letters"], peak)

    def _on_construct(self, args):
        self.counts["braid.words_built"] += 1
        self.counts["braid.already_reduced"] += _is_reduced(args[0].letters)

    def _on_burau(self, args, matrix, _token):
        self.counts["burau.letters_in"] += args[0].length
        bits = max(
            (abs(c).bit_length() for row in matrix.entries for poly in row for _, c in poly.terms),
            default=0,
        )
        self.counts["burau.coeff_bits_max"] = max(self.counts["burau.coeff_bits_max"], bits)

    def _on_kn_basis(self, args, _basis, _token):
        n = args[0]
        self.counts["freegroup.kn_basis_calls"] += 1
        self.counts["freegroup.kn_basis_repeats"] += n in self._kn_built
        self._kn_built.add(n)

    def _count(self, name, measure=None):
        def post(args, result, _token):
            self.counts[name] += 1 if measure is None else measure(args, result)

        return post

    def _on_probe_start(self, args):
        return self.counts["exotic.compare_calls"]

    def _on_probe_end(self, args, _result, before):
        self.counts["probe.probes"] += 1
        self.counts["probe.probe_compares"] += self.counts["exotic.compare_calls"] - before

    def _on_cli_start(self, args):
        out = sys.stdout
        return out.tell() if isinstance(out, io.StringIO) else None

    def _on_cli_end(self, args, _code, start):
        if start is not None:
            self.counts["cli.bytes_out"] += len(sys.stdout.getvalue()[start:].encode())

    # -- installation ------------------------------------------------------

    def _hooks(self):
        """``(pre, post)`` per wrapped function; ``pre`` runs before the span
        and its return value is handed to ``post``."""
        length_out = lambda args, result: result.length  # noqa: E731
        length_in = lambda args, result: args[0].length  # noqa: E731
        return {
            "dehornoy.handle_reduce": (None, self._on_reduce),
            "dehornoy.handle_reduce_trace": (None, self._on_reduce_trace),
            "burau.burau_matrix": (None, self._on_burau),
            "freegroup.kn_basis": (None, self._on_kn_basis),
            "freegroup.conj_by_sigma1": (None, self._count("freegroup.conj_by_sigma1_calls")),
            "freegroup.substitute": (
                None, self._count("freegroup.substitute_letters_out", length_out)
            ),
            "exotic.exotic_compare": (None, self._count("exotic.compare_calls")),
            "exotic.embed": (None, self._count("exotic.embed_letters_out", length_out)),
            "exotic.commutator_rewrite": (
                None, self._count("exotic.rewrite_letters_in", length_in)
            ),
            "probe.convexity_probe": (self._on_probe_start, self._on_probe_end),
            "cli.run": (self._on_cli_start, self._on_cli_end),
        }

    def _install(self) -> None:
        hooks = self._hooks()
        wrappers = {}
        for name in _MODULES:
            module = _module(name)
            layer = _layer(module.__name__)
            for fn in _public_functions(module):
                qualified = f"{name}.{fn.__name__}"
                if inspect.isgeneratorfunction(fn):
                    per_item = "probe.ball_words" if qualified == "probe.ball" else None
                    wrappers[id(fn)] = self._wrap_generator(fn, layer, per_item)
                else:
                    pre, post = hooks.get(qualified, (None, None))
                    wrappers[id(fn)] = self._wrap(fn, layer, pre, post)
        modules = [braidlab] + [_module(name) for name in _MODULES]
        for module in modules:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, name, value))
                    setattr(module, name, wrapper)
        for cls, layer in ((braidlab.BraidWord, "braid"), (braidlab.FreeWord, "freegroup")):
            original = cls.__post_init__
            self._rebound.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(original, layer, pre=self._on_construct)

    def close(self) -> None:
        """Restore every rebound attribute."""
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()
