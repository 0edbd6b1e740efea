"""Every library name the benchmark harness in ``bench/`` uses still exists.

The harness is not part of this suite, so a deleted or renamed public member
would only show when the benchmark runs.  This test reads ``bench/*.py``
(it imports none of it), collects each attribute chain rooted at a name the
file binds to ``braidlab`` (``bl.ExoticContext.f2``, ``braidlab.cli.run``)
and resolves it on the package.  It also checks that every hook key of the
tracer in ``bench/spans.py`` names a function that the tracer wraps.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

import braidlab
import braidlab.cli  # noqa: F401  (the harness reaches the CLI as braidlab.cli)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _chain(node: ast.Attribute) -> list[str] | None:
    """``bl.a.b`` as ["bl", "a", "b"]; None unless rooted at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def library_references(source: str) -> set[tuple[str, ...]]:
    """Attribute paths below ``braidlab`` that a module's code uses."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or "braidlab"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.partition(".")[0] == "braidlab"
    }
    chains = (_chain(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return {tuple(chain[1:]) for chain in chains if chain and chain[0] in aliases}


def resolve(path: tuple[str, ...]) -> object:
    value = braidlab
    for name in path:
        value = getattr(value, name)
    return value


BENCH_FILES = sorted(BENCH.glob("*.py"))


def test_the_scan_finds_the_harness():
    found = {path for file in BENCH_FILES for path in library_references(file.read_text())}
    assert ("convexity_probe",) in found and ("cli", "run") in found


def test_the_scan_reports_a_missing_name():
    missing = library_references("import braidlab as bl\nbl.ExoticContext.nowhere()\n")
    assert missing == {("ExoticContext",), ("ExoticContext", "nowhere")}
    with pytest.raises(AttributeError):
        resolve(("ExoticContext", "nowhere"))


@pytest.mark.parametrize("file", BENCH_FILES, ids=lambda file: file.name)
def test_bench_names_resolve(file):
    unresolved = []
    for path in sorted(library_references(file.read_text())):
        try:
            resolve(path)
        except AttributeError:
            unresolved.append(".".join(path))
    assert not unresolved, f"{file.name} uses missing library names: {unresolved}"


def hook_keys(source: str) -> list[str]:
    """The string keys of the dict that ``Tracer._hooks`` returns."""
    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_hooks":
            for ret in ast.walk(node):
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                    keys += [
                        key.value
                        for key in ret.value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ]
    return keys


def test_hook_keys_name_wrapped_functions():
    # The tracer wraps each function defined in braidlab.<mod> and listed in
    # its __all__, then looks its hooks up by "mod.fn": a key naming anything
    # else is skipped without a word, and its counter reads 0.
    keys = hook_keys((BENCH / "spans.py").read_text())
    assert "exotic.exotic_compare" in keys and "cli.run" in keys
    unwrapped = []
    for key in keys:
        module_name, _, name = key.partition(".")
        module = importlib.import_module(f"braidlab.{module_name}")
        fn = getattr(module, name, None)
        public = getattr(module, "__all__", None) or [n for n in vars(module) if n[:1] != "_"]
        listed = name in public
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__ and listed):
            unwrapped.append(key)
    assert not unwrapped, f"spans.py hooks functions it does not wrap: {unwrapped}"
    # The tracer also wraps the word classes' constructor check.
    assert callable(braidlab.BraidWord.__post_init__)
    assert callable(braidlab.FreeWord.__post_init__)


@pytest.mark.parametrize("name", ["ball", "subgroup_elements"])
def test_traced_ball_counter_sees_generators(name):
    # bench/spans.py wraps the functions defined in braidlab.probe and
    # listed in its __all__, and counts probe.ball_words per word that
    # probe.ball yields only while ball is a generator function.  A ball, or
    # a walk under it, that stopped being one would leave the counter at 0
    # without a word.
    import braidlab.probe

    fn = getattr(braidlab.probe, name)
    assert name in braidlab.probe.__all__
    assert inspect.isgeneratorfunction(fn) and fn.__module__ == "braidlab.probe"
