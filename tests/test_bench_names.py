"""Every library name the benchmark harness in ``bench/`` uses still exists.

The harness is not part of this suite, so a deleted or renamed public member
would only show when the benchmark runs.  This test reads ``bench/*.py``
(it imports none of it), collects each attribute chain rooted at a name the
file binds to ``braidlab`` (``bl.ExoticContext.f2``, ``braidlab.cli.run``)
and resolves it on the package.
"""

from __future__ import annotations

import ast
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
