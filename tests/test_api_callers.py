"""Every public name of the library has a caller.

A name in the ``__all__`` of a ``braidlab`` module counts as called when a
source in ``src/braidlab/*.py``, ``bench/*.py`` or ``tests/test_acceptance.py``
reads it (an ``ast`` Name or Attribute that is not assigned to) or imports
it, or when the README names it in backticks.  Its definition and its
``__all__`` entry alone do not count.

Likewise every parameter with a default, on a function in a module's
``__all__``, has a caller: a call in those sources passes it (by keyword, at
its position, or through ``*args``), or the README names it in backticks.  A
parameter whose name starts with an underscore is a test hook and exempt.

Likewise every public method and property of a class in a module's
``__all__``, its ``braidlab`` base classes included, has a caller: a source
reads it.  The README does not count here, since it lists the members of
the classes it describes.  Private and dunder names are exempt.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import braidlab

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = [
    *sorted((ROOT / "src" / "braidlab").glob("*.py")),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(braidlab.__path__)
    if hasattr(importlib.import_module(f"braidlab.{name}"), "__all__")
]


def used_names(path: pathlib.Path) -> set[str]:
    """The names ``path`` reads or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def readme_names() -> set[str]:
    """The identifiers inside backticks in the README."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def passed_parameters(paths: list[pathlib.Path]) -> dict[str, tuple[set[str], float]]:
    """For each function name called in ``paths``: the keywords its calls
    pass, and the most positions a call fills (unbounded through ``*args``)."""
    passed: dict[str, tuple[set[str], float]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords, positions = passed.get(name, (set(), 0))
            keywords.update(keyword.arg for keyword in node.keywords if keyword.arg)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            positions = max(positions, float("inf") if starred else len(node.args))
            passed[name] = keywords, positions
    return passed


@pytest.fixture(scope="module")
def callers() -> set[str]:
    return set().union(readme_names(), *map(used_names, SOURCES))


@pytest.fixture(scope="module")
def source_callers() -> set[str]:
    return set().union(*map(used_names, SOURCES))


@pytest.fixture(scope="module")
def calls() -> dict[str, tuple[set[str], float]]:
    return passed_parameters(SOURCES)


def test_sources_are_found():
    assert all(path.is_file() for path in SOURCES) and len(SOURCES) > 10
    assert {"freegroup", "exotic", "probe"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_caller(module, callers):
    public = importlib.import_module(f"braidlab.{module}").__all__
    assert [f"{module}.{name}" for name in public if name not in callers] == []


@pytest.mark.parametrize("module", MODULES)
def test_every_defaulted_parameter_has_a_caller(module, calls):
    namespace = importlib.import_module(f"braidlab.{module}")
    documented = readme_names()
    uncalled = []
    for name in namespace.__all__:
        function = getattr(namespace, name)
        if not inspect.isfunction(function):
            continue
        keywords, positions = calls.get(name, (set(), 0))
        parameters = inspect.signature(function).parameters.values()
        for position, parameter in enumerate(parameters):
            if (
                parameter.default is inspect.Parameter.empty
                or parameter.name.startswith("_")
                or parameter.name in keywords
                or parameter.name in documented
                or (parameter.kind != parameter.KEYWORD_ONLY and position < positions)
            ):
                continue
            uncalled.append(f"{module}.{name}({parameter.name})")
    assert uncalled == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_member_has_a_caller(module, source_callers):
    namespace = importlib.import_module(f"braidlab.{module}")
    uncalled = set()
    for name in namespace.__all__:
        value = getattr(namespace, name)
        if not inspect.isclass(value):
            continue
        for owner in value.__mro__:
            if not owner.__module__.startswith("braidlab."):
                continue
            for member, attribute in vars(owner).items():
                if member.startswith("_") or member in source_callers:
                    continue
                if inspect.isfunction(attribute) or isinstance(
                    attribute, (property, classmethod, staticmethod)
                ):
                    uncalled.add(f"{owner.__module__}.{owner.__qualname__}.{member}")
    assert sorted(uncalled) == []
