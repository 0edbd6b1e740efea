"""The library reads nothing and writes nothing outside its arguments.

Only the command line (``cli.py`` and ``__main__.py``) reads the environment,
the standard input or the arguments of the process, prints, or exits.  An
``ast`` scan of every other source in ``src/braidlab/*.py`` fails on a use of
``os.environ``, ``os.getenv``, ``sys.stdin``, ``sys.argv`` or ``sys.exit``
(as an attribute or imported by name), and of the builtins ``print``,
``input`` and ``open``.

A process-wide cache is state that outlives every argument, so the scan of
every source but ``cli.py`` also fails on a ``functools`` cache (``cache``,
``lru_cache`` or ``cached_property``) that ``ALLOWED_CACHES`` does not list
with its written bound.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMAND_LINE = {"cli.py", "__main__.py"}
SOURCES = sorted((ROOT / "src" / "braidlab").glob("*.py"))
LIBRARY = [path for path in SOURCES if path.name not in COMMAND_LINE]
FORBIDDEN_ATTRIBUTES = {
    ("os", "environ"),
    ("os", "getenv"),
    ("sys", "stdin"),
    ("sys", "argv"),
    ("sys", "exit"),
}
FORBIDDEN_BUILTINS = {"print", "input", "open"}
CACHES = {"cache", "lru_cache", "cached_property"}
# Each allowed cache, as module.function, with the bound on what it holds.
ALLOWED_CACHES: dict[str, str] = {}


def impurities(source: str) -> list[str]:
    """The forbidden names ``source`` uses, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in FORBIDDEN_ATTRIBUTES:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                f"{node.module}.{alias.name}"
                for alias in node.names
                if (node.module, alias.name) in FORBIDDEN_ATTRIBUTES
            )
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_BUILTINS:
            found.append(node.id)
    return found


def test_the_scan_sees_each_form():
    source = (
        "import os, sys\n"
        "from os import getenv\n"
        "os.environ.get('X'); sys.stdin.read(); sys.exit(print(open(input())))\n"
    )
    assert sorted(impurities(source)) == sorted(
        ["os.getenv", "os.environ", "sys.stdin", "sys.exit", "print", "open", "input"]
    )
    assert impurities("import os\nos.path.join('a', 'b')\nprinted = 1\n") == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_library_module_is_pure(path):
    assert impurities(path.read_text()) == []


def caches(source: str, module: str) -> list[str]:
    """Each use of a ``functools`` cache in ``source``, in ``ast.walk``
    order: ``module.name`` for a decorator of the function, method or class
    ``name``, ``module:line`` for any other use."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }
    owners = {
        id(part): f"{module}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
        for part in ast.walk(decorator)
    }
    found = []
    for node in ast.walk(tree):
        functools_attribute = (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHES
        )
        if functools_attribute or (isinstance(node, ast.Name) and node.id in imported):
            found.append(owners.get(id(node), f"{module}:{node.lineno}"))
    return found


def test_the_cache_scan_sees_each_form():
    source = (
        "import functools\n"
        "from functools import cache as memo, cached_property\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(): pass\n"
        "class C:\n"
        "    @cached_property\n"
        "    def p(self): pass\n"
        "    @memo\n"
        "    def q(self): pass\n"
        "g = functools.cache(len)\n"
    )
    assert sorted(caches(source, "m")) == ["m.f", "m.p", "m.q", "m:10"]
    assert caches("import functools\nfunctools.reduce(max, [1])\ncache = {}\n", "m") == []


def test_every_cache_is_allowed_with_its_bound():
    found = [
        name
        for path in SOURCES
        if path.name != "cli.py"
        for name in caches(path.read_text(), path.stem)
    ]
    assert sorted(found) == sorted(ALLOWED_CACHES)
