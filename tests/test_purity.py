"""The library reads nothing and writes nothing outside its arguments.

Only the command line (``cli.py`` and ``__main__.py``) reads the environment,
the standard input or the arguments of the process, prints, or exits.  An
``ast`` scan of every other source in ``src/braidlab/*.py`` fails on a use of
``os.environ``, ``os.getenv``, ``sys.stdin``, ``sys.argv`` or ``sys.exit``
(as an attribute or imported by name), and of the builtins ``print``,
``input`` and ``open``.
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
