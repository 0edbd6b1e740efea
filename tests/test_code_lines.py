"""The code-line rule of ``tools/code_lines.py`` on a small source."""

from __future__ import annotations

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment keeps the line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return text

    async def g(self):
        "One-line docstring."
        # Indented comment.
        return (
            1
        )
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    tool = load_tool()
    # import, class, def f, the two lines of `text` and its return,
    # async def g and the three lines of its return.
    assert tool.code_lines(SOURCE) == 10
    assert tool.code_lines("") == 0
    assert tool.code_lines('"""Only a docstring."""\n') == 0


def test_report_rows_sum_to_the_total(capsys):
    load_tool().main()
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", "wc", "-l", "code"]
    assert "dehornoy.py" in {row.split()[0] for row in rows}
    sums = [sum(int(row.split()[k]) for row in rows) for k in (1, 2)]
    assert total.split() == ["total", *map(str, sums)]
