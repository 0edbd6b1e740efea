"""Line counts of the library sources, as tracked by ROADMAP aim 2.

For each ``src/braidlab/*.py`` and in total, prints the ``wc -l`` count (the
newlines in the file) and the code-line count: lines that are not blank, not
a comment and not inside a docstring.  Docstrings are found with ``ast`` (the
string that opens a module, class or function body); a line counts as code
when ``tokenize`` finds a token on it other than a comment, so the inner
lines of any other multi-line string count.

Run from the repository root::

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

SOURCES = pathlib.Path(__file__).resolve().parents[1] / "src" / "braidlab"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that are not blank, a comment or docstring."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main() -> None:
    total_wc = total_code = 0
    print(f"{'file':<16} {'wc -l':>7} {'code':>7}")
    for path in sorted(SOURCES.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16} {wc:>7} {code:>7}")
    print(f"{'total':<16} {total_wc:>7} {total_code:>7}")


if __name__ == "__main__":
    main()
