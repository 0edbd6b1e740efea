"""Every test that the README's register of proved facts names still collects.

The register ("Proved facts the code relies on") gives, for each fact whose
proof replaced run-time work or code, the docstring that proves it and the
tests that pin it.  A renamed or deleted test would leave a fact unpinned
without failing anything, so this test collects the test files the register
names, in a fresh pytest process, and looks each listed id up among the
collected ones.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SECTION = "## Proved facts the code relies on"
TEST_ID = re.compile(r"`(tests/\w+\.py::[\w:]+)`")


def register_rows() -> list[str]:
    """The table rows of the register, header and rule excluded."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(SECTION, 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return rows[2:]


def uncollected(test_ids: list[str]) -> list[str]:
    """The ids, in order, that a collection of their files does not yield."""
    files = sorted({test_id.partition("::")[0] for test_id in test_ids})
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    collected = {line.partition("[")[0] for line in child.stdout.splitlines()}
    return [test_id for test_id in test_ids if test_id not in collected]


def test_every_row_names_a_proof_and_a_test():
    rows = register_rows()
    assert len(rows) >= 8
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split(" | ")]
        assert len(cells) == 4 and all(cells), row
        assert TEST_ID.findall(cells[2]), row


def test_listed_tests_collect():
    test_ids = [test_id for row in register_rows() for test_id in TEST_ID.findall(row)]
    assert uncollected(test_ids) == []


def test_a_missing_test_is_reported():
    gone = "tests/test_probe.py::TestCentralizerCriterion::test_gone"
    kept = "tests/test_probe.py::TestCentralizerCriterion::test_matches_commutes"
    assert uncollected([kept, gone]) == [gone]
