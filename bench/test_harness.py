"""Smoke test of the benchmark harness: each workload once at tiny sizes.

    python3 -m pytest bench/test_harness.py -q

Checks that every metric listed in ``BENCHMARK.json`` is printed by name with
its unit, that no operation fails, and that a second run of the same seed
reproduces the output digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    return report, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")
               and len(line.split()) >= 3}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert printed["fail_ratio"] == "1"
    fail_line = next(line for line in report if line.startswith("fail_ratio "))
    assert fail_line.split()[1] == "0"


def test_digest_repeats_for_the_same_seed():
    digests = []
    for _ in range(2):
        report, result = _run("probe-search", 0, seed=7)
        assert result["correct"] is True
        digests.append(next(line for line in report if line.startswith("digest ")))
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sign-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
