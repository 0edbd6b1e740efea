"""Closed-loop benchmark of braidlab, one workload per run.

    python3 bench/run.py --workload sign-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run measures the end-to-end metrics:
one client calls the workload's operation in a closed loop for ``--seconds``
seconds (and at least one full pass over its inputs, and at least 100
operations), then checks every answer outside the timed spans.  With
``--trace 1`` it measures the per-module metrics instead: it runs a fixed
prefix of the inputs untraced and traced, alternately, at least three times,
and then the length sweep of :mod:`sweep`.  Timings are scaled to a
reference host speed by :mod:`calibrate`; the record keeps the raw ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes its full record, with provenance, to
``bench/out/``.  Exit code 0 when a result was printed, 2 when the checkout
has no library to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 100
CALIBRATE_EVERY_S = 0.01
SETUP_LAUNCHES = 5
SETUP_KERNEL_RUNS = 9
TRACE_REPS = 3
MAX_TRACE_REPS = 9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the harness's own test"
    )
    # Internal: the fresh interpreter whose start-up ``setup_s`` times.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fingerprint() -> str:
    """Hash of the library and benchmark sources: the "same code" of a digest."""
    digest = hashlib.sha256()
    for path in sorted(list((SRC / "braidlab").glob("*.py")) + list(BENCH.glob("*.py"))):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _provenance(args) -> dict:
    return {
        "commit": _git_commit(),
        "code_fingerprint": _fingerprint(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until it has imported
    braidlab and braidlab.cli and built this run's inputs: host-scaled and
    raw samples.  Each child times the calibration kernel after it is ready,
    on whichever core it ran, and that scales its sample."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    scaled, raw = [], []
    for _ in range(1 if args.smoke else SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            kernel_s = child.stdout.read()
            child.wait(timeout=120)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        raw.append(ready - start)
        scaled.append(raw[-1] * calibrate.REFERENCE_S / float(kernel_s))
    return scaled, raw


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _call(workload, item):
    try:
        return workload.run(item), None
    except Exception as exc:  # an operation that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


class _Answers:
    """First-pass answers, checked once; every later answer must repeat them."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.texts: list[str | None] = [None] * len(items)
        self.reasons: dict[int, str] = {}
        self._pending: list[tuple[int, object]] = []

    def record(self, k: int, answer, error) -> bool:
        """Store or compare one answer; False when the operation failed."""
        text = f"error: {error}" if error else self.workload.text(answer)
        if self.texts[k] is None:
            self.texts[k] = text
            if error:
                self.reasons[k] = error
            else:
                self._pending.append((k, answer))
            return not error
        if text != self.texts[k]:
            self.reasons.setdefault(k, "answer differs from the first pass")
            return False
        return not error

    def check(self) -> None:
        """Verify the first-pass answers; runs outside every timed span."""
        for k, answer in self._pending:
            reason = self.workload.check(self.items[k], answer)
            if reason:
                self.reasons[k] = reason
        self._pending.clear()

    def digest(self) -> str:
        lines = "".join(f"{k}\t{text}\n" for k, text in enumerate(self.texts))
        return hashlib.sha256(lines.encode()).hexdigest()


def _closed_loop(workload, items, seconds):
    """One client, each operation starting when the previous one returned.

    Between operations, once every ``CALIBRATE_EVERY_S`` of operation time, the
    calibration kernel is timed; each operation's latency is scaled by the
    host speed seen around it (see :mod:`calibrate`).
    """
    answers = _Answers(workload, items)
    latencies, op_inputs, op_ok, op_cal = [], [], [], []
    cal = [calibrate.sample()]
    n = len(items)
    min_ops = max(n, MIN_OPS)
    clock = time.perf_counter
    since_cal = 0.0
    start = clock()
    while True:
        k = len(latencies) % n
        t0 = clock()
        answer, error = _call(workload, items[k])
        t1 = clock()
        latencies.append(t1 - t0)
        op_inputs.append(k)
        op_ok.append(answers.record(k, answer, error))
        since_cal += t1 - t0
        if since_cal >= CALIBRATE_EVERY_S:
            cal.append(calibrate.sample())
            since_cal = 0.0
        op_cal.append(len(cal))
        if len(latencies) >= min_ops and t1 - start >= seconds:
            break
    wall = clock() - start
    cal.append(calibrate.sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    answers.check()
    failed = sum(1 for k, ok in zip(op_inputs, op_ok) if not ok or k in answers.reasons)

    scale = calibrate.scales(cal)
    per_input: list[list[float]] = [[] for _ in items]
    for k, latency, c in zip(op_inputs, latencies, op_cal):
        per_input[k].append(latency * scale[c])
    metrics = _latency_metrics([statistics.median(v) for v in per_input])
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = _latency_metrics(latencies)
    raw["ops_per_s"] = len(latencies) / wall
    extra = {"raw": raw, "calibration_median_s": statistics.median(cal),
             "calibration_samples": len(cal)}
    return metrics, len(latencies), failed, answers, extra


def _latency_metrics(latencies) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_p90_ms": 1000 * _percentile(ordered, 0.9),
    }


def _traced(workload, items, seconds, seed):
    from spans import COUNTERS, LAYERS, RATIOS, Tracer
    import sweep

    prefix = items[: workload.TRACE_OPS]
    answers = _Answers(workload, prefix)
    untraced, traced, runs, scales, op_ok = [], [], [], [], []
    clock = time.perf_counter
    start = clock()

    def one_pass():
        t0 = clock()
        for k, item in enumerate(prefix):
            answer, error = _call(workload, item)
            op_ok.append((k, answers.record(k, answer, error)))
        return clock() - t0

    while len(runs) < TRACE_REPS or (clock() - start < seconds and len(runs) < MAX_TRACE_REPS):
        elapsed, scale = calibrate.around(one_pass)
        untraced.append(elapsed * scale)
        tracer = Tracer()
        try:
            elapsed, scale = calibrate.around(one_pass)
        finally:
            tracer.close()
        traced.append(elapsed * scale)
        runs.append(tracer)
        scales.append(scale)
    answers.check()
    failed = sum(1 for k, ok in op_ok if not ok or k in answers.reasons)

    first = runs[0]
    repeat = all(t.counts == first.counts and t.calls == first.calls for t in runs)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = first.calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(
            t.self_s[layer] * scale for t, scale in zip(runs, scales)
        )
    metrics.update((name, first.counts[name]) for name in COUNTERS)
    metrics.update(
        (name, _ratio(first.counts[part], first.counts[whole]))
        for name, (part, whole) in RATIOS.items()
    )
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics.update(sweep.run(seed))
    extra = {"reps": len(runs), "counts_repeat": repeat, "counts": dict(first.counts)}
    return metrics, len(op_ok), failed, answers, repeat, extra


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _check_digest(key: str, digest: str) -> str | None:
    """Record the digest for ``key``; return the earlier one if it differs."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    earlier = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return earlier if earlier != digest else None


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "braidlab" / "__init__.py").is_file():
        print(f"error: no braidlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidlab
    import braidlab.cli  # noqa: F401  (its import is part of set-up)

    if Path(braidlab.__file__).resolve().parent != (SRC / "braidlab").resolve():
        print(f"error: braidlab was imported from {braidlab.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(args.seed, args.smoke)
        print("ready", flush=True)
        print(statistics.median(calibrate.sample() for _ in range(SETUP_KERNEL_RUNS)))
        return 0

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in listed["per_layer" if args.trace else "end_to_end"]}
    provenance = _provenance(args)
    record = {"provenance": provenance}
    if args.trace:
        items = workload.build(args.seed, args.smoke)
        metrics, attempted, failed, answers, repeat, extra = _traced(
            workload, items, args.seconds, args.seed
        )
        record.update(extra)
        samples = {}
    else:
        setup, setup_raw = _measure_setup(args)
        items = workload.build(args.seed, args.smoke)
        metrics, attempted, failed, answers, extra = _closed_loop(workload, items, args.seconds)
        record.update(extra)
        metrics["setup_s"] = statistics.median(setup)
        repeat = True
        samples = {name: attempted for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")}
        samples["setup_s"] = len(setup)
        record["setup_samples_s"] = setup
        record["setup_raw_samples_s"] = setup_raw

    digest = answers.digest()
    key = (f"{args.workload}|seed={args.seed}|trace={args.trace}|smoke={args.smoke}"
           f"|code={provenance['code_fingerprint']}")
    earlier = _check_digest(key, digest)
    correct = failed == 0 and earlier is None and repeat

    print(f"# braidlab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()
                                      if k in ("commit", "code_fingerprint", "python", "nproc",
                                               "loadavg_at_start")))
    for name in units:
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{n}")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed}/{attempted})")
    print(f"digest {args.workload} seed={args.seed} sha256={digest} "
          f"({len(answers.texts)} answers of the first pass)")
    if earlier is not None:
        print(f"error: digest differs from an earlier run of the same code: {earlier}")
    if not repeat:
        print("error: counts differ between traced repetitions")
    for k, reason in sorted(answers.reasons.items())[:5]:
        print(f"failure: input {k}: {reason}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        {
            "result": result,
            "samples": samples,
            "fail_ratio": failed / attempted,
            "digest": digest,
            "failures": {str(k): r for k, r in sorted(answers.reasons.items())},
        }
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
