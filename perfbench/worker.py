"""Child process of ``run.py``: runs one workload's operations and measures them.

Usage: ``worker.py --workload NAME --seconds N --trace 0|1 --dir WORKDIR``,
with the repository's ``src`` on ``PYTHONPATH`` and the inputs (plus
``truth.json``) already in WORKDIR. Repeats the workload's operations
until ``--seconds`` would be exceeded (at least once) and prints one JSON
object as its last stdout line.

Operations go through ``sentiq.cli.main`` in this process. With
``--trace 1`` each untraced operation is paired with the same operation
under layer spans (``tracing.run_traced``), so both run the same code on
the same inputs; the pair's order alternates between repetitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from sentiq import cli, profiler
from sentiq.errors import ProfilerError

from clock import calibrate, scaled
from tracing import Tracer, run_traced
from workloads import WORKLOADS, Op, check_outputs

PROFILE_INTERVAL = 0.25  # the CLI's default compare sampling interval
BUSY_PAIRS = 5
BUSY_ITERS = 5_000_000  # several profiler intervals long


def _busy() -> float:
    """Seconds a fixed pure-Python loop takes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(BUSY_ITERS):
        total += i * i
    return time.perf_counter() - t0


def _digests(op: Op) -> dict[str, str]:
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in op.outputs}


def _run_cli(op: Op, main=lambda argv: cli.main(list(argv))) -> list[str]:
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in op.argvs:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:
                code = traceback.format_exc(limit=3)
            if code != 0:
                problems.append(f"{op.name}: sentiq {argv[0]} exited with {code}")
    return problems


class Checker:
    """Output checks: reference counts, and the same digests on every repetition."""

    def __init__(self, truth: dict):
        self.truth = truth
        self.digests: dict[str, dict[str, str]] = dict(truth.get("recorded_digests") or {})
        self.failures: list[str] = []

    def check(self, op: Op, problems: list[str]) -> bool:
        problems = problems + check_outputs(op, Path.cwd(), self.truth)
        if not problems:
            got = _digests(op)
            want = self.digests.setdefault(op.name, got)
            if got != want:
                problems.append(f"{op.name}: output digests {got} differ from {want}")
        self.failures += problems
        return not problems


def profiler_overhead() -> dict:
    """Busy-loop slowdown under a profiler session, when one can start."""
    try:
        probe = profiler.start(PROFILE_INTERVAL)
    except ProfilerError as exc:
        return {"available": False, "reason": str(exc)}
    profiler.stop(probe)
    bare, profiled = [], []
    for _ in range(BUSY_PAIRS):
        bare.append(_busy())
        handle = profiler.start(PROFILE_INTERVAL)
        try:
            profiled.append(_busy())
        finally:
            profiler.stop(handle)
    bare.sort()
    profiled.sort()
    ratio = profiled[BUSY_PAIRS // 2] / bare[BUSY_PAIRS // 2]
    return {"available": True, "overhead_pct": (ratio - 1.0) * 100.0,
            "bare_s": bare, "profiled_s": profiled}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    os.chdir(args.dir)
    workload = WORKLOADS[args.workload]
    checker = Checker(json.loads(Path("truth.json").read_text(encoding="utf-8")))
    tracer = Tracer()
    walls: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    scaled_walls: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    traced_walls: dict[str, list[float]] = {op.name: [] for op in workload.ops}
    cpu: list[float] = []
    cpu_raw: list[float] = []
    counts: list[dict] = []
    attempted = failed = 0

    def _run_traced(op: Op, rep: int, rep_counts: Counter) -> list[str]:
        """The operation under layer spans, timed like the untraced run."""
        op_id = f"{rep}:{op.name}"
        t0 = time.perf_counter()
        problems = _run_cli(op, lambda argv: run_traced(tracer, op_id, argv, rep_counts))
        traced_walls[op.name].append(time.perf_counter() - t0)
        return problems

    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        rep = len(cpu)
        rep_counts: Counter = Counter()
        rep_cpu = raw_cpu = 0.0
        cal = calibrate()
        for op in workload.ops:
            # On odd repetitions the traced run goes first, so neither run
            # always finds the state the other one leaves warm.
            if args.trace and rep % 2:
                failed += not checker.check(op, _run_traced(op, rep, rep_counts))
                attempted += 1
                cal = calibrate()
            t0, c0 = time.perf_counter(), time.process_time()
            problems = _run_cli(op)
            wall, op_cpu = time.perf_counter() - t0, time.process_time() - c0
            cal_after = calibrate()
            walls[op.name].append(wall)
            scaled_walls[op.name].append(scaled(wall, cal[0], cal_after[0]))
            rep_cpu += scaled(op_cpu, cal[1], cal_after[1])
            raw_cpu += op_cpu
            cal = cal_after
            attempted += 1
            failed += not checker.check(op, problems)
            if args.trace and not rep % 2:
                failed += not checker.check(op, _run_traced(op, rep, rep_counts))
                attempted += 1
                cal = calibrate()
        cpu.append(rep_cpu)
        cpu_raw.append(raw_cpu)
        counts.append(dict(rep_counts))
        now = time.perf_counter()
        if now - start + (now - rep_start) > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:20],
        "digests": checker.digests,
        "walls": walls,
        "scaled_walls": scaled_walls,
        "cpu": cpu,
        "cpu_raw": cpu_raw,
    }
    if args.trace:
        result.update(spans=tracer.spans, counts=counts, traced_walls=traced_walls,
                      profiler=profiler_overhead())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
