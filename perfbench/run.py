"""sentiq benchmark: time the CLI stages users run, on seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload race --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``), three operations each:

* ``race``  - train --attribute none, train --attribute followers,
  predict + evaluate on the filtered model (CSV, ingest-bound);
* ``train`` - train on the CLI default grid, train on the narrow
  quickstart grid, predict + evaluate on the wide model (Q-learning-bound);
* ``noisy`` - preprocess, split --attribute followers, sentiment on a
  noisy JSONL corpus (cleaning-bound).

The inputs are generated from ``--seed`` five times (``setup_s`` is the
median). The operations then run in a fresh child process, repeated until
``--seconds`` would be exceeded. Every operation's outputs are checked:
exit code, reference counts, the same sha256 on every repetition, and on
the default seed the digests recorded in ``digests.json``.

``--trace 0`` reports the end-to-end metrics: ``op1_s``..``op3_s`` (median
wall seconds of each operation), ``cpu_s`` (process CPU per repetition),
``peak_rss_mb`` (of the child) and ``setup_s``. The times are in reference
seconds (see ``clock.py``): each interval is scaled by a fixed loop timed
just before and after it, which removes most of a shared host's speed
drift; ``cpu_s`` is scaled by the loop's CPU time in the same way. Raw
seconds are in the detail line. ``--trace 1`` also runs each operation
through ``sentiq.cli.main`` with a span around every layer call it makes
(``tracing.py``), and reports per-layer self times, counts and ratios,
``cli.unaccounted_s`` and the tracing overhead (the traced runs' median
wall time minus the untraced runs', per operation); a layer that does not
run on the workload reports 0. The traced runs' wall time includes
working out the counts, so the overhead is the full cost of tracing. The
last stdout line is the result JSON; the line before it holds run
metadata and per-operation detail. Spans are written to
``perfbench/.work/<workload>/spans.jsonl``.

``sentiq.bench`` and ``sentiq compare`` are never called: they need a
working ``sentiq.profiler``. The profiler's overhead is measured only when
``sentiq.profiler.start`` succeeds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 5
DEADLINE_S = 170.0

# Layer spans reported as ``<span>_s``: summed self time per repetition.
LAYER_SPANS = (
    "corpus.load_tweets", "corpus.bucket_by_day", "corpus.write_tweets",
    "preprocess.clean", "preprocess.dedup", "attributes.filter", "sentiment.score",
    "qlearn.train", "qlearn.save_model", "qlearn.load_model", "qlearn.predict",
    "metrics.evaluate",
)
LAYER_COUNTS = (
    "corpus.rows_read", "corpus.rows_dropped_window", "corpus.bytes_read",
    "corpus.bytes_written", "preprocess.tweets_cleaned", "preprocess.dropped_empty",
    "preprocess.dropped_duplicate", "sentiment.tweets_scored", "qlearn.steps",
    "qlearn.table_bytes",
)
# (metric, numerator, denominator, scale); numerators ending in _s are span times.
LAYER_RATIOS = (
    ("corpus.us_per_row", "corpus.load_tweets_s", "corpus.rows_read", 1e6),
    ("preprocess.us_per_tweet", "preprocess.clean_s", "preprocess.tweets_cleaned", 1e6),
    ("preprocess.changed_ratio", "preprocess.changed", "preprocess.tweets_cleaned", 1.0),
    ("attributes.kept_ratio", "attributes.tweets_kept", "attributes.tweets_in", 1.0),
    ("sentiment.hit_ratio", "sentiment.hits", "sentiment.tokens", 1.0),
    ("qlearn.us_per_step", "qlearn.train_s", "qlearn.steps", 1e6),
)
BENCH_LAYER = (
    "not measured: sentiq.bench and `sentiq compare` run both pipelines under "
    "sentiq.profiler, which fails without psutil; the CLI stages they time are timed here"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(workload, seed: int, truth: dict) -> dict:
    import numpy
    import sentiq

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sentiq": sentiq.__version__,
        "git_commit": _git_commit(),
        "psutil_importable": importlib.util.find_spec("psutil") is not None,
        "seed": seed,
        "sizes": {"days": workload.days, "tweets_per_day": workload.tweets_per_day,
                  "rows": truth["rows"], "format": workload.format},
    }


def _setup(workload, seed: int, work: Path, tracer) -> tuple[list[tuple], dict, list[str]]:
    """Make the inputs SETUPS times; they must come out byte-identical.

    Returns (raw, scaled) seconds per setup, the checks' facts, and failures.
    """
    from clock import calibrate, scaled
    from workloads import make_inputs

    times, digests, failures = [], None, []
    cal = calibrate()
    for i in range(SETUPS):
        t0 = time.perf_counter()
        with tracer.span("setup", f"setup:{i}"):
            truth = make_inputs(workload, seed, work, tracer, f"setup:{i}")
        elapsed = time.perf_counter() - t0
        cal_after = calibrate()
        times.append((elapsed, scaled(elapsed, cal[0], cal_after[0])))
        cal = cal_after
        got = {p.name: _sha256(p) for p in sorted(work.iterdir())}
        if digests is not None and got != digests:
            failures.append(f"setup {i}: inputs differ from setup 0")
        digests = got
    return times, truth, failures


def _run_worker(args, work: Path, deadline: float) -> tuple[dict | None, float, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", str(work)]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, 0.0, "worker timed out"
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, peak_mb, f"worker exited with {proc.returncode}: {err[-2000:]}"
    return json.loads(lines[-1]), peak_mb, ""


def _per_layer(result: dict, setup_spans: list[dict]) -> tuple[dict, dict]:
    from tracing import self_times

    spans = result["spans"]
    own = self_times(spans)
    reps = [Counter(c) for c in result["counts"]]
    ops: dict[str, list[Counter]] = {name: [Counter() for _ in reps] for name in result["walls"]}
    for s in spans:
        rep, op = s["op"].split(":", 1)
        if s["name"].startswith("cli."):
            ops[op][int(rep)]["unaccounted_s"] += own[s["id"]]
        else:
            reps[int(rep)][s["name"] + "_s"] += own[s["id"]]
    for i, values in enumerate(reps):
        values["cli.unaccounted_s"] = sum(op[i]["unaccounted_s"] for op in ops.values())
        for metric, num, den, scale in LAYER_RATIOS:
            values[metric] = values[num] / values[den] * scale if values[den] else 0.0

    setup_own = self_times(setup_spans)
    setups = [Counter() for _ in range(SETUPS)]
    for s in setup_spans:
        setups[int(s["op"].split(":")[1])][s["name"]] += setup_own[s["id"]]

    def median(key: str, rows) -> float:
        return statistics.median(row[key] for row in rows)

    metrics = {
        "synth.gen_corpus_s": median("synth.gen_corpus", setups),
        "corpus.setup_write_s": statistics.median(
            s["corpus.write_tweets"] + s["corpus.write_prices"] for s in setups
        ),
    }
    for key in (tuple(name + "_s" for name in LAYER_SPANS) + LAYER_COUNTS
                + tuple(r[0] for r in LAYER_RATIOS) + ("cli.unaccounted_s",)):
        metrics[key] = median(key, reps)
    overhead = {
        name: statistics.median(result["traced_walls"][name]) - statistics.median(walls)
        for name, walls in result["walls"].items()
    }
    metrics["trace.overhead_s"] = sum(overhead.values())
    prof = result["profiler"]
    metrics["profiler.available"] = int(prof["available"])
    metrics["profiler.overhead_pct"] = prof.get("overhead_pct", 0.0)

    detail = {
        "layer_self_s": {k: median(k, reps)
                         for k in sorted({k for rep in reps for k in rep if k.endswith("_s")})},
        "setup_self_s": {k: median(k, setups) for k in sorted({k for s in setups for k in s})},
        "op_trace": {
            name: {"unaccounted_s": median("unaccounted_s", rows), "overhead_s": overhead[name]}
            for name, rows in ops.items()
        },
        "profiler": prof,
        "bench": {"measured": False, "reason": BENCH_LAYER},
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "sentiq" / "__init__.py").is_file():
        return _fail(f"no sentiq sources at {SRC}; run from a sentiq checkout")
    sys.path.insert(0, str(SRC))
    import sentiq

    if not Path(sentiq.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported sentiq from {sentiq.__file__}, not from {SRC}")
    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    work = BENCH / ".work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    setup_times, truth, failures = _setup(workload, seed, work, tracer)
    if seed == DEFAULT_SEED:
        recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        truth["recorded_digests"] = recorded.get(workload.name)
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")

    result, peak_mb, error = _run_worker(args, work, deadline)
    if result is None:
        return _fail(error)
    attempted = SETUPS + result["attempted"]
    failed = len(failures) + result["failed"]
    failures += result["failures"]

    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "meta": _metadata(workload, seed, truth),
        "repetitions": len(result["cpu"]),
        "ops": {f"op{i}_s": op.name + "_s" for i, op in enumerate(workload.ops, start=1)},
        "op_raw_s": result["walls"],
        "op_scaled_s": result["scaled_walls"],
        "cpu_raw_s": result["cpu_raw"],
        "cpu_scaled_s": result["cpu"],
        "setup_raw_s": [raw for raw, _ in setup_times],
        "setup_scaled_s": [cooked for _, cooked in setup_times],
        "noise": truth.get("noise"),
        "digests": result["digests"],
        "failures": failures,
    }
    if args.trace:
        metrics, layer_detail = _per_layer(result, tracer.spans)
        detail.update(layer_detail)
        with (work / "spans.jsonl").open("w", encoding="utf-8") as handle:
            for process, spans in (("run", tracer.spans), ("worker", result["spans"])):
                for span in spans:
                    handle.write(json.dumps({"process": process, **span}) + "\n")
    else:
        metrics = {
            f"op{i}_s": statistics.median(result["scaled_walls"][op.name])
            for i, op in enumerate(workload.ops, start=1)
        }
        metrics.update(
            cpu_s=statistics.median(result["cpu"]),
            peak_rss_mb=peak_mb,
            setup_s=statistics.median(cooked for _, cooked in setup_times),
        )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        return _fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(unit_of)}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
