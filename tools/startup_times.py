"""Wall time of whole ``sentiq`` processes, startup included, for one or more source trees.

perfbench runs its operations inside one process, so it never sees what a
command pays before it does any work: the interpreter, the imports and the
argument parser. This script starts each command as a new process, ``--runs``
times per tree, alternating the trees within every round, and prints JSON with
each command's minimum and median wall seconds per tree.

    python tools/startup_times.py --runs 15 parent=../parent/src change=src

The inputs are written once, with the first tree's ``sentiq synth``: a
race-sized corpus (80 days x 200 tweets, CSV) for ``train`` and ``evaluate``,
and a noisy-sized one (60 days x 200 tweets, JSONL) for ``preprocess``,
``split`` and ``sentiment``. ``help`` is ``sentiq --help``: startup alone.
Every run must exit 0, and every tree must write the same output bytes.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The README quickstart grid, 10 episodes: race's agent.
AGENT = (
    "action_min = -8\naction_max = 8\nprice_bucket_width = 500000\nprice_max = 1000000\n"
    "sentiment_bins = 51\nepisodes = 10\n"
)
JSONL = ("--tweets", "noisy.jsonl", "--prices", "noisy_prices.csv", "--format", "jsonl")
RACE = ("--tweets", "race.csv", "--prices", "race_prices.csv")
# name -> (argv, the files it writes)
COMMANDS = {
    "help": (("--help",), ()),
    "preprocess": (("preprocess", *JSONL, "--out", "cleaned.jsonl"), ("cleaned.jsonl",)),
    "split": (
        ("split", *JSONL, "--attribute", "followers", "--out", "split.jsonl"),
        ("split.jsonl", "split.jsonl.meta.json"),
    ),
    "sentiment": (("sentiment", *JSONL, "--out", "signals.csv"), ("signals.csv",)),
    "train": (
        ("train", "--config", "agent.cfg", *RACE, "--attribute", "followers", "--out", "m.model"),
        ("m.model",),
    ),
    "evaluate": (
        ("evaluate", "--actual", "race_prices.csv", "--predicted", "predictions.csv",
         "--out", "evaluate.json"),
        ("evaluate.json",),
    ),
}


def sentiq(src: str, argv, cwd: Path) -> float:
    """Run ``python -m sentiq.cli *argv`` on ``src``; returns its wall seconds."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sentiq.cli", *argv], cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"sentiq {' '.join(argv)} on {src} exited {proc.returncode}: {proc.stderr}")
    return wall


def write_inputs(src: str, work: Path) -> None:
    sentiq(src, ["synth", "--days", "80", "--tweets-per-day", "200", "--seed", "0",
                 "--out-tweets", "race.csv", "--out-prices", "race_prices.csv"], work)
    sentiq(src, ["synth", "--days", "60", "--tweets-per-day", "200", "--seed", "0",
                 "--format", "jsonl", "--out-tweets", "noisy.jsonl",
                 "--out-prices", "noisy_prices.csv"], work)
    (work / "agent.cfg").write_text(AGENT, encoding="utf-8")
    sentiq(src, ["train", "--config", "agent.cfg", *RACE, "--out", "p.model"], work)
    sentiq(src, ["predict", "--model", "p.model", *RACE, "--out", "predictions.csv"], work)


def digest(work: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="NAME=SRC", help="a name and a src directory")
    parser.add_argument("--runs", type=int, default=15, help="processes per command and tree")
    args = parser.parse_args()
    trees = dict(tree.split("=", 1) for tree in args.trees)
    trees = {name: str(Path(src).resolve()) for name, src in trees.items()}
    walls = {command: {name: [] for name in trees} for command in COMMANDS}
    outputs: dict[str, dict[str, dict[str, str]]] = {command: {} for command in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(next(iter(trees.values())), work)
        for round_ in range(args.runs):
            for command, (argv, written) in COMMANDS.items():
                order = list(trees.items())
                if round_ % 2:
                    order.reverse()
                for name, src in order:
                    walls[command][name].append(sentiq(src, argv, work))
                    if round_ == 0:
                        outputs[command][name] = digest(work, written)
    report = {
        "python": platform.python_version(),
        "runs": args.runs,
        "trees": trees,
        "same_outputs": all(
            len({json.dumps(d, sort_keys=True) for d in per_tree.values()}) == 1
            for per_tree in outputs.values()
        ),
        "commands": {
            command: {
                name: {
                    "min_s": min(values),
                    "median_s": statistics.median(values),
                    "wall_s": [round(v, 5) for v in values],
                }
                for name, values in per_tree.items()
            }
            for command, per_tree in walls.items()
        },
    }
    print(json.dumps(report, indent=1))
    return 0 if report["same_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
