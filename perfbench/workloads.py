"""The benchmark's workloads: seeded inputs, the CLI operations run on them,
and the checks their outputs must pass.

Every workload runs three operations per repetition, reported as ``op1_s``,
``op2_s`` and ``op3_s``; ``Op.name`` says what each one is on that workload.
All paths are relative to the workload's working directory, so output
bytes (the ``split`` sidecar records its source path) do not depend on where
the checkout lives.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from sentiq import corpus, synth

import noise
from tracing import Tracer

DEFAULT_SEED = 0

# The README quickstart agent grid: 17 actions over 2 x 51 states.
QUICKSTART = {
    "action_min": -8,
    "action_max": 8,
    "price_bucket_width": 500000.0,
    "price_max": 1000000.0,
    "sentiment_bins": 51,
    "seed": 0,
}


@dataclass(frozen=True)
class Op:
    """One user-visible operation: one or more CLI invocations, timed together."""

    name: str
    argvs: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    tweets_per_day: int
    format: str
    ops: tuple[Op, Op, Op]
    configs: dict[str, dict] = field(default_factory=dict)
    noisy: bool = False

    @property
    def tweets_file(self) -> str:
        return f"tweets.{self.format}"


def _train(config: str | None, attribute: str | None, out: str) -> tuple[str, ...]:
    argv = ["train", "--tweets", "tweets.csv", "--prices", "prices.csv", "--out", out]
    if config:
        argv += ["--config", config]
    if attribute:
        argv += ["--attribute", attribute]
    return tuple(argv)


def _predict(model: str) -> Op:
    return Op(
        "predict",
        (
            ("predict", "--model", model, "--tweets", "tweets.csv", "--prices", "prices.csv",
             "--out", "predictions.csv"),
            ("evaluate", "--actual", "prices.csv", "--predicted", "predictions.csv",
             "--out", "evaluate.json"),
        ),
        ("predictions.csv", "evaluate.json"),
    )


def _jsonl(stage: str, out: str, *extra: str) -> tuple[str, ...]:
    return (stage, "--tweets", "tweets.jsonl", "--prices", "prices.csv", "--format", "jsonl",
            *extra, "--out", out)


WORKLOADS = {
    w.name: w
    for w in (
        # Ingest is almost all the work; training is a few milliseconds.
        Workload(
            "race", days=80, tweets_per_day=200, format="csv",
            configs={"agent.cfg": {**QUICKSTART, "episodes": 10}},
            ops=(
                Op("train_classic", (_train("agent.cfg", "none", "classic.model"),),
                   ("classic.model",)),
                Op("train_filtered", (_train("agent.cfg", "followers", "filtered.model"),),
                   ("filtered.model",)),
                _predict("filtered.model"),
            ),
        ),
        # Q-learning is almost all the work: the CLI default grid (1,101
        # actions, a 37 MB table) and the narrow quickstart grid.
        Workload(
            "train", days=75, tweets_per_day=20, format="csv",
            configs={"narrow.cfg": {**QUICKSTART, "episodes": 500}},
            ops=(
                Op("train_wide", (_train(None, None, "wide.model"),), ("wide.model",)),
                Op("train_narrow", (_train("narrow.cfg", None, "narrow.model"),),
                   ("narrow.model",)),
                _predict("wide.model"),
            ),
        ),
        # Texts that need several cleaning passes, read and written as JSONL.
        Workload(
            "noisy", days=60, tweets_per_day=200, format="jsonl", noisy=True,
            ops=(
                Op("preprocess", (_jsonl("preprocess", "cleaned.jsonl"),), ("cleaned.jsonl",)),
                Op("split", (_jsonl("split", "split.jsonl", "--attribute", "followers"),),
                   ("split.jsonl", "split.jsonl.meta.json")),
                Op("sentiment", (_jsonl("sentiment", "signals.csv"),), ("signals.csv",)),
            ),
        ),
    )
}


def make_inputs(workload: Workload, seed: int, directory: Path, tracer: Tracer, op: str) -> dict:
    """Generate and write a workload's inputs; returns the facts the checks need."""
    cfg = synth.SynthConfig(
        days=workload.days, tweets_per_day=workload.tweets_per_day, rho=0.8, seed=seed
    )
    with tracer.span("synth.gen_corpus", op):
        tweets, series = synth.gen_corpus(cfg)
    truth: dict = {"days": len(series), "rows": len(tweets)}
    if workload.noisy:
        with tracer.span("perfbench.noise", op):
            noisy = noise.make_noisy(tweets, series, seed)
        tweets = noisy.records
        truth.update(
            rows=len(tweets),
            noise={"planted": noisy.planted, "duplicates": noisy.duplicates},
            day_sizes=list(noisy.day_sizes),
            kept=sum(noisy.day_sizes),
            top_half=sum((n + 1) // 2 for n in noisy.day_sizes),
        )
    with tracer.span("corpus.write_tweets", op):
        corpus.write_tweets(tweets, directory / workload.tweets_file, format=workload.format)
    with tracer.span("corpus.write_prices", op):
        corpus.write_prices(series, directory / "prices.csv")
    for name, values in workload.configs.items():
        lines = "".join(f"{key} = {value}\n" for key, value in values.items())
        (directory / name).write_text(lines, encoding="utf-8")
    return truth


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def check_outputs(op: Op, directory: Path, truth: dict) -> list[str]:
    """Reference counts an operation's outputs must meet; returns the problems."""
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{op.name}: {what} is {got}, expected {want}")

    for name in op.outputs:
        if not (directory / name).is_file():
            problems.append(f"{op.name}: {name} was not written")
    if problems:
        return problems
    if op.name == "predict":
        expect("prediction rows", len(_csv_rows(directory / "predictions.csv")), truth["days"] - 1)
        report = json.loads((directory / "evaluate.json").read_text(encoding="utf-8"))
        if not all(math.isfinite(v) for v in report.values()):
            problems.append(f"{op.name}: evaluate report has a non-finite metric")
    elif op.name == "preprocess":
        with (directory / "cleaned.jsonl").open(encoding="utf-8") as handle:
            expect("cleaned rows", sum(1 for _ in handle), truth["kept"])
    elif op.name == "split":
        meta = json.loads((directory / "split.jsonl.meta.json").read_text(encoding="utf-8"))
        expect("sidecar tweets", meta["tweets"], truth["top_half"])
        expect("sidecar days", meta["days"], truth["days"])
    elif op.name == "sentiment":
        counts = [int(row[2]) for row in _csv_rows(directory / "signals.csv")]
        expect("per-day tweet counts", counts, truth["day_sizes"])
    return problems
