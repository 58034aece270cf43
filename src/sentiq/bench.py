"""Classic-vs-filtered pipeline comparison under a resource profiler.

Two end-to-end pipelines are compared on the same corpus, sequentially,
each inside its own profiling session sampling every
:data:`PROFILE_INTERVAL` seconds:

* **classic** — clean, dedup, and score every tweet of every day;
* **proposed** — rank each day's raw bucket by followers first (integer
  sort, no text work), then clean, dedup, and score only the kept top half.

``tweets_utilized`` counts tweets pulled through the clean+score stage, so
the proposed pipeline does roughly half the text work per day by
construction.

Two modes share one run loop:

* :func:`run_fixed_time` gives each pipeline the same wall-clock budget,
  spent first on per-day ingestion and then on training episodes until the
  configured schedule completes; the budget is checked at day and episode
  boundaries against an injectable monotonic clock (inject a fake clock to
  make runs bit-reproducible).
* :func:`run_to_target` trains from an all-zero table until the held-out
  accuracy reaches a target (checked before every episode, so one already
  met returns after 0 episodes) or the timeout lapses, flagging it unconverged.

Accuracy is variance-accounted-for on a chronological held-out tail.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import profiler
from .attributes import Attribute, rank_and_halve
from .corpus import DayBucket, PriceSeries, TweetRecord, bucket_by_day
from .errors import SentiqError
from .metrics import MetricError, vaf
from .preprocess import clean_bucket, dedup
from .qlearn import (
    CDR,
    REWARD_KINDS,
    AgentConfig,
    QModel,
    epsilon_at,
    predict_series,
    run_episode,
    training_days,
)
from .sentiment import DailySignal, Lexicon, daily_signal


PROFILE_INTERVAL = 0.25  # seconds between resource samples


class BenchError(SentiqError):
    """Invalid benchmark configuration or corpus too small to compare."""


@dataclass(frozen=True)
class BenchConfig:
    """Comparison knobs: agent settings plus split and timeout."""

    agent: AgentConfig = AgentConfig()
    reward: str = CDR
    train_frac: float = 0.7
    timeout_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.reward not in REWARD_KINDS:
            raise BenchError(f"unknown reward kind {self.reward!r}")
        if not 0.0 < self.train_frac < 1.0:
            raise BenchError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if not self.timeout_seconds > 0:
            raise BenchError(f"timeout_seconds must be positive, got {self.timeout_seconds}")


def split_point(n_days: int, train_frac: float) -> int:
    """Chronological cut index: at least 3 training days and 2 held-out days."""
    if n_days < 5:
        raise BenchError(f"need at least 5 aligned days to split, got {n_days}")
    cut = int(n_days * train_frac)
    return min(max(cut, 3), n_days - 2)


def chronological_split(
    series: PriceSeries, signals: Sequence[DailySignal], train_frac: float
) -> tuple[PriceSeries, tuple[DailySignal, ...], PriceSeries, tuple[DailySignal, ...]]:
    """Split into training head and held-out tail.

    The tail starts on the last training day so the first held-out
    prediction has a prior-day state; score held-out accuracy against
    ``test_series.prices[1:]``.
    """
    cut = split_point(len(series), train_frac)
    return (
        series.slice(0, cut),
        tuple(signals[:cut]),
        series.slice(cut - 1, len(series)),
        tuple(signals[cut - 1 :]),
    )


@dataclass(frozen=True)
class ApproachResult:
    """One pipeline's outcome within a comparison."""

    approach: str
    tweets_utilized: int
    wall_seconds: float
    episodes_run: int
    final_vaf: float
    converged: bool | None
    predictions: tuple[float, ...]
    test_prices: tuple[float, ...]
    resources: profiler.ResourceReport

    def to_dict(self) -> dict:
        return {
            "approach": self.approach,
            "tweets_utilized": self.tweets_utilized,
            "wall_seconds": self.wall_seconds,
            "episodes_run": self.episodes_run,
            "final_vaf": self.final_vaf,
            "converged": self.converged,
            "resources": self.resources.to_dict(),
        }


@dataclass(frozen=True)
class ComparisonReport:
    mode: str
    budget_seconds: float | None
    target_vaf: float | None
    classic: ApproachResult
    proposed: ApproachResult

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "budget_seconds": self.budget_seconds,
            "target_vaf": self.target_vaf,
            "classic": self.classic.to_dict(),
            "proposed": self.proposed.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _ingest_day(bucket: DayBucket, lexicon: Lexicon, filtered: bool) -> tuple[DailySignal, int]:
    if filtered:
        bucket = rank_and_halve(bucket, Attribute.FOLLOWERS)
    utilized = len(bucket.tweets)
    cleaned, _ = clean_bucket(bucket)
    (deduped,) = dedup((cleaned,))
    return daily_signal(deduped, lexicon), utilized


def _held_out(model: QModel, test_series: PriceSeries, test_signals) -> tuple[tuple, float]:
    """Predictions for the held-out tail and their VAF (NaN when VAF is undefined)."""
    predictions = predict_series(model, test_series, test_signals)
    try:
        return predictions, vaf(test_series.prices[1:], predictions)
    except MetricError:
        return predictions, float("nan")


def _run_approach(
    approach: str,
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    cfg: BenchConfig,
    seconds: float,
    target_vaf: float | None,
    clock: Callable[[], float],
) -> ApproachResult:
    session = profiler.start(PROFILE_INTERVAL)
    t0 = clock()
    deadline = t0 + seconds

    signals: list[DailySignal] = []
    utilized = 0
    for bucket in bucket_by_day(records, series):
        if clock() >= deadline:
            break
        signal, n = _ingest_day(bucket, lexicon, filtered=(approach == "proposed"))
        signals.append(signal)
        utilized += n

    agent = cfg.agent
    model = QModel.zeros(
        agent,
        reward=cfg.reward,
        attribute=Attribute.FOLLOWERS.value if approach == "proposed" else None,
    )
    episodes_run = 0
    converged: bool | None = None
    predictions: tuple[float, ...] = ()
    test_prices: tuple[float, ...] = ()
    final = float("nan")

    if len(signals) >= 5:
        train_series, train_signals, test_series, test_signals = chronological_split(
            series.slice(0, len(signals)), signals, cfg.train_frac
        )
        days = training_days(train_series, train_signals, agent)
        rng = np.random.default_rng(agent.seed)
        while True:
            if target_vaf is not None:
                converged = _held_out(model, test_series, test_signals)[1] >= target_vaf
                if converged:
                    break
            if clock() >= deadline or (target_vaf is None and episodes_run >= agent.episodes):
                break
            run_episode(model, days, cfg.reward, epsilon_at(agent, episodes_run), rng)
            episodes_run += 1
        predictions, final = _held_out(model, test_series, test_signals)
        test_prices = test_series.prices[1:]

    return ApproachResult(
        approach=approach,
        tweets_utilized=utilized,
        wall_seconds=clock() - t0,
        episodes_run=episodes_run,
        final_vaf=final,
        converged=converged,
        predictions=predictions,
        test_prices=test_prices,
        resources=profiler.stop(session),
    )


def _compare(
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    cfg: BenchConfig,
    seconds: float,
    target_vaf: float | None,
    clock: Callable[[], float],
) -> ComparisonReport:
    classic = _run_approach("classic", records, series, lexicon, cfg, seconds, target_vaf, clock)
    proposed = _run_approach("proposed", records, series, lexicon, cfg, seconds, target_vaf, clock)
    if target_vaf is None:
        return ComparisonReport("fixed_time", seconds, None, classic, proposed)
    return ComparisonReport("to_target", None, target_vaf, classic, proposed)


def run_fixed_time(
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    budget_seconds: float,
    cfg: BenchConfig = BenchConfig(),
    *,
    clock: Callable[[], float] = time.monotonic,
) -> ComparisonReport:
    """Give both pipelines the same wall-clock budget and report both."""
    if not budget_seconds > 0:
        raise BenchError(f"budget_seconds must be positive, got {budget_seconds}")
    return _compare(records, series, lexicon, cfg, budget_seconds, None, clock)


def run_to_target(
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    target_vaf: float,
    cfg: BenchConfig = BenchConfig(),
    *,
    clock: Callable[[], float] = time.monotonic,
) -> ComparisonReport:
    """Train both pipelines until held-out accuracy reaches ``target_vaf``.

    Results hitting ``cfg.timeout_seconds`` first are flagged unconverged;
    ``cfg.agent.episodes`` sets the epsilon schedule, not an episode cap.
    """
    if not math.isfinite(target_vaf):
        raise BenchError(f"target_vaf must be finite, got {target_vaf}")
    return _compare(records, series, lexicon, cfg, cfg.timeout_seconds, target_vaf, clock)
