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

One call, :func:`compare`, runs the race that a :class:`BenchConfig`
describes. Each pipeline gets ``seconds`` of wall clock, checked at day and
episode boundaries against an injectable monotonic clock (inject a fake
clock to make runs bit-reproducible), and spends it first on per-day
ingestion and then on training episodes from an all-zero table:

* without ``target_vaf``, until the configured schedule completes;
* with ``target_vaf``, until the held-out accuracy reaches it (checked
  before every episode, so one already met returns after 0 episodes); a
  pipeline whose time runs out first is flagged unconverged.

Accuracy is variance-accounted-for on a chronological held-out tail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import profiler
from .attributes import Attribute
# Defined in the numpy-free .config, so the CLI can read its fields; exported here too.
from .config import BenchConfig, BenchError
from .corpus import PriceSeries, TweetRecord, bucket_by_day
from .metrics import MetricError, vaf
from .qlearn import QModel, TrainingDays, _Learner, predict_days, training_days
from .sentiment import DailySignal, Lexicon, day_signal


PROFILE_INTERVAL = 0.25  # seconds between resource samples


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
    """One pipeline's outcome within a comparison.

    ``final_vaf`` is NaN when the held-out VAF is undefined; ``to_dict`` gives ``None``.
    ``converged`` is ``None`` without a target, else whether ``final_vaf`` meets it.
    ``wall_seconds`` and ``cpu_seconds`` start when :func:`compare` starts this
    approach, after the caller has read the tweet and price files (``sentiq
    compare`` reads them once, before either approach), so neither includes reading them.
    """

    approach: str
    tweets_utilized: int
    wall_seconds: float
    cpu_seconds: float
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
            "cpu_seconds": self.cpu_seconds,
            "episodes_run": self.episodes_run,
            "final_vaf": self.final_vaf if math.isfinite(self.final_vaf) else None,
            "converged": self.converged,
            "resources": self.resources.to_dict(),
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Both approaches' results; ``seconds`` bounded each one, with or without a target."""

    seconds: float
    target_vaf: float | None
    classic: ApproachResult
    proposed: ApproachResult

    def to_dict(self) -> dict:
        return {
            "seconds": self.seconds,
            "target_vaf": self.target_vaf,
            "classic": self.classic.to_dict(),
            "proposed": self.proposed.to_dict(),
        }


def _held_out(model: QModel, days: TrainingDays) -> tuple[tuple, float]:
    """Predictions for the held-out tail and their VAF (NaN when VAF is undefined)."""
    predictions = predict_days(model, days)
    try:
        return predictions, vaf(days.prices[1:], predictions)
    except MetricError:
        return predictions, float("nan")


def _run_approach(
    attribute: Attribute | None,
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    cfg: BenchConfig,
    clock: Callable[[], float],
) -> ApproachResult:
    cpu0 = time.process_time()
    session = profiler.start(PROFILE_INTERVAL)
    t0 = clock()
    deadline = t0 + cfg.seconds
    target_vaf = cfg.target_vaf

    signals: list[DailySignal] = []
    utilized = 0
    for bucket in bucket_by_day(records, series):
        if clock() >= deadline:
            break
        signal, n = day_signal(bucket, attribute, lexicon)
        signals.append(signal)
        utilized += n

    agent = cfg.agent
    episodes_run = 0
    predictions: tuple[float, ...] = ()
    test_prices: tuple[float, ...] = ()
    final = float("nan")

    if len(signals) >= 5:
        train_series, train_signals, test_series, test_signals = chronological_split(
            series.slice(0, len(signals)), signals, cfg.train_frac
        )
        days = training_days(train_series, train_signals, agent)
        test_days = training_days(test_series, test_signals, agent)
        model = QModel.zeros(agent, reward=cfg.reward, attribute=attribute)
        learner = _Learner(model, days)
        # A NaN held-out VAF never meets the target.
        while target_vaf is None or not _held_out(model, test_days)[1] >= target_vaf:
            if clock() >= deadline or (target_vaf is None and episodes_run >= agent.episodes):
                break
            learner.episode()
            episodes_run += 1
        predictions, final = _held_out(model, test_days)
        test_prices = test_days.prices[1:]

    return ApproachResult(
        approach="classic" if attribute is None else "proposed",
        tweets_utilized=utilized,
        wall_seconds=clock() - t0,
        # Process CPU time, so the sampler thread's share is in it.
        cpu_seconds=time.process_time() - cpu0,
        episodes_run=episodes_run,
        final_vaf=final,
        converged=None if target_vaf is None else final >= target_vaf,
        predictions=predictions,
        test_prices=test_prices,
        resources=profiler.stop(session),
    )


def compare(
    records: Sequence[TweetRecord],
    series: PriceSeries,
    lexicon: Lexicon,
    cfg: BenchConfig = BenchConfig(),
    *,
    clock: Callable[[], float] = time.monotonic,
) -> ComparisonReport:
    """Run the classic then the filtered pipeline under ``cfg`` and report both.

    With ``cfg.target_vaf`` set, ``cfg.agent.episodes`` sets the epsilon
    schedule, not an episode cap.
    """
    classic = _run_approach(None, records, series, lexicon, cfg, clock)
    proposed = _run_approach(Attribute.FOLLOWERS, records, series, lexicon, cfg, clock)
    return ComparisonReport(cfg.seconds, cfg.target_vaf, classic, proposed)
