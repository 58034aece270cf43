"""The run settings: the agent's, the generator's and the comparison's.

:class:`AgentConfig` (:mod:`.qlearn`), :class:`SynthConfig` (:mod:`.synth`)
and :class:`BenchConfig` (:mod:`.bench`) live here, with their errors and the
reward kinds, so that the CLI can derive its settings from their fields
without importing numpy; each of those modules re-exports its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .corpus import CorpusError, round_price
from .errors import SentiqError, check_int_fields


class QLearnError(SentiqError):
    """Invalid agent configuration or out-of-range state inputs."""


class SynthError(SentiqError):
    """Invalid generator configuration."""


class BenchError(SentiqError):
    """Invalid benchmark configuration or corpus too small to compare."""


SDR = "sdr"
RDR = "rdr"
CDR = "cdr"
REWARD_KINDS = (SDR, RDR, CDR)


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters and discretization grid for the predictor.

    ``action_min``/``action_max`` bound the percent moves the agent may pick;
    the default floor of -100 keeps predictions non-negative, and wider
    ranges are honored with the prediction clamped at zero. ``sentiment_bins = 1``
    ignores the sentiment signal: every compound lands in bin 0.
    """

    gamma: float = 0.95
    theta: float = 0.1
    action_min: int = -100
    action_max: int = 1000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    episodes: int = 500
    price_bucket_width: float = 500.0
    price_max: float = 100_000.0
    sentiment_bins: int = 21
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_fields(self, QLearnError)
        if not 0.0 <= self.gamma <= 1.0:
            raise QLearnError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.theta <= 1.0:
            raise QLearnError(f"theta must be in (0, 1], got {self.theta}")
        if self.action_min >= self.action_max:
            raise QLearnError(
                f"action_min {self.action_min} must be below action_max {self.action_max}"
            )
        for name in ("epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise QLearnError(f"{name} must be in [0, 1], got {value}")
        if self.epsilon_end > self.epsilon_start:
            raise QLearnError(
                f"epsilon_end {self.epsilon_end} must not exceed epsilon_start {self.epsilon_start}"
            )
        if self.episodes < 1:
            raise QLearnError(f"episodes must be >= 1, got {self.episodes}")
        if not self.price_bucket_width > 0:
            raise QLearnError(f"price_bucket_width must be positive, got {self.price_bucket_width}")
        if not math.isfinite(self.price_max):
            raise QLearnError(f"price_max must be finite, got {self.price_max}")
        if not self.price_max > self.price_bucket_width:
            raise QLearnError(
                f"price_max {self.price_max} must exceed price_bucket_width {self.price_bucket_width}"
            )
        if not math.isfinite(self.price_max / self.price_bucket_width):
            raise QLearnError(
                f"price_max / price_bucket_width must be finite, "
                f"got {self.price_max} / {self.price_bucket_width}"
            )
        if self.sentiment_bins < 1 or self.sentiment_bins % 2 == 0:
            raise QLearnError(f"sentiment_bins must be odd and positive, got {self.sentiment_bins}")
        n_price, n_sentiment, n_actions = self.table_shape
        if n_price * n_sentiment * n_actions * 8 > sys.maxsize:
            raise QLearnError(
                f"price_max / price_bucket_width, sentiment_bins and action_min..action_max give "
                f"a {n_price:.3g} x {n_sentiment} x {n_actions} Q-table, over sys.maxsize bytes"
            )
        if not 0 <= self.seed < 2**64:
            raise QLearnError("seed must be an unsigned 64-bit integer")

    @property
    def n_actions(self) -> int:
        return self.action_max - self.action_min + 1

    @property
    def table_shape(self) -> tuple[int, int, int]:
        """The Q-table's (price bins, sentiment bins, actions)."""
        return -int(-self.price_max // self.price_bucket_width), self.sentiment_bins, self.n_actions


@dataclass(frozen=True)
class SynthConfig:
    days: int = 100
    tweets_per_day: int = 50
    rho: float = 0.8
    base_price: float = 20_000.0
    daily_vol: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_fields(self, SynthError)
        if self.days < 2:
            raise SynthError(f"days must be >= 2, got {self.days}")
        if self.tweets_per_day < 1:
            raise SynthError(f"tweets_per_day must be >= 1, got {self.tweets_per_day}")
        if not 0.0 <= self.rho <= 1.0:
            raise SynthError(f"rho must be in [0, 1], got {self.rho}")
        if not (self.base_price > 0 and math.isfinite(self.base_price)):
            raise SynthError(f"base_price must be positive, got {self.base_price}")
        try:
            round_price(self.base_price)
        except CorpusError as exc:
            raise SynthError(f"base_price: {exc}") from None
        # A z = -2 day moves the price by -2 * daily_vol: -100 % or worse from 0.5 up.
        if not 0 < self.daily_vol < 0.5:
            raise SynthError(f"daily_vol must be > 0 and < 0.5, got {self.daily_vol}")
        if not 0 <= self.seed < 2**64:
            raise SynthError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class BenchConfig:
    """The race: agent settings, split, wall-clock limit per pipeline and optional target."""

    agent: AgentConfig = AgentConfig()
    reward: str = CDR
    train_frac: float = 0.7
    seconds: float = 600.0
    target_vaf: float | None = None

    def __post_init__(self) -> None:
        if self.reward not in REWARD_KINDS:
            raise BenchError(f"unknown reward kind {self.reward!r}")
        if not 0.0 < self.train_frac < 1.0:
            raise BenchError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if not (self.seconds > 0 and math.isfinite(self.seconds)):
            raise BenchError(f"seconds must be positive and finite, got {self.seconds}")
        if self.target_vaf is not None and not math.isfinite(self.target_vaf):
            raise BenchError(f"target_vaf must be finite, got {self.target_vaf}")
