"""Seeded synthetic tweet corpora with a planted, recoverable signal.

Prices follow a geometric random walk whose daily log-returns are drawn from
a small symmetric set of percent moves (a centered binomial count times a
fixed step, scaled so the daily return standard deviation equals
``daily_vol``). Quantized moves give each day a well-defined best integer
percent prediction, so a correctly-trained predictor can land exactly on the
next price rather than chasing an irreducibly continuous target.

Each day also carries a latent sentiment factor built from the standardized
*next-day* move, correlating with tomorrow's return at strength ``rho``. The
day's top-follower half of tweets express that factor: each carries one
mildly-valenced lexicon token tracking it. The bottom half are loud
zero-mean noise — one to three strongly-valenced tokens of a random sign —
so any subset that mixes the halves (the likes/comments/retweets orderings,
or no filtering at all) buries the planted signal under noise whose daily
mean does not average out. Follower counts for the two halves live in
disjoint ranges, making the follower ranking recover the informative half
exactly; the other three engagement counts are drawn independently of the
split and carry no ordering information.

Everything is driven by one seeded generator in a fixed draw order, so a
seed fully determines the corpus.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .corpus import PricePoint, PriceSeries, TweetRecord, round_price
from .errors import SentiqError
from .sentiment import builtin_lexicon

_START = dt.date(2021, 1, 1)  # the first price day
_RETURN_TRIALS = 4  # binomial trials behind each day's move; sd of the count is 1
_SIGNAL_SLOPE = 0.2  # latent factor -> signal-tweet target valence
_SIGNAL_VALENCE_NOISE = 0.15
_MILD_VALENCE_MAX = 0.7  # tokens for the signal half
_STRONG_VALENCE_MIN = 1.1  # tokens for the noise half
_FILLER_VOCAB = (
    "btc", "coin", "price", "market", "chart", "today", "candle", "volume",
    "support", "level", "zone", "trend", "line", "watch", "holding", "buy",
    "sell", "trade", "entry", "exit", "setup", "plan", "risk", "target",
    "move", "play", "wait", "see", "looks", "like", "big", "small", "early",
    "late", "maybe", "sure", "now", "soon", "still", "again", "people",
    "everyone", "thinking", "feels", "session", "daily",
)


class SynthError(SentiqError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class SynthConfig:
    days: int
    tweets_per_day: int
    rho: float
    base_price: float = 20_000.0
    daily_vol: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 2:
            raise SynthError(f"days must be >= 2, got {self.days}")
        if self.tweets_per_day < 1:
            raise SynthError(f"tweets_per_day must be >= 1, got {self.tweets_per_day}")
        if not 0.0 <= self.rho <= 1.0:
            raise SynthError(f"rho must be in [0, 1], got {self.rho}")
        if not (self.base_price > 0 and math.isfinite(self.base_price)):
            raise SynthError(f"base_price must be positive, got {self.base_price}")
        if not (self.daily_vol > 0 and math.isfinite(self.daily_vol)):
            raise SynthError(f"daily_vol must be positive, got {self.daily_vol}")
        if not 0 <= self.seed < 2**64:
            raise SynthError("seed must be an unsigned 64-bit integer")


def _token_tables() -> tuple[np.ndarray, list[str], list[str], list[str]]:
    items = sorted(builtin_lexicon().items(), key=lambda kv: (kv[1], kv[0]))
    mild = [(t, v) for t, v in items if abs(v) <= _MILD_VALENCE_MAX]
    mild_valences = np.array([v for _, v in mild], dtype=np.float64)
    mild_tokens = [t for t, _ in mild]
    strong_pos = [t for t, v in items if v >= _STRONG_VALENCE_MIN]
    strong_neg = [t for t, v in items if v <= -_STRONG_VALENCE_MIN]
    return mild_valences, mild_tokens, strong_pos, strong_neg


def gen_corpus(cfg: SynthConfig) -> tuple[tuple[TweetRecord, ...], PriceSeries]:
    """Generate ``days * tweets_per_day`` tweets and the matching price series."""
    rng = np.random.default_rng(cfg.seed)
    days, per_day = cfg.days, cfg.tweets_per_day
    top = (per_day + 1) // 2

    # Centered binomial counts z in {-2,...,2} with unit variance; each day's
    # percent move is z * step where step is sized so sd(move) = daily_vol.
    half = _RETURN_TRIALS // 2
    z = rng.binomial(_RETURN_TRIALS, 0.5, size=days - 1) - half
    step_pct = 200.0 * cfg.daily_vol / math.sqrt(_RETURN_TRIALS)
    points = []
    price = max(round_price(cfg.base_price), 0.01)
    points.append(PricePoint(_START, price))
    for d in range(1, days):
        price = max(round_price(price * (1.0 + z[d - 1] * step_pct / 100.0)), 0.01)
        points.append(PricePoint(_START + dt.timedelta(days=d), price))
    series = PriceSeries(tuple(points))

    # Latent daily factor: correlated with the standardized next-day move.
    eta = rng.normal(0.0, 1.0, days)
    factor = np.empty(days)
    factor[: days - 1] = cfg.rho * z + math.sqrt(1.0 - cfg.rho**2) * eta[: days - 1]
    factor[days - 1] = eta[days - 1]

    mild_valences, mild_tokens, strong_pos, strong_neg = _token_tables()
    utc = dt.timezone.utc
    tweets: list[TweetRecord] = []
    counter = 0
    for d in range(days):
        day_start = int(dt.datetime.combine(series[d].date, dt.time(), tzinfo=utc).timestamp())
        offsets = rng.integers(0, 86_400, size=per_day)

        target = _SIGNAL_SLOPE * factor[d] + rng.normal(
            0.0, _SIGNAL_VALENCE_NOISE, size=top
        )
        signal_token_idx = np.abs(mild_valences[None, :] - target[:, None]).argmin(axis=1)
        noise_signs = rng.integers(0, 2, size=per_day - top)
        noise_token_counts = rng.integers(1, 4, size=per_day - top)

        followers = np.empty(per_day, dtype=np.int64)
        followers[:top] = 1_000 + rng.lognormal(7.0, 1.2, size=top).astype(np.int64)
        followers[top:] = np.minimum(
            rng.lognormal(5.0, 1.2, size=per_day - top).astype(np.int64), 999
        )
        comments = rng.lognormal(3.0, 1.5, size=per_day).astype(np.int64)
        likes = rng.lognormal(3.0, 1.5, size=per_day).astype(np.int64)
        retweets = rng.lognormal(3.0, 1.5, size=per_day).astype(np.int64)
        word_counts = rng.integers(2, 5, size=per_day)

        for i in range(per_day):
            if i < top:
                sentiment_tokens = [mild_tokens[int(signal_token_idx[i])]]
            else:
                pool = strong_pos if noise_signs[i - top] else strong_neg
                picks = rng.integers(0, len(pool), size=int(noise_token_counts[i - top]))
                sentiment_tokens = [pool[int(p)] for p in picks]
            k = int(word_counts[i])
            words = [_FILLER_VOCAB[int(w)] for w in rng.integers(0, len(_FILLER_VOCAB), size=k)]
            for token in sentiment_tokens:
                words.insert(int(rng.integers(0, len(words) + 1)), token)
            # Non-empty id and text, Python ints, non-negative counts: all valid.
            tweets.append(TweetRecord._make((
                f"{counter:08d}", day_start + int(offsets[i]), " ".join(words),
                int(followers[i]), int(comments[i]), int(likes[i]), int(retweets[i]),
            )))
            counter += 1
    return tuple(tweets), series
