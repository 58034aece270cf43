"""Seeded synthetic tweet corpora with a planted, recoverable signal.

Prices follow a geometric random walk whose daily log-returns are drawn from
a small symmetric set of percent moves (a centered binomial count times a
fixed step, scaled so the daily return standard deviation equals
``daily_vol``). Quantized moves give each day a well-defined best integer
percent prediction, so a correctly-trained predictor can land exactly on the
next price rather than chasing an irreducibly continuous target. ``daily_vol``
stays below 0.5, so the largest fall, ``2 * daily_vol``, leaves a positive price.

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
from itertools import repeat

import numpy as np

from .corpus import _DAY_S, CorpusError, PriceSeries, TweetRecord, _day_start, round_price
from .errors import SentiqError, check_int_fields
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
    prices = [max(round_price(cfg.base_price), 0.01)]
    for d in range(1, days):
        drawn = z[d - 1] * step_pct
        try:
            prices.append(max(round_price(prices[-1] * (1.0 + drawn / 100.0)), 0.01))
        except CorpusError:
            raise SynthError(
                f"the price on day {d} outgrows cents (base_price {cfg.base_price}, "
                f"daily_vol {cfg.daily_vol}); lower either or generate fewer days"
            ) from None
        # Rounding to cents may move a price by at most a hundredth of a step.
        moved = (prices[-1] / prices[-2] - 1.0) * 100.0
        if abs(moved - drawn) > step_pct / 100.0:
            raise SynthError(
                f"the price on day {d} moves {moved:+.2f} % for a drawn {drawn:+.2f} %: "
                f"too small for cents (base_price {cfg.base_price}, daily_vol {cfg.daily_vol}); "
                "raise either"
            )
    series = PriceSeries(_START, tuple(prices))

    # Latent daily factor: correlated with the standardized next-day move.
    eta = rng.normal(0.0, 1.0, days)
    factor = np.empty(days)
    factor[: days - 1] = cfg.rho * z + math.sqrt(1.0 - cfg.rho**2) * eta[: days - 1]
    factor[days - 1] = eta[days - 1]

    mild_valences, mild_tokens, strong_pos, strong_neg = _token_tables()
    mild = np.array(mild_tokens, dtype=object)
    # Both noise pools, negative first: a positive pick is offset by len(strong_neg).
    strong = np.array(strong_neg + strong_pos, dtype=object)
    filler = np.array(_FILLER_VOCAB, dtype=object)
    # Each tweet's draws are three runs, in order: a noise tweet's token picks
    # (bound: its pool's size), the filler words (the vocabulary's size), then
    # one insert position per sentiment token into the growing word list
    # (n_words + 1, n_words + 2, ...). Row i holds tweet i's run lengths and
    # first bounds; a signal tweet has no picks and one token.
    runs = np.zeros((per_day, 3), dtype=np.int64)
    runs[:top, 2] = 1
    firsts = np.zeros((per_day, 3), dtype=np.int64)
    firsts[:, 1] = len(filler)
    kinds = np.tile(np.arange(3), per_day)  # 0 pick, 1 filler, 2 insert
    tweets: list[TweetRecord] = []
    for d in range(days):
        day_start = _day_start(_START) + d * _DAY_S
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

        # The day's per-tweet draws come from one call. An array of bounds is
        # drawn element by element, so the stream is the one a scalar call per
        # bound would give (tests/test_synth.py pins it).
        runs[top:, 0] = runs[top:, 2] = noise_token_counts
        runs[:, 1] = word_counts
        firsts[top:, 0] = np.where(noise_signs, len(strong_pos), len(strong_neg))
        firsts[:, 2] = word_counts + 1
        lengths = runs.ravel()
        kind = kinds.repeat(lengths)
        inserting = kind == 2
        within = np.arange(len(kind)) - (lengths.cumsum() - lengths).repeat(lengths)
        drawn = rng.integers(0, firsts.ravel().repeat(lengths) + inserting * within)

        # Tokens and insert positions both run in tweet order, signal tweets first.
        words = filler[drawn[kind == 1]].tolist()
        picks = drawn[kind == 0] + (noise_signs * len(strong_neg)).repeat(noise_token_counts)
        tokens = [*mild[signal_token_idx].tolist(), *strong[picks].tolist()]
        inserts = list(zip(drawn[inserting].tolist(), tokens))
        texts = []
        w = t = 0
        for n_words, n_tokens in zip(word_counts.tolist(), runs[:, 2].tolist()):
            text = words[w : w + n_words]
            for at, token in inserts[t : t + n_tokens]:
                text.insert(at, token)
            texts.append(" ".join(text))
            w += n_words
            t += n_tokens

        # Non-empty id and text, Python ints, non-negative counts: all valid.
        ids = map("%08d".__mod__, range(len(tweets), len(tweets) + per_day))
        rows = zip(
            ids, (offsets + day_start).tolist(), texts, followers.tolist(), comments.tolist(),
            likes.tolist(), retweets.tolist(),
        )
        tweets += map(tuple.__new__, repeat(TweetRecord), rows)
    return tuple(tweets), series
