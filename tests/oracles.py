"""Independent reference implementations used to cross-check the package.

Most of what is here is written straight from the defining formulas in plain
Python (no numpy), deliberately sharing no code with ``sentiq`` so that
agreement between the two is meaningful evidence. The exceptions are defined
by their bytes or their draw order, not by a formula:

* a seeded corpus by its draw order, so ``o_gen_corpus`` is
  ``sentiq.synth.gen_corpus`` as it was when it made one numpy call per
  tweet, with the module's constants and helpers;
* a model file by format v1, so ``o_save_model`` is
  ``sentiq.qlearn.save_model`` as it was when it wrote every byte of the table;
* ``o_round_price`` is ``sentiq.corpus.round_price`` as it was before its
  float fast path, every input through ``Decimal``;
* ``o_build_record`` is the per-field conversion ``sentiq.corpus`` once ran
  on every row it did not accept at once, before ``load_tweets`` passed
  such a row to ``TweetRecord(...)`` as its own conversions left it: each
  integer field on its own, then ``TweetRecord(...)`` for every check;
* a training run by its draws and updates, so ``o_select_action`` and
  ``o_q_update`` are the scalar epsilon-greedy choice and bootstrap update
  ``sentiq.qlearn`` once trained with, one numpy draw per call and greedy
  through ``QModel.greedy_action``, and ``o_train`` steps a run through them
  one day at a time. It reuses ``sentiq``'s public reward functions
  (``reward_sdr``, ``reward_rdr``, ``reward_cdr`` with
  ``zero_reward_points``), ``predicted_price``, ``discretize_state`` and the
  schedule ``epsilon_at``.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import re
import struct
from dataclasses import asdict
from decimal import (
    ROUND_HALF_UP,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from pathlib import Path
from typing import Sequence

import numpy as np

from sentiq.corpus import _DAY_S, PriceSeries, TweetRecord, _day_start
from sentiq.errors import CorpusError
from sentiq.qlearn import (
    _MAGIC,
    _VERSION,
    RDR,
    SDR,
    QLearnError,
    QModel,
    State,
    TrainLog,
    discretize_state,
    epsilon_at,
    predicted_price,
    reward_cdr,
    reward_rdr,
    reward_sdr,
    zero_reward_points,
)
from sentiq.synth import (
    _FILLER_VOCAB,
    _RETURN_TRIALS,
    _SIGNAL_SLOPE,
    _SIGNAL_VALENCE_NOISE,
    _START,
    SynthConfig,
    _token_tables,
)


# ---------------------------------------------------------------------------
# Accuracy metrics, straight from their formulas.

def o_mean(xs) -> float:
    return sum(xs) / len(xs)


def o_sample_variance(xs) -> float:
    m = o_mean(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def o_vaf(ap, pp) -> float:
    diff = [a - p for a, p in zip(ap, pp)]
    return (1.0 - o_sample_variance(diff) / o_sample_variance(ap)) * 100.0


def o_r2(ap, pp) -> float:
    m = o_mean(ap)
    rss = sum((a - p) ** 2 for a, p in zip(ap, pp))
    tss = sum((a - m) ** 2 for a in ap)
    return 1.0 - rss / tss


def o_nse(ap, pp) -> float:
    m = o_mean(ap)
    num = sum((a - p) ** 2 for a, p in zip(ap, pp))
    den = sum((a - m) ** 2 for a in ap)
    return 1.0 - num / den


def o_mape(ap, pp) -> float:
    return o_mean([abs(a - p) / abs(a) for a, p in zip(ap, pp)]) * 100.0


def o_rmse(ap, pp) -> float:
    return math.sqrt(o_mean([(a - p) ** 2 for a, p in zip(ap, pp)]))


def o_wmape(ap, pp) -> float:
    return sum(abs(a - p) for a, p in zip(ap, pp)) / sum(ap) * 100.0


# ---------------------------------------------------------------------------
# Reward shapes.

def o_cdr_closed_form(ap: float, pp: float, l: float) -> float:
    """Normalized reward as a single expression: 100 * (1 - |pp - ap| / l)."""
    return 100.0 * (1.0 - abs(pp - ap) / l)


# ---------------------------------------------------------------------------
# Exhaustive value iteration for small deterministic MDPs.

def o_value_iteration(n_states, n_actions, transition, reward, gamma, tol=1e-12):
    """Optimal greedy policy of a deterministic MDP by value iteration.

    ``transition[s][a]`` is the successor state, ``reward[s][a]`` the reward.
    Returns (policy, values) where policy[s] is the optimal action (smallest
    action index on ties, matching the package's greedy tie-break).
    """
    values = [0.0] * n_states
    while True:
        new = [
            max(reward[s][a] + gamma * values[transition[s][a]] for a in range(n_actions))
            for s in range(n_states)
        ]
        if max(abs(n - v) for n, v in zip(new, values)) < tol:
            values = new
            break
        values = new
    policy = []
    for s in range(n_states):
        qs = [reward[s][a] + gamma * values[transition[s][a]] for a in range(n_actions)]
        best = max(qs)
        policy.append(min(a for a in range(n_actions) if qs[a] == best))
    return policy, values


# ---------------------------------------------------------------------------
# Q-learning one step at a time: a numpy draw per choice, a table read per update.

def o_q_update(model: QModel, s: State, a: int, r: float, s_next: State) -> float:
    """One bootstrap update; stores and returns the new Q(s, a)."""
    cfg = model.config
    if not cfg.action_min <= a <= cfg.action_max:
        raise QLearnError(f"action {a} outside [{cfg.action_min}, {cfg.action_max}]")
    if not math.isfinite(r):
        raise QLearnError(f"reward must be finite, got {r}")
    row = model.table[s.price_bin, s.sentiment_bin]
    idx = a - cfg.action_min
    best_next = float(model.table[s_next.price_bin, s_next.sentiment_bin].max())
    updated = row[idx] + cfg.theta * (r + cfg.gamma * best_next - row[idx])
    row[idx] = updated
    return float(updated)


def o_select_action(model: QModel, s: State, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy percent selection."""
    if not 0.0 <= epsilon <= 1.0:
        raise QLearnError(f"epsilon must be in [0, 1], got {epsilon}")
    cfg = model.config
    if epsilon > 0.0 and rng.random() < epsilon:
        return cfg.action_min + int(rng.integers(cfg.n_actions))
    return model.greedy_action(s)


def o_episode(model, prices, states, kind, epsilon, rng) -> float:
    """One chronological pass, day by day through ``o_select_action`` and ``o_q_update``."""
    total = 0.0
    pp_prev = prices[0]
    for t in range(1, len(prices)):
        a = o_select_action(model, states[t - 1], epsilon, rng)
        pp = predicted_price(prices[t - 1], a)
        if kind == SDR:
            r = reward_sdr(prices[t], pp)
        elif kind == RDR:
            r = reward_rdr(prices[t], pp)
        else:
            r = reward_cdr(zero_reward_points(prices[t], prices[t - 1], pp_prev), prices[t], pp)
            pp_prev = pp
        o_q_update(model, states[t - 1], a, r, states[t])
        total += r
    return total / (len(prices) - 1)


def o_train(series, signals, kind, cfg) -> tuple[QModel, TrainLog]:
    """A fresh model trained as ``sentiq.qlearn.train`` must: ``cfg.episodes`` of ``o_episode``."""
    model = QModel.zeros(cfg, reward=kind)
    rng = np.random.default_rng(cfg.seed)
    states = [discretize_state(p, s.mean_compound, cfg) for p, s in zip(series.prices, signals)]
    epsilons = tuple(epsilon_at(cfg, e) for e in range(cfg.episodes))
    means = tuple(
        o_episode(model, series.prices, states, kind, epsilon, rng) for epsilon in epsilons
    )
    return model, TrainLog(means, epsilons)


# ---------------------------------------------------------------------------
# Tweet cleaning, the eight steps of ``sentiq.preprocess``'s docstring, every
# step applied unconditionally.

def _o_drop_leading_rt(t: str) -> str:
    t = t.lstrip()
    while t == "rt" or (t[:2] == "rt" and t[2:3].isspace()):
        t = t[2:].lstrip()
    return t


def o_clean_pass(text: str) -> str:
    t = text.lower()
    t = _o_drop_leading_rt(t)
    t = re.sub(r"https?://\S*", "", t)
    t = re.sub(r"(?:^|(?<=\s))www\.\S*", "", t)
    t = re.sub(r"@\w*", "", t)
    t = t.replace("#", "")
    t = re.sub(r"\.\.+", " ", t)
    t = "".join(ch * min(3, len(list(run))) for ch, run in itertools.groupby(t))
    t = re.sub(r"\s+", " ", t)
    return t.strip()


def o_clean(text: str) -> str:
    """``o_clean_pass`` repeated until the text stops changing."""
    while (cleaned := o_clean_pass(text)) != text:
        text = cleaned
    return cleaned


# ---------------------------------------------------------------------------
# Lexicon scoring, from ``sentiq.sentiment``'s docstring: per whitespace token,
# the valence of the token without its trailing ``!`` times 1.292 per ``!``
# (at most three), summed left to right and squashed by s / sqrt(s^2 + 15).

def o_score(text: str, lexicon) -> float:
    s = 0.0
    for token in text.split():
        word = token.rstrip("!")
        if word and word in lexicon:
            s += lexicon[word] * 1.292 ** min(len(token) - len(word), 3)
    return s / math.sqrt(s * s + 15.0)


# ---------------------------------------------------------------------------
# UTC calendar days.

def o_utc_day(timestamp: int) -> dt.date:
    """The UTC date ``timestamp`` seconds after 1970-01-01T00:00:00Z."""
    return (dt.datetime(1970, 1, 1) + dt.timedelta(seconds=timestamp)).date()


# ---------------------------------------------------------------------------
# JSONL tweet rows, one ``json.loads`` per line.

O_TWEET_FIELDS = ("id", "timestamp", "text", "followers", "comments", "likes", "retweets")


def o_jsonl_rows(path):
    """``(line number, the seven values)`` for each non-blank line of a JSONL file.

    A bad line raises ``ValueError`` with the message the package's reader
    gives: invalid JSON, a value that is not an object, or the first missing
    field in header order.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected an object per line")
            for key in O_TWEET_FIELDS:
                if key not in obj:
                    raise ValueError(f"{path}:{lineno}: missing field '{key}'")
            yield lineno, tuple(obj[key] for key in O_TWEET_FIELDS)


# ---------------------------------------------------------------------------
# One tweet from a row, each field converted on its own.

_INT_INDEXES = tuple(
    O_TWEET_FIELDS.index(name)
    for name in ("timestamp", "followers", "comments", "likes", "retweets")
)


def o_build_record(fields: Sequence) -> TweetRecord:
    """One tweet from a row's fields in ``TWEET_FIELDS`` order.

    Converts only what ingest allows (an integer id to its decimal string,
    decimal strings in the integer fields to ``int``) and leaves every check
    to ``TweetRecord(...)``, whose :class:`CorpusError` the caller prefixes
    with the location.
    """
    fields = list(fields)
    if isinstance(fields[0], int) and not isinstance(fields[0], bool):
        fields[0] = str(fields[0])
    for i in _INT_INDEXES:
        if isinstance(fields[i], str):
            try:
                fields[i] = int(fields[i], 10)
            except ValueError:
                pass
    return TweetRecord(*fields)


# ---------------------------------------------------------------------------
# Prices to cents, every input through ``Decimal`` in a context of its own.

_O_CENTS = Context(
    prec=28, rounding=ROUND_HALF_UP, Emin=-999_999, Emax=999_999, capitals=1, clamp=0,
    flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
)


def o_round_price(value) -> float:
    """``str(value)`` as a decimal, rounded half up to two fraction digits."""
    try:
        number = Decimal(str(value))
    except InvalidOperation:
        raise CorpusError(f"not a number: {value!r}") from None
    try:
        return float(number.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP, context=_O_CENTS))
    except InvalidOperation:  # infinite, or more digits than the context holds
        reason = "not a number"
        if number.is_finite():
            reason = f"too large to round to cents in {_O_CENTS.prec} digits"
        raise CorpusError(f"{reason}: {value!r}") from None


# ---------------------------------------------------------------------------
# Synthetic corpora, one ``rng.integers`` call per noise tweet's picks, per
# tweet's filler words and per inserted sentiment token.

def o_gen_corpus(cfg: SynthConfig) -> tuple[tuple[TweetRecord, ...], PriceSeries]:
    """The generator as written before its per-tweet draws were batched per day."""
    rng = np.random.default_rng(cfg.seed)
    days, per_day = cfg.days, cfg.tweets_per_day
    top = (per_day + 1) // 2

    # Centered binomial counts z in {-2,...,2} with unit variance; each day's
    # percent move is z * step where step is sized so sd(move) = daily_vol.
    half = _RETURN_TRIALS // 2
    z = rng.binomial(_RETURN_TRIALS, 0.5, size=days - 1) - half
    step_pct = 200.0 * cfg.daily_vol / math.sqrt(_RETURN_TRIALS)
    prices = [max(o_round_price(cfg.base_price), 0.01)]
    for d in range(1, days):
        prices.append(max(o_round_price(prices[-1] * (1.0 + z[d - 1] * step_pct / 100.0)), 0.01))
    series = PriceSeries(_START, tuple(prices))

    # Latent daily factor: correlated with the standardized next-day move.
    eta = rng.normal(0.0, 1.0, days)
    factor = np.empty(days)
    factor[: days - 1] = cfg.rho * z + math.sqrt(1.0 - cfg.rho**2) * eta[: days - 1]
    factor[days - 1] = eta[days - 1]

    mild_valences, mild_tokens, strong_pos, strong_neg = _token_tables()
    tweets: list[TweetRecord] = []
    counter = 0
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


# ---------------------------------------------------------------------------
# Model files, format v1, the table written densely.

def o_save_model(model: QModel, path: str | Path) -> None:
    """Serialize a model: magic, version, JSON config block, row-major table."""
    meta = {
        "agent": {**asdict(model.config), "state_mode": "price+sentiment"},
        "reward": model.reward,
        "attribute": model.attribute,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    table = np.ascontiguousarray(model.table, dtype="<f8")
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", _VERSION))
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        handle.write(struct.pack("<III", *table.shape))
        handle.write(memoryview(table))
