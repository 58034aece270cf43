"""Tabular Q-learning price predictor.

The agent walks the daily price series chronologically. On day ``t`` it sees
the state built from the previous day — the bucketed previous price and the
bucketed previous-day sentiment signal (strictly no lookahead) — and picks a
percent move ``a``; its prediction is ``PP_t = AP_{t-1} * (1 + a/100)``
(clamped at zero, rounded to cents). The reward compares ``PP_t`` with the
realized price ``AP_t`` under one of three shapes:

* ``sdr``: negative absolute dollar error, ``-|AP - PP|``.
* ``rdr``: negative percent error relative to the actual, ``-|AP - PP| / AP * 100``.
* ``cdr``: a normalized score that is 100 at a perfect hit and falls to 0 at
  the day's *zero-reward points*. Those points sit symmetrically around
  ``AP_t`` at distance ``l = |AP_t - PP_{t-1} * (1 + alpha)|`` where ``alpha``
  is the day's actual relative change — i.e. the error a naive carry-forward
  of yesterday's prediction would have made. Predictions worse than that
  baseline score negative, so the scale adapts to how volatile the day was.

Updates use the one-step bootstrap
``Q += theta * (r + gamma * max_a' Q(s', a') - Q)``; exploration is
epsilon-greedy with a linear per-episode epsilon decay, and greedy ties
resolve to the smallest percent.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .attributes import Attribute
from .corpus import PriceSeries, round_price
from .errors import AlignmentError, ModelFormatError, SentiqError
from .sentiment import DailySignal

_MAGIC = b"SQMODEL\x01"
_VERSION = 1


class QLearnError(SentiqError):
    """Invalid agent configuration or out-of-range state inputs."""


SDR = "sdr"
RDR = "rdr"
CDR = "cdr"
REWARD_KINDS = (SDR, RDR, CDR)
_ATTRIBUTE_NAMES = tuple(a.value for a in Attribute)


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
        if not 0.0 <= self.gamma <= 1.0:
            raise QLearnError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.theta <= 1.0:
            raise QLearnError(f"theta must be in (0, 1], got {self.theta}")
        if int(self.action_min) != self.action_min or int(self.action_max) != self.action_max:
            raise QLearnError("action bounds must be integers")
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


class State(NamedTuple):
    price_bin: int
    sentiment_bin: int


def discretize_state(prev_price: float, prev_compound: float, cfg: AgentConfig) -> State:
    """Map the previous day's price and mean compound onto the discrete grid."""
    if not 0.0 <= prev_price < cfg.price_max:
        raise QLearnError(
            f"price {prev_price} outside the representable range [0, {cfg.price_max})"
        )
    price_bin = int(prev_price // cfg.price_bucket_width)
    raw = int(np.floor((prev_compound + 1.0) / 2.0 * cfg.sentiment_bins))
    sentiment_bin = min(max(raw, 0), cfg.sentiment_bins - 1)
    return State(price_bin, sentiment_bin)


def predicted_price(prev_price: float, percent: int) -> float:
    """Price implied by a percent move, clamped at zero, rounded to cents."""
    return max(0.0, round_price(prev_price * (1.0 + percent / 100.0)))


def reward_sdr(ap: float, pp: float) -> float:
    """Negative absolute dollar error."""
    return -abs(ap - pp)


def _rdr(ap: float, pp: float) -> float:
    return -abs(ap - pp) / ap * 100.0


def reward_rdr(ap: float, pp: float) -> float:
    """Negative absolute error as a percent of the actual price."""
    if not ap > 0:
        raise QLearnError(f"actual price must be positive, got {ap}")
    return _rdr(ap, pp)


@dataclass(frozen=True)
class ZeroRewardGeometry:
    """Day geometry for the normalized reward.

    ``zr1``/``zr2`` are the prediction values scoring exactly zero; they sit
    at ``ap -/+ l``. ``degenerate`` flags ``l`` below tolerance (yesterday's
    prediction carried forward hits today's price exactly), where the ratio
    form is undefined.
    """

    alpha: float
    l: float
    zr1: float
    zr2: float
    degenerate: bool
    tol: float


def _geometry(
    ap: float, ap_prev: float, pp_prev: float, tol: float
) -> tuple[float, float, float, float, bool]:
    alpha = (ap - ap_prev) / ap_prev
    l = abs(ap - pp_prev * (1.0 + alpha))
    return alpha, l, ap - l, ap + l, l < tol


def zero_reward_points(ap: float, ap_prev: float, pp_prev: float) -> ZeroRewardGeometry:
    """Zero-score prediction values for a day, from the carry-forward baseline."""
    if not ap_prev > 0:
        raise QLearnError(f"previous actual price must be positive, got {ap_prev}")
    if not ap > 0:
        raise QLearnError(f"actual price must be positive, got {ap}")
    tol = 1e-9 * ap
    return ZeroRewardGeometry(*_geometry(ap, ap_prev, pp_prev, tol), tol=tol)


def _cdr(ap: float, pp: float, zr1: float, zr2: float, degenerate: bool, tol: float) -> float:
    if degenerate:
        if abs(pp - ap) <= tol:
            return 100.0
        return reward_rdr(ap, pp)
    if pp <= ap:
        return (pp - zr1) / (ap - zr1) * 100.0
    return (pp - zr2) / (ap - zr2) * 100.0


def reward_cdr(geometry: ZeroRewardGeometry, ap: float, pp: float) -> float:
    """Normalized reward: 100 at ``pp == ap``, 0 at the zero-reward points.

    Degenerate geometry scores 100 for an (effectively) exact prediction and
    falls back to the relative shape otherwise.
    """
    return _cdr(ap, pp, geometry.zr1, geometry.zr2, geometry.degenerate, geometry.tol)


@dataclass
class QModel:
    """Q-table over (price bin, sentiment bin, action index).

    ``reward`` and ``attribute`` record how the model was trained so a saved
    model replays the same dataset construction at prediction time.
    """

    config: AgentConfig
    table: np.ndarray
    reward: str | None = None
    attribute: Attribute | None = None

    @classmethod
    def zeros(
        cls, cfg: AgentConfig, reward: str | None = None, attribute: Attribute | None = None
    ) -> "QModel":
        return cls(cfg, np.zeros(cfg.table_shape, dtype=np.float64), reward, attribute)

    def greedy_action(self, s: State) -> int:
        """Highest-Q percent for a state; ties resolve to the smallest percent."""
        return self.config.action_min + int(np.argmax(self.table[s.price_bin, s.sentiment_bin]))


def q_update(model: QModel, s: State, a: int, r: float, s_next: State) -> float:
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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise QLearnError(f"epsilon must be in [0, 1], got {epsilon}")


def select_action(model: QModel, s: State, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy percent selection."""
    _check_epsilon(epsilon)
    cfg = model.config
    if epsilon > 0.0 and rng.random() < epsilon:
        return cfg.action_min + int(rng.integers(cfg.n_actions))
    return model.greedy_action(s)


def epsilon_at(cfg: AgentConfig, episode: int) -> float:
    """Linearly decayed epsilon for a zero-based episode index."""
    if cfg.episodes == 1:
        return cfg.epsilon_start
    frac = min(episode, cfg.episodes - 1) / (cfg.episodes - 1)
    return cfg.epsilon_start + (cfg.epsilon_end - cfg.epsilon_start) * frac


@dataclass(frozen=True)
class TrainLog:
    """Per-episode training trace."""

    mean_rewards: tuple[float, ...]
    epsilons: tuple[float, ...]

    @property
    def episodes(self) -> int:
        return len(self.mean_rewards)


def _check_alignment(prices: PriceSeries, signals: Sequence[DailySignal], min_len: int) -> None:
    if len(signals) != len(prices):
        raise AlignmentError(
            f"signals cover {len(signals)} days but prices cover {len(prices)}"
        )
    for date, signal in zip(prices.dates, signals):
        if date != signal.date:
            raise AlignmentError(f"signal date {signal.date} does not match price date {date}")
    if len(prices) < min_len:
        raise AlignmentError(f"need at least {min_len} aligned days, got {len(prices)}")


class TrainingDays(NamedTuple):
    """The inputs of :func:`run_episode` and :func:`predict_days`, built by :func:`training_days`.

    ``prices[t]`` is day ``t``'s price and ``states[rows[t]]`` the state day
    ``t`` leads to; ``states`` lists each distinct state once. ``moves[t]``
    memoises :func:`predicted_price` from day ``t`` by action index. It fills
    as episodes run, so one ``TrainingDays`` serves one training run.
    """

    prices: tuple[float, ...]
    states: tuple[State, ...]
    rows: tuple[int, ...]
    moves: tuple[dict[int, float], ...]


def training_days(
    prices: PriceSeries, signals: Sequence[DailySignal], cfg: AgentConfig
) -> TrainingDays:
    """Discretize each day once on ``cfg``'s grid, for one training run or prediction pass.

    Every price is checked here, once per run: :class:`~sentiq.corpus.PriceSeries`
    holds it positive and :func:`discretize_state` inside the grid's range.
    """
    index: dict[State, int] = {}
    rows = tuple(
        index.setdefault(discretize_state(price, signal.mean_compound, cfg), len(index))
        for price, signal in zip(prices.prices, signals)
    )
    return TrainingDays(prices.prices, tuple(index), rows, tuple({} for _ in rows))


def run_episode(
    model: QModel,
    days: TrainingDays,
    kind: str,
    epsilon: float,
    rng: np.random.Generator,
) -> float:
    """One chronological pass over the training days; returns the mean reward.

    Internal engine shared by :func:`train` and the benchmark harness.
    ``days`` comes from :func:`training_days` on ``model.config`` and is
    passed to every episode of one run. Each step draws, rewards and updates
    exactly as :func:`select_action`, :func:`predicted_price`, the reward
    functions and :func:`q_update` would. The greedy choice reads each
    visited state's row max and first argmax from ``model.table`` when the
    episode starts and keeps them current as Q-values are written, so edits
    to the table between episodes are honoured.
    """
    _check_epsilon(epsilon)
    cfg = model.config
    table = model.table
    action_min, n_actions = cfg.action_min, cfg.n_actions
    theta, gamma = cfg.theta, cfg.gamma
    q_rows = [table[s.price_bin, s.sentiment_bin] for s in days.states]
    best = [int(row.argmax()) for row in q_rows]
    top = [row.item(i) for row, i in zip(q_rows, best)]

    prices, rows, moves = days.prices, days.rows, days.moves
    explore = epsilon > 0.0
    total = 0.0
    pp_prev = prices[0]
    s = rows[0]
    n = len(prices)
    for t in range(1, n):
        if explore and rng.random() < epsilon:
            i = int(rng.integers(n_actions))
        else:
            i = best[s]
        ap_prev, ap = prices[t - 1], prices[t]
        memo = moves[t - 1]
        pp = memo.get(i)
        if pp is None:
            pp = memo[i] = predicted_price(ap_prev, action_min + i)
        if kind == SDR:
            r = reward_sdr(ap, pp)
        elif kind == RDR:
            r = _rdr(ap, pp)
        else:
            tol = 1e-9 * ap
            _, _, zr1, zr2, degenerate = _geometry(ap, ap_prev, pp_prev, tol)
            r = _cdr(ap, pp, zr1, zr2, degenerate, tol)
            pp_prev = pp
        if not math.isfinite(r):
            raise QLearnError(f"reward must be finite, got {r}")
        s_next = rows[t]
        row = q_rows[s]
        q = row.item(i)
        updated = q + theta * (r + gamma * top[s_next] - q)
        row[i] = updated
        # Keep (top, best) equal to (row.max(), row.argmax()); Q-values are finite.
        if updated > top[s]:
            top[s], best[s] = updated, i
        elif updated == top[s]:
            if i < best[s]:
                best[s] = i
        elif i == best[s]:
            best[s] = j = int(row.argmax())
            top[s] = row.item(j)
        total += r
        s = s_next
    return total / (n - 1)


def train(
    prices: PriceSeries,
    signals: Sequence[DailySignal],
    kind: str,
    cfg: AgentConfig,
    attribute: Attribute | None = None,
) -> tuple[QModel, TrainLog]:
    """Train a fresh model on an aligned price/signal history.

    Deterministic for a fixed config: the only randomness is the generator
    seeded from ``cfg.seed``.
    """
    if kind not in REWARD_KINDS:
        raise QLearnError(f"unknown reward kind {kind!r}, expected one of {REWARD_KINDS}")
    _check_alignment(prices, signals, min_len=3)
    rng = np.random.default_rng(cfg.seed)
    model = QModel.zeros(cfg, reward=kind, attribute=attribute)
    days = training_days(prices, signals, cfg)
    mean_rewards = []
    epsilons = []
    for episode in range(cfg.episodes):
        epsilon = epsilon_at(cfg, episode)
        mean_rewards.append(run_episode(model, days, kind, epsilon, rng))
        epsilons.append(epsilon)
    return model, TrainLog(tuple(mean_rewards), tuple(epsilons))


def predict_days(model: QModel, days: TrainingDays) -> tuple[float, ...]:
    """Greedy next-day predictions for days 1..n-1; each distinct state's action is found once."""
    actions = [model.greedy_action(s) for s in days.states]
    return tuple(
        predicted_price(price, actions[row]) for price, row in zip(days.prices[:-1], days.rows)
    )


def predict_series(
    model: QModel, prices: PriceSeries, signals: Sequence[DailySignal]
) -> tuple[float, ...]:
    """Greedy next-day predictions for days 1..n-1 of an aligned series."""
    _check_alignment(prices, signals, min_len=2)
    return predict_days(model, training_days(prices, signals, model.config))


def save_model(model: QModel, path: str | Path) -> None:
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


def load_model(path: str | Path) -> QModel:
    """Inverse of :func:`save_model`; rejects foreign or truncated files.

    The table is read straight into its array, so loading holds one copy of it.
    """
    with Path(path).open("rb") as handle:
        head = handle.read(len(_MAGIC) + 8)
        if len(head) < len(_MAGIC) + 8 or not head.startswith(_MAGIC):
            raise ModelFormatError(f"{path}: not a serialized Q-model (bad magic)")
        version, blob_len = struct.unpack_from("<II", head, len(_MAGIC))
        if version != _VERSION:
            raise ModelFormatError(f"{path}: unsupported model version {version}")
        blob = handle.read(blob_len)
        shape_bytes = handle.read(12)
        if len(blob) < blob_len or len(shape_bytes) < 12:
            raise ModelFormatError(f"{path}: truncated model file")
        try:
            meta = json.loads(blob.decode("utf-8"))
            agent = {**meta["agent"]}
            layout = agent.pop("state_mode", None)
            if layout == "price-only":  # a file from before sentiment_bins = 1 replaced this mode
                agent["sentiment_bins"] = 1
            elif layout != "price+sentiment":
                raise ValueError(f"unknown state_mode {layout!r}")
            cfg = AgentConfig(**agent)
        except (ValueError, KeyError, TypeError, QLearnError) as exc:
            raise ModelFormatError(f"{path}: bad config block: {exc}") from None
        for name, known in (("reward", REWARD_KINDS), ("attribute", _ATTRIBUTE_NAMES)):
            if meta.get(name) not in (None, *known):
                raise ModelFormatError(
                    f"{path}: unknown {name} {meta[name]!r}, expected one of {known}"
                )
        shape = struct.unpack("<III", shape_bytes)
        expected = cfg.table_shape
        if shape != expected:
            raise ModelFormatError(f"{path}: table shape {shape} does not match config {expected}")
        table = np.empty(shape, dtype="<f8")
        if handle.readinto(memoryview(table).cast("B")) != table.nbytes or handle.read(1):
            raise ModelFormatError(f"{path}: truncated model file")
    attribute = None if meta.get("attribute") is None else Attribute(meta["attribute"])
    return QModel(cfg, table, meta.get("reward"), attribute)
