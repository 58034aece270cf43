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
  Equivalently ``l = AP_t * |PP_{t-1} / AP_{t-1} - 1|`` and, off a degenerate day, ``cdr =
  100 * (1 - |PP_t - AP_t| / l)``. Day ``t``'s reward depends on day ``t-1``'s
  action, which the state does not hold, so ``cdr`` is not Markov in the state.

Updates use the one-step bootstrap
``Q += theta * (r + gamma * max_a' Q(s', a') - Q)``; exploration is
epsilon-greedy with a linear per-episode epsilon decay, and greedy ties
resolve to the smallest percent.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import struct
from dataclasses import asdict, dataclass
from itertools import pairwise
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .attributes import Attribute
# Defined in the numpy-free .config, so the CLI can read their fields; exported here too.
from .config import CDR, RDR, REWARD_KINDS, SDR, AgentConfig, QLearnError
from .corpus import _TIE_MARGIN, PriceSeries, round_price
from .errors import AlignmentError, ModelFormatError
from .sentiment import DailySignal

_MAGIC = b"SQMODEL\x01"
_VERSION = 1
_BLOCK_WORDS = 8192  # 64 KiB of table: save_model writes or skips one block at a time
_GRID_BLOCK = 8192  # cells of price grid a _Learner prices at once, 64 KiB per temporary


_ATTRIBUTE_NAMES = tuple(a.value for a in Attribute)


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


def zero_reward_points(ap: float, ap_prev: float, pp_prev: float) -> ZeroRewardGeometry:
    """Zero-score prediction values for a day, from the carry-forward baseline."""
    if not ap_prev > 0:
        raise QLearnError(f"previous actual price must be positive, got {ap_prev}")
    if not ap > 0:
        raise QLearnError(f"actual price must be positive, got {ap}")
    tol = 1e-9 * ap
    alpha = (ap - ap_prev) / ap_prev
    l = abs(ap - pp_prev * (1.0 + alpha))
    return ZeroRewardGeometry(alpha, l, ap - l, ap + l, l < tol, tol)


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

    Off a degenerate day this is ``100 * (1 - |pp - ap| / l)``, with ``l = ap *
    |pp_prev / ap_prev - 1|`` from the previous day's prediction and price, so
    it depends on the previous action and is not Markov in the agent's state.
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


def _explore_draws(
    rng: np.random.Generator, epsilon: float, steps: int, n_actions: int
) -> list[int]:
    """Per step, the action index an epsilon-greedy step explores with, or -1 for greedy.

    Step ``t`` consumes the generator's stream exactly as ``rng.random() < epsilon``
    followed, on success, by ``rng.integers(n_actions)`` would, without a numpy
    call per step. The PCG64 words come from ``random_raw`` in chunks sized to
    the doubles still owed, so no word is drawn unused. A double is a word's top
    53 bits times ``2**-53``. A bounded integer is numpy's Lemire method on 32-bit draws: each
    word gives its low half, then its high half, kept between calls in the bit
    generator's ``has_uint32``/``uinteger`` buffer, which is read on entry and
    written back on exit. ``epsilon == 0`` draws nothing.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise QLearnError(
            f"exploration needs a PCG64 generator, got {type(bit_generator).__name__}"
        )
    if not 2 <= n_actions <= 2**32:
        raise QLearnError(f"n_actions must be in [2, 2**32], got {n_actions}")
    draws = [-1] * steps
    if epsilon == 0.0:
        return draws
    state = bit_generator.state
    entry = has_half, half = state["has_uint32"], state["uinteger"]
    threshold = (2**32 - n_actions) % n_actions
    # A word's double, (u >> 11) * 2**-53, is below epsilon exactly when u is below cut.
    cut = math.ceil(epsilon * 2**53) << 11
    words, w, n_words = [], 0, 0
    for t in range(steps):
        if w == n_words:  # this step's double and each later one need a word
            words, w, n_words = bit_generator.random_raw(steps - t).tolist(), 0, steps - t
        u = words[w]
        w += 1
        if u >= cut:
            continue
        while True:
            if has_half:
                x, has_half = half, 0
            else:
                if w == n_words:  # this draw and each later double need a word
                    words, w, n_words = bit_generator.random_raw(steps - t).tolist(), 0, steps - t
                u = words[w]
                w += 1
                x, half, has_half = u & 0xFFFFFFFF, u >> 32, 1
            m = x * n_actions
            if m & 0xFFFFFFFF >= threshold:
                break
        draws[t] = m >> 32
    if (has_half, half) != entry:  # random_raw leaves the buffer as it found it
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bit_generator.state = state
    return draws


def epsilon_at(cfg: AgentConfig, episode: int) -> float:
    """Linearly decayed epsilon for a zero-based episode index."""
    if episode < 0:
        raise QLearnError(f"episode must be >= 0, got {episode}")
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
    """The inputs of :class:`_Learner` and :func:`predict_days`, built by :func:`training_days`.

    ``prices[t]`` is day ``t``'s price and ``states[rows[t]]`` the state day
    ``t`` leads to; ``states`` lists each distinct state once, so a run reads
    one Q-row per distinct state. It holds no per-run state: one
    ``TrainingDays`` may serve any number of training runs and prediction
    passes.
    """

    prices: tuple[float, ...]
    states: tuple[State, ...]
    rows: tuple[int, ...]


def training_days(
    prices: PriceSeries, signals: Sequence[DailySignal], cfg: AgentConfig
) -> TrainingDays:
    """Discretize each day once on ``cfg``'s grid, for training runs or prediction passes.

    Every price is checked here, once: :class:`~sentiq.corpus.PriceSeries`
    holds it positive and :func:`discretize_state` inside the grid's range; a
    price outside it stops the run naming its day and ``price_max``. No
    prices are predicted here: :class:`_Learner` prices its own grid.
    """
    index: dict[State, int] = {}
    rows = []
    for t, (price, signal) in enumerate(zip(prices.prices, signals)):
        try:
            state = discretize_state(price, signal.mean_compound, cfg)
        except QLearnError as exc:
            raise QLearnError(f"{prices.dates[t]}: {exc}; raise price_max above it") from None
        rows.append(index.setdefault(state, len(index)))
    return TrainingDays(prices.prices, tuple(index), tuple(rows))


def round_prices_fast(values: np.ndarray) -> np.ndarray:
    """:func:`~sentiq.corpus.round_price` of each float in an array, where its fast path decides.

    Each element the float fast path takes gets the bits ``round_price``
    returns for it, computed with the same float operations and the same
    ``corpus._TIE_MARGIN``; every other element (a value near a half-cent
    tie, at or below zero, from about ``5e13`` cents up, or not finite) is
    NaN, left for ``round_price``. The tie margin refuses the large values,
    an infinite ``c`` too (its fraction is NaN), so ``round_price``'s
    ``2**50`` test is not needed.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        c = values * 100.0
        whole = np.floor(c)
        frac = c - whole
        fast = (values > 0.0) & (np.abs(frac - 0.5) > c * _TIE_MARGIN)
        return np.where(fast, (whole + (frac > 0.5)) / 100, np.nan)


def _price_grid(prices: Sequence[float], action_min: int, n_actions: int) -> np.ndarray:
    """:func:`predicted_price` from each of ``prices`` (rows) by each action index (columns).

    Each row is priced as :func:`predicted_price` prices it, ``prev * (1 + a/100)``
    in the same float operations, then rounded by :func:`round_prices_fast`:
    a cell its fast path leaves undecided is NaN, for the caller to price
    with :func:`predicted_price`.
    The rows are priced a block of about ``_GRID_BLOCK`` cells at a time, so
    the temporaries stay that small whatever the grid's size.
    """
    factors = np.array([1.0 + a / 100.0 for a in range(action_min, action_min + n_actions)])
    grid = np.empty((len(prices), n_actions))
    step = max(1, _GRID_BLOCK // n_actions)
    for lo in range(0, len(prices), step):
        block = np.array(prices[lo : lo + step], dtype=np.float64)
        grid[lo : lo + step] = round_prices_fast(block[:, None] * factors)
    return grid


class _Learner:
    """The training engine: one run's episodes over one model and one :class:`TrainingDays`.

    It owns what makes a run: the reward kind, ``model.reward``, checked here;
    the generator seeded from ``model.config.seed``; and the epsilon schedule,
    each :meth:`episode` running at :func:`epsilon_at` of the episodes run
    before it, which it lists in ``epsilons``. It reads a view of each
    visited state's Q-row and that row's max and first argmax from
    ``model.table`` once, and keeps them current as its episodes write
    Q-values. Between episodes the table may be read, as :func:`predict_days`
    does, but not written: an edit made elsewhere is not seen. A kept max
    equals the row's max bit for bit unless the row holds both zeros; an
    update never writes -0.0 over +0.0, so a run from :meth:`QModel.zeros`
    has none.

    It prices every (day, action) pair up front, in one :func:`_price_grid`
    per run, and each NaN cell of that grid the first time an episode picks
    it. For the ``cdr`` reward it keeps each day's ``1 + alpha`` and
    tolerance, the two inputs of :func:`zero_reward_points` that do not
    depend on the previous prediction.
    """

    def __init__(self, model: QModel, days: TrainingDays) -> None:
        if model.reward not in REWARD_KINDS:
            raise QLearnError(
                f"unknown reward kind {model.reward!r}, expected one of {REWARD_KINDS}"
            )
        prices = days.prices
        n = len(prices)
        if n < 2:
            raise QLearnError(f"need at least 2 days, got {n}")
        cfg = model.config
        self.config, self.days, self.kind = cfg, days, model.reward
        self.action_min, self.n_actions = cfg.action_min, cfg.n_actions
        self.theta, self.gamma = cfg.theta, cfg.gamma
        self.rng = np.random.default_rng(cfg.seed)
        self.epsilons: list[float] = []
        table = model.table
        self.q_rows = [table[s.price_bin, s.sentiment_bin] for s in days.states]
        self.best = [int(row.argmax()) for row in self.q_rows]
        self.top = [row.item(i) for row, i in zip(self.q_rows, self.best)]
        # predicted[t][i] is day t + 1's prediction from day t's price by action index i.
        self.predicted = list(_price_grid(prices[:-1], self.action_min, self.n_actions))
        # Day t's 1 + alpha and tolerance, as zero_reward_points computes them.
        self.scale = [math.nan] + [1.0 + (ap - prev) / prev for prev, ap in pairwise(prices)]
        self.tol = [1e-9 * ap for ap in prices]

    def episode(self) -> float:
        """The next chronological pass over the days; returns its mean reward.

        Each step draws, rewards and updates as an epsilon-greedy choice,
        :func:`predicted_price`, the reward functions and the one-step
        bootstrap would; the episode's exploration draws come up front from
        :func:`_explore_draws`.
        """
        epsilon = epsilon_at(self.config, len(self.epsilons))
        self.epsilons.append(epsilon)
        kind, action_min, theta, gamma = self.kind, self.action_min, self.theta, self.gamma
        q_rows, best, top, predicted = self.q_rows, self.best, self.top, self.predicted
        prices, rows = self.days.prices, self.days.rows
        scale, tols = self.scale, self.tol
        n = len(prices)
        total = 0.0
        pp_prev = prices[0]
        s = rows[0]
        for t, i in enumerate(_explore_draws(self.rng, epsilon, n - 1, self.n_actions), 1):
            if i < 0:
                i = best[s]
            ap = prices[t]
            pp = predicted[t - 1].item(i)
            if pp != pp:  # NaN: the fast rounding left this cell to predicted_price
                pp = predicted[t - 1][i] = predicted_price(prices[t - 1], action_min + i)
            if kind == SDR:
                r = reward_sdr(ap, pp)
            elif kind == RDR:
                r = _rdr(ap, pp)
            else:
                # zero_reward_points' l and _cdr, inline; only a degenerate day calls _cdr.
                l = abs(ap - pp_prev * scale[t])
                if l < tols[t]:
                    r = _cdr(ap, pp, ap - l, ap + l, True, tols[t])
                elif pp <= ap:
                    zr = ap - l
                    r = (pp - zr) / (ap - zr) * 100.0
                else:
                    zr = ap + l
                    r = (pp - zr) / (ap - zr) * 100.0
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
    _check_alignment(prices, signals, min_len=3)
    model = QModel.zeros(cfg, reward=kind, attribute=attribute)
    learner = _Learner(model, training_days(prices, signals, cfg))
    mean_rewards = tuple(learner.episode() for _ in range(cfg.episodes))
    return model, TrainLog(mean_rewards, tuple(learner.epsilons))


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
    """Serialize a model: magic, version, JSON config block, row-major table.

    In a regular file, each 64 KiB block of the table whose bits are all zero
    is skipped as a hole, not written; the bytes read back are the same.
    """
    meta = {
        "agent": {**asdict(model.config), "state_mode": "price+sentiment"},
        "reward": model.reward,
        "attribute": model.attribute,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    table = np.ascontiguousarray(model.table, dtype="<f8")
    # Bits, not values: -0.0 and NaN payloads are data.
    words = table.reshape(-1).view("<u8")
    with Path(path).open("wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", _VERSION))
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        handle.write(struct.pack("<III", *table.shape))
        holes = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        for start in range(0, words.size, _BLOCK_WORDS):
            block = words[start : start + _BLOCK_WORDS]
            if holes and not block.any():
                handle.seek(block.nbytes, os.SEEK_CUR)
            else:
                handle.write(block)
        if holes:
            handle.truncate()  # at the table's end, which may lie in a hole


def load_model(path: str | Path) -> QModel:
    """Inverse of :func:`save_model`; rejects foreign or truncated files.

    A regular file whose header claims more bytes than the file holds is
    refused before its config block is read or its table allocated; a pipe
    is read as a stream.

    The table starts as zeros and only the file's data extents are read into
    it, so a hole is never copied and its pages are never touched: loading a
    sparse default-grid model costs its live blocks, not its 37 MB.
    """
    with Path(path).open("rb") as handle:
        info = os.fstat(handle.fileno())
        regular = stat.S_ISREG(info.st_mode)
        head = handle.read(len(_MAGIC) + 8)
        if len(head) < len(_MAGIC) + 8 or not head.startswith(_MAGIC):
            raise ModelFormatError(f"{path}: not a serialized Q-model (bad magic)")
        version, blob_len = struct.unpack_from("<II", head, len(_MAGIC))
        if version != _VERSION:
            raise ModelFormatError(f"{path}: unsupported model version {version}")
        # A header that claims more than the file holds allocates nothing.
        if regular and len(head) + blob_len + 12 > info.st_size:
            raise ModelFormatError(f"{path}: truncated model file")
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
        start = len(head) + blob_len + len(shape_bytes)
        stop = start + 8 * math.prod(shape)
        if regular and info.st_size != stop:
            raise ModelFormatError(f"{path}: truncated model file")
        table = np.zeros(shape, dtype="<f8")
        data = memoryview(table).cast("B")
        # Without hole probes the table is one extent, read from where the handle stands.
        if regular and hasattr(os, "SEEK_DATA"):
            extents = _data_extents(handle, start, stop)
        else:
            extents = [(start, stop)]
        for lo, hi in extents:
            if handle.readinto(data[lo - start : hi - start]) != hi - lo:
                raise ModelFormatError(f"{path}: truncated model file")
        if not regular and handle.read(1):
            raise ModelFormatError(f"{path}: truncated model file")
    attribute = None if meta.get("attribute") is None else Attribute(meta["attribute"])
    return QModel(cfg, table, meta.get("reward"), attribute)


def _data_extents(handle, start: int, stop: int):
    """Yield the ``(lo, hi)`` data extents of a regular file's bytes ``[start, stop)``.

    The handle is at ``lo`` when an extent is yielded; the bytes between
    extents are holes and read as zeros. A filesystem without holes reports
    one extent. The probes go through the handle, not ``os.lseek``, because
    the buffered reader caches its position.
    """
    pos = start
    while pos < stop:
        try:
            pos = handle.seek(pos, os.SEEK_DATA)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            return  # nothing but a hole from pos on
        hi = handle.seek(pos, os.SEEK_HOLE)
        handle.seek(pos)
        yield pos, hi
        pos = hi
