"""Prediction-accuracy metrics for aligned actual/predicted series.

All six metrics are reported raw (no clamping): variance-accounted-for and
the two error percentages can go negative or above 100 on bad fits, and the
coefficient of determination and the efficiency coefficient are negative
whenever the predictor underperforms the actual-series mean. Those two share
one formula (1 - RSS/TSS) and always return identical values.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import SentiqError


class MetricError(SentiqError):
    """Metric undefined for the given inputs (the message names the metric)."""


def _as_arrays(ap: Sequence[float], pp: Sequence[float], metric: str, min_len: int):
    a = np.asarray(ap, dtype=np.float64)
    p = np.asarray(pp, dtype=np.float64)
    if a.ndim != 1 or p.ndim != 1:
        raise MetricError(f"{metric}: inputs must be one-dimensional series")
    if a.shape != p.shape:
        raise MetricError(f"{metric}: length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] < min_len:
        raise MetricError(f"{metric}: need at least {min_len} points, got {a.shape[0]}")
    if not (np.isfinite(a).all() and np.isfinite(p).all()):
        raise MetricError(f"{metric}: inputs must be finite")
    return a, p


def sample_variance(values: Sequence[float]) -> float:
    """Unbiased sample variance (divisor n-1)."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape[0] < 2:
        raise MetricError(f"variance: need at least 2 points, got {x.shape[0]}")
    return float(np.sum((x - x.mean()) ** 2) / (x.shape[0] - 1))


def vaf(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Variance accounted for, percent: (1 - var(ap - pp) / var(ap)) * 100."""
    a, p = _as_arrays(ap, pp, "vaf", 2)
    denom = sample_variance(a)
    if denom == 0.0:
        raise MetricError("vaf: variance of actual series is zero")
    return (1.0 - sample_variance(a - p) / denom) * 100.0


def _one_minus_rss_over_tss(ap, pp, metric: str) -> float:
    a, p = _as_arrays(ap, pp, metric, 2)
    rss = float(np.sum((a - p) ** 2))
    tss = float(np.sum((a - a.mean()) ** 2))
    if tss == 0.0:
        raise MetricError(f"{metric}: actual series is constant")
    return 1.0 - rss / tss


def r2(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Coefficient of determination, 1 - RSS/TSS."""
    return _one_minus_rss_over_tss(ap, pp, "r2")


def nse(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Model-efficiency coefficient; algebraically identical to :func:`r2`."""
    return _one_minus_rss_over_tss(ap, pp, "nse")


def mape(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Mean absolute percentage error."""
    a, p = _as_arrays(ap, pp, "mape", 1)
    if np.any(a == 0.0):
        raise MetricError("mape: actual series contains zero")
    return float(np.mean(np.abs(a - p) / np.abs(a))) * 100.0


def rmse(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Root mean squared error."""
    a, p = _as_arrays(ap, pp, "rmse", 1)
    return float(math.sqrt(np.mean((a - p) ** 2)))


def wmape(ap: Sequence[float], pp: Sequence[float]) -> float:
    """Weighted MAPE: sum of absolute errors over sum of actuals, percent."""
    a, p = _as_arrays(ap, pp, "wmape", 1)
    denom = float(np.sum(a))
    if denom == 0.0:
        raise MetricError("wmape: sum of actual series is zero")
    return float(np.sum(np.abs(a - p))) / denom * 100.0


@dataclass(frozen=True)
class EvalReport:
    """All six metrics for one actual/predicted pair."""

    vaf: float
    r2: float
    mape: float
    nse: float
    rmse: float
    wmape: float
    n: int

    def to_dict(self) -> dict:
        return asdict(self)

    def format_table(self) -> str:
        header = f"{'VAF(%)':>10} {'R2':>10} {'MAPE(%)':>10} {'NSE':>10} {'RMSE':>12} {'WMAPE(%)':>10} {'n':>6}"
        row = (
            f"{self.vaf:>10.4f} {self.r2:>10.4f} {self.mape:>10.4f} "
            f"{self.nse:>10.4f} {self.rmse:>12.4f} {self.wmape:>10.4f} {self.n:>6d}"
        )
        return header + "\n" + row


def evaluate(ap: Sequence[float], pp: Sequence[float]) -> EvalReport:
    """Compute all six metrics; errors from any metric name that metric."""
    a, p = _as_arrays(ap, pp, "evaluate", 2)
    return EvalReport(
        vaf=vaf(a, p),
        r2=r2(a, p),
        mape=mape(a, p),
        nse=nse(a, p),
        rmse=rmse(a, p),
        wmape=wmape(a, p),
        n=int(a.shape[0]),
    )
