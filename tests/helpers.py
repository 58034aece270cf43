"""Shared builders and measurement helpers for the test suite."""

from __future__ import annotations

import datetime as dt
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sentiq
from sentiq.attributes import Attribute
from sentiq.corpus import PriceSeries, TweetRecord, bucket_by_day
from sentiq.sentiment import DailySignal, day_signal

SRC_DIR = str(Path(sentiq.__file__).resolve().parent.parent)
D0 = dt.date(2021, 3, 1)
T0 = 1_614_556_800  # 2021-03-01T00:00:00Z


def make_tweet(
    id: str,
    timestamp: int = T0,
    text: str = "hello world",
    followers: int = 0,
    comments: int = 0,
    likes: int = 0,
    retweets: int = 0,
) -> TweetRecord:
    return TweetRecord(
        id=id,
        timestamp=timestamp,
        text=text,
        followers=followers,
        comments=comments,
        likes=likes,
        retweets=retweets,
    )


def ulps_from(x: float, n: int) -> float:
    """The float ``n`` steps above ``x`` (below it for a negative ``n``)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def make_series(prices, start: dt.date = D0) -> PriceSeries:
    return PriceSeries(start, tuple(float(p) for p in prices))


def make_signals(series: PriceSeries, compounds) -> tuple[DailySignal, ...]:
    return tuple(
        DailySignal(date, float(c), 1) for date, c in zip(series.dates, compounds)
    )


def attribute_signal_series(tweets, series, lexicon, attribute: Attribute | None):
    """Each series day's signal from the pipeline's per-day stage, ``day_signal``."""
    return [day_signal(day, attribute, lexicon)[0] for day in bucket_by_day(tweets, series)]


def signal_return_correlation(tweets, series, lexicon, attribute: Attribute | None) -> float:
    """Correlation between a day's filtered mean compound and the next day's log return."""
    signals = attribute_signal_series(tweets, series, lexicon, attribute)
    next_day_return = np.diff(np.log(np.asarray(series.prices)))
    compound = np.array([s.mean_compound for s in signals])[:-1]
    return float(np.corrcoef(compound, next_day_return)[0, 1])


def run_cli(args, cwd) -> tuple[int, str, str]:
    """Run ``python -m sentiq.cli`` in ``cwd`` on the same ``sentiq`` the tests import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sentiq.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr
