"""Shared builders and measurement helpers for the test suite."""

from __future__ import annotations

import datetime as dt
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import sentiq
from oracles import o_clean
from sentiq.attributes import Attribute
from sentiq.corpus import DayBucket, PriceSeries, TweetRecord, bucket_by_day
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


# Acceptance 04's fragments and glue.
FRAGMENTS = (
    "hello", "WORLD", "BUY", "btc", "Rt", "RT", "rt",
    "@someone", "@BigWhale42", "@@",
    "#btc", "#ToTheMoon", "##tag",
    "http://x.co/a1", "https://Example.COM/page?q=1", "www.chart.io/x",
    "wwww.typo.com", "awww.sleepy",
    "soooo", "mooooon", "!!!!", "....", "..", "...",
    "🚀🚀🚀🚀🚀", "cool.", "a@b.com", "e:mail", "50%", "$1,000",
    "\tindent", "line\nbreak", "  ", "", "ñandú", "ÅNGSTRÖM",
)
GLUE = (" ", " ", " ", "", "  ", "..", ". ")
# Removable noise: a copy of a text that cleans to what the text does.
NOISE = (
    lambda t: "RT " + t,
    lambda t: "@whale " + t,
    lambda t: t.upper(),
    lambda t: t + " http://t.co/x",
    lambda t: "\t" + t.replace(" ", "  ") + "\n",
    lambda t: t + " ....",
)
CLEANS_TO_EMPTY = ("....", "@someone", "RT", "rt @BigWhale42 ..", "http://x.co/a1", "#", "@@ ....")


@st.composite
def raw_days(draw, fragments=FRAGMENTS):
    """Day buckets with noisy same-day copies, empties, tied timestamps and shuffled rows.

    Texts are ``fragments`` joined by glue. Each engagement count is one of a
    few values, so every attribute's ranking meets ties.
    """
    base_texts = st.lists(
        st.tuples(st.sampled_from(fragments), st.sampled_from(GLUE)), min_size=1, max_size=6
    ).map(lambda parts: "".join(f + g for f, g in parts))
    # One pool of texts, so that a text also repeats on other days; some are
    # already clean, so their records come back unchanged.
    clean_texts = base_texts.map(o_clean).filter(bool)
    pool = draw(st.lists(st.one_of(base_texts, clean_texts), min_size=1, max_size=6))
    days = []
    for day in range(draw(st.integers(0, 3))):
        texts = draw(st.lists(st.sampled_from(pool), max_size=8))
        texts += [draw(st.sampled_from(NOISE))(t) for t in texts if draw(st.booleans())]
        texts += draw(st.lists(st.sampled_from(CLEANS_TO_EMPTY), max_size=2))
        texts = [t if t.strip() else "...." for t in texts]  # a record's text is never blank
        n = len(texts)
        # Few distinct timestamps, so ties fall to the id.
        stamps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        counts = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=n, max_size=n))
        ids = draw(st.permutations(range(n)))
        start = T0 + day * 86_400
        records = [
            make_tweet(f"t{i:02d}", start + stamp, text, *count)
            for i, stamp, text, count in zip(ids, stamps, texts, counts)
        ]
        days.append(DayBucket(D0 + dt.timedelta(days=day), tuple(draw(st.permutations(records)))))
    return tuple(days)


def run_python(args, cwd, text: bool = True) -> tuple[int, str | bytes, str | bytes]:
    """Run ``python *args`` in ``cwd`` on the same ``sentiq`` the tests import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=text, cwd=cwd, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args, cwd, text: bool = True) -> tuple[int, str | bytes, str | bytes]:
    """Run ``python -m sentiq.cli *args`` in ``cwd`` on the same ``sentiq`` the tests import."""
    return run_python(["-m", "sentiq.cli", *args], cwd, text)
