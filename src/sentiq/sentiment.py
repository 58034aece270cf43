"""Lexicon-based sentiment scoring and per-day signal aggregation.

A lexicon maps lowercase tokens to signed valences. A tweet's raw score is
the sum of valences over its whitespace tokens; trailing exclamation marks
on a matched token (up to three) each scale that token's valence by 1.292.
The raw sum ``s`` is squashed to a compound in (-1, 1) via
``s / sqrt(s^2 + 15)``.

Lexicon files are tab-separated ``token<TAB>valence`` lines; columns past
the second are ignored, which makes the published general-purpose lexicon
files load as-is.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .attributes import Attribute, rank_and_halve
from .corpus import DayBucket, _by_time_then_id
from .errors import LexiconError
from .preprocess import clean

EMPHASIS_FACTOR = 1.292
_MAX_EMPHASIS = 3
_NORMALIZATION = 15.0


@dataclass(frozen=True)
class DailySignal:
    """Mean tweet sentiment for one calendar day."""

    date: dt.date
    mean_compound: float
    tweet_count: int


class Lexicon:
    """Immutable token -> valence mapping."""

    def __init__(self, entries: dict[str, float]):
        self._entries = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, token: str) -> bool:
        return token in self._entries

    def get(self, token: str) -> float | None:
        return self._entries.get(token)

    def items(self):
        return self._entries.items()


def _parse_lexicon(lines, where: str) -> Lexicon:
    entries: dict[str, float] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise LexiconError(f"{where}:{lineno}: expected token<TAB>valence")
        token = parts[0].lower()
        try:
            valence = float(parts[1])
        except ValueError:
            raise LexiconError(f"{where}:{lineno}: unparsable valence {parts[1]!r}") from None
        if not math.isfinite(valence):
            raise LexiconError(f"{where}:{lineno}: unparsable valence {parts[1]!r}")
        if token in entries:
            raise LexiconError(f"{where}:{lineno}: duplicate token {token!r}")
        entries[token] = valence
    return Lexicon(entries)


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a tab-separated lexicon file; tokens are lowercased on load."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        return _parse_lexicon(handle, str(path))


def builtin_lexicon() -> Lexicon:
    """The small market-flavored lexicon shipped with the package."""
    text = resources.files("sentiq.data").joinpath("lexicon.tsv").read_text("utf-8")
    return _parse_lexicon(text.splitlines(), "sentiq/data/lexicon.tsv")


def compound_of(raw_sum: float) -> float:
    return raw_sum / math.sqrt(raw_sum * raw_sum + _NORMALIZATION)


def score(text: str, lexicon: Lexicon) -> float:
    """One text's compound; texts with no lexicon hits score 0."""
    total = 0.0
    for token in text.split():
        bangs = 0
        while token.endswith("!"):
            token = token[:-1]
            bangs += 1
        if not token:
            continue
        valence = lexicon.get(token)
        if valence is None:
            continue
        total += valence * EMPHASIS_FACTOR ** min(bangs, _MAX_EMPHASIS)
    return compound_of(total)


def daily_signal(bucket: DayBucket, lexicon: Lexicon) -> DailySignal:
    """Unweighted mean compound over a day's tweets; empty day -> (0, 0)."""
    if not bucket.tweets:
        return DailySignal(bucket.date, 0.0, 0)
    total = 0.0
    for tweet in bucket.tweets:
        total += score(tweet.clean_text, lexicon)
    return DailySignal(bucket.date, total / len(bucket.tweets), len(bucket.tweets))


def daily_signals(buckets: tuple[DayBucket, ...], lexicon: Lexicon) -> tuple[DailySignal, ...]:
    return tuple(daily_signal(bucket, lexicon) for bucket in buckets)


def day_signal(
    bucket: DayBucket, attribute: Attribute | None, lexicon: Lexicon
) -> tuple[DailySignal, int]:
    """One day's signal from its raw records, and how many records the filter kept.

    The same signal as ranking with :func:`~sentiq.attributes.build_dataset`,
    then :func:`~sentiq.preprocess.clean_and_dedup` and :func:`daily_signal`,
    in one pass: the kept records are taken in (timestamp, id) order, and each
    text is cleaned, dropped when empty or already seen that day (the first
    one wins) and scored.
    """
    if attribute is not None:
        bucket = rank_and_halve(bucket, attribute)
    seen: set[str] = set()
    total = 0.0
    for record in sorted(bucket.tweets, key=_by_time_then_id):
        text = clean(record.text)
        if not text or text in seen:
            continue
        seen.add(text)
        total += score(text, lexicon)
    n = len(seen)
    return DailySignal(bucket.date, total / n if n else 0.0, n), len(bucket.tweets)
