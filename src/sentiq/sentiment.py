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
from types import MappingProxyType

from .attributes import Attribute, rank_and_halve
from .corpus import DayBucket
from .errors import LexiconError
from .preprocess import clean_day

EMPHASIS_FACTOR = 1.292
_MAX_EMPHASIS = 3
_NORMALIZATION = 15.0


@dataclass(frozen=True)
class DailySignal:
    """Mean tweet sentiment for one calendar day."""

    date: dt.date
    mean_compound: float
    tweet_count: int


# An immutable token -> valence mapping: ``Lexicon(entries)`` is a read-only
# view of the dict.
Lexicon = MappingProxyType


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
    """Load a tab-separated lexicon file; tokens are lowercased, a leading BOM is dropped."""
    path = Path(path)
    with path.open(encoding="utf-8-sig") as handle:
        try:
            return _parse_lexicon(handle, str(path))
        except UnicodeDecodeError as exc:
            raise LexiconError(f"{path}: not UTF-8 text: {exc.reason}") from None


def builtin_lexicon() -> Lexicon:
    """The small market-flavored lexicon shipped with the package."""
    text = resources.files("sentiq.data").joinpath("lexicon.tsv").read_text("utf-8")
    return _parse_lexicon(text.splitlines(), "sentiq/data/lexicon.tsv")


def compound_of(raw_sum: float) -> float:
    return raw_sum / math.sqrt(raw_sum * raw_sum + _NORMALIZATION)


def score(text: str, lexicon: Lexicon) -> float:
    """One text's compound; texts with no lexicon hits score 0."""
    total = 0.0
    if "!" not in text:
        # No token carries emphasis, and 1.292 ** 0 == 1.0, so adding the hits
        # as they are, left to right, gives the same bits as the loop below.
        # Not sum(): from Python 3.12 it compensates, which changes the bits.
        for valence in map(lexicon.get, text.split()):
            if valence is not None:
                total += valence
        return compound_of(total)
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


def daily_signals(buckets: tuple[DayBucket, ...], lexicon: Lexicon) -> tuple[DailySignal, ...]:
    """Unweighted mean compound over each day's cleaned tweets; an empty day is (0, 0)."""
    signals = []
    for bucket in buckets:
        total = 0.0
        for tweet in bucket.tweets:
            total += score(tweet.clean_text, lexicon)
        n = len(bucket.tweets)
        signals.append(DailySignal(bucket.date, total / n if n else 0.0, n))
    return tuple(signals)


def day_signal(
    bucket: DayBucket, attribute: Attribute | None, lexicon: Lexicon
) -> tuple[DailySignal, int]:
    """One day's signal from its raw records, and how many records the filter kept.

    This is the pipeline's signal stage: the CLI, :func:`sentiq.bench.compare`
    and the demos run it over :func:`~sentiq.corpus.bucket_by_day`. The day's
    top half by ``attribute`` (all of it for ``None``) goes through
    :func:`~sentiq.preprocess.clean_day`, the one per-day cleaning rule, and
    each kept text is scored in (timestamp, id) order. The staged
    :func:`~sentiq.attributes.build_dataset`,
    :func:`~sentiq.preprocess.clean_and_dedup` and :func:`daily_signals`
    give the same signal; no command runs that chain.
    """
    if attribute is not None:
        bucket = rank_and_halve(bucket, attribute)
    kept, _ = clean_day(bucket.tweets)
    total = 0.0
    for record in kept:
        total += score(record.text, lexicon)
    n = len(kept)
    return DailySignal(bucket.date, total / n if n else 0.0, n), len(bucket.tweets)
