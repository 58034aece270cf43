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
from typing import Iterable

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
    # -0.0 + c == c for every float c (a compound that underflows to -0.0
    # included), so these are the compound's own bits.
    return _compound_sum((text,), lexicon, -0.0)


def _compound_sum(texts: Iterable[str], lexicon: Lexicon, start: float = 0.0) -> float:
    """``start`` plus the texts' compounds, added left to right: scoring, written once.

    :func:`score`, :func:`daily_signals` and :func:`day_signal` call it; the
    loop is inline, with ``compound_of`` written out, because it runs once per
    tweet. A text with no ``!`` carries no emphasis, and ``1.292 ** 0 ==
    1.0``, so its hits are added as they are. ``filter(None, ...)`` also skips
    zero valences: a raw sum starts at +0.0, so it is never -0.0 (in round to
    nearest a sum is -0.0 only when both terms are), and adding +0.0 or -0.0
    to any other float returns it unchanged. Not ``sum()``: from Python 3.12
    it compensates, which changes the bits.
    """
    get = lexicon.get
    sqrt = math.sqrt
    total = start
    for text in texts:
        s = 0.0
        if "!" not in text:
            for valence in filter(None, map(get, text.split())):
                s += valence
        else:
            for token in text.split():
                bangs = 0
                while token.endswith("!"):
                    token = token[:-1]
                    bangs += 1
                if token and (valence := get(token)) is not None:
                    s += valence * EMPHASIS_FACTOR ** min(bangs, _MAX_EMPHASIS)
        total += s / sqrt(s * s + _NORMALIZATION)
    return total


def daily_signals(buckets: tuple[DayBucket, ...], lexicon: Lexicon) -> tuple[DailySignal, ...]:
    """Unweighted mean compound over each day's cleaned tweets; an empty day is (0, 0)."""
    signals = []
    for bucket in buckets:
        total = _compound_sum([tweet.clean_text for tweet in bucket.tweets], lexicon)
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
    the kept texts are scored in (timestamp, id) order in one loop,
    ``_compound_sum``, whose compounds and their sum have the bits of adding
    :func:`score` of each text. The staged
    :func:`~sentiq.attributes.build_dataset`,
    :func:`~sentiq.preprocess.clean_and_dedup` and :func:`daily_signals`
    give the same signal; no command runs that chain.
    """
    if attribute is not None:
        bucket = rank_and_halve(bucket, attribute)
    kept, _ = clean_day(bucket.tweets)
    total = _compound_sum([record[2] for record in kept], lexicon)
    n = len(kept)
    return DailySignal(bucket.date, total / n if n else 0.0, n), len(bucket.tweets)
