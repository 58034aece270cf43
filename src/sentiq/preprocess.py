"""Tweet text normalization and per-day exact deduplication.

``clean`` applies a fixed sequence of noise-removal steps:

1. lowercase
2. drop leading retweet markers (``rt`` tokens) and URLs
3. drop mentions (``@`` plus its word-character tail)
4. strip ``#`` symbols (hashtag words survive)
5. replace runs of two or more dots with a space
6. truncate runs of any character longer than three to exactly three
7. collapse whitespace runs to single spaces
8. trim

The sequence is repeated until the text stops changing, so every returned
string is a fixed point of the pipeline: removals can expose new noise (a
mention hiding a leading ``rt``, a truncated run forming a ``www.`` token)
and a single pass would leave it behind.

``clean_days`` cleans each day's raw records and drops the texts that clean
to empty and same-day duplicates in one pass; ``preprocess`` and ``split``
write its output.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .corpus import DayBucket, TweetRecord, _by_time_then_id

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"https?://\S*")
_WWW_RE = re.compile(r"(?<!\S)www\.\S*")
_MENTION_RE = re.compile(r"@\w*")
_DOT_RUN_RE = re.compile(r"\.{2,}")
_CHAR_RUN_RE = re.compile(r"(.)\1{3,}", re.DOTALL)
_FOUR_RUN_RE = re.compile(r"(.)\1\1\1", re.DOTALL)


def _strip_leading_rt(text: str) -> str:
    while True:
        stripped = text.lstrip()
        if stripped == "rt":
            return ""
        if stripped.startswith("rt") and len(stripped) > 2 and stripped[2].isspace():
            text = stripped[3:]
            continue
        return stripped


def _clean_pass(text: str) -> str:
    """One pass of steps 1-8.

    A substitution runs only when the text holds what its pattern needs in
    order to match (``://``, ``www.``, ``@``, ``..``, four of one character
    in a row), so skipping it changes nothing. Steps 7 and 8 are
    ``" ".join(t.split())``: ``str.split`` splits on the characters ``re``
    matches with ``\\s``.
    """
    t = _strip_leading_rt(text.lower())
    if "://" in t:
        t = _URL_RE.sub("", t)
    if "www." in t:
        t = _WWW_RE.sub("", t)
    if "@" in t:
        t = _MENTION_RE.sub("", t)
    t = t.replace("#", "")
    if ".." in t:
        t = _DOT_RUN_RE.sub(" ", t)
    if _FOUR_RUN_RE.search(t):
        t = _CHAR_RUN_RE.sub(lambda m: m.group(1) * 3, t)
    return " ".join(t.split())


def clean(text: str) -> str:
    """Normalize one tweet's text; total, never raises, idempotent."""
    while True:
        cleaned = _clean_pass(text)
        if cleaned == text:
            return cleaned
        text = cleaned


def clean_days(buckets: tuple[DayBucket, ...]) -> tuple[DayBucket, ...]:
    """Each day's raw records cleaned and deduplicated in one pass, as records.

    A day's records are taken in (timestamp, id) order and each text is
    cleaned; a record whose text cleans to empty, or to a text an earlier
    record of that day already had, is dropped (the first one wins), while
    duplicates on later days are kept. An unchanged record comes back as the
    same object and a changed one as a copy with the cleaned text. This is
    what ``preprocess`` writes and ``split`` ranks; one warning gives the
    number of empty texts over all days.
    """
    new = tuple.__new__
    days = []
    dropped = 0
    for bucket in buckets:
        seen: set[str] = set()
        kept = []
        for record in sorted(bucket.tweets, key=_by_time_then_id):
            raw = record[2]
            text = clean(raw)
            if not text:
                dropped += 1
            elif text not in seen:
                seen.add(text)
                if text != raw:  # the other fields passed TweetRecord's checks already
                    record = new(TweetRecord, (
                        record[0], record[1], text, record[3], record[4], record[5], record[6]
                    ))
                kept.append(record)
        days.append(DayBucket(bucket.date, tuple(kept)))
    if dropped:
        logger.warning("dropped %d tweets whose text cleaned to empty", dropped)
    return tuple(days)


@dataclass(frozen=True)
class CleanTweet:
    """A tweet paired with its normalized text, the record of the staged path."""

    original: TweetRecord
    clean_text: str


def clean_buckets(buckets: tuple[DayBucket, ...]) -> tuple[DayBucket, ...]:
    """Clean every tweet of each day; drops tweets whose text cleans to empty.

    The first stage of the staged path, which no CLI command calls; it stays
    for the reference tests and for perfbench's tracer, which wraps
    ``clean_buckets`` and :func:`dedup` by name.
    """
    cleaned = []
    dropped = 0
    for bucket in buckets:
        kept: list[CleanTweet] = []
        for tweet in bucket.tweets:
            text = clean(tweet.text)
            if text:
                kept.append(CleanTweet(tweet, text))
            else:
                dropped += 1
        cleaned.append(DayBucket(bucket.date, tuple(kept)))
    if dropped:
        logger.warning("dropped %d tweets whose text cleaned to empty", dropped)
    return tuple(cleaned)


def dedup(buckets: tuple[DayBucket, ...]) -> tuple[DayBucket, ...]:
    """Remove same-day exact duplicates of ``clean_text``.

    Within each day the first occurrence (by timestamp, then id) survives;
    duplicates on later days are distinct observations and are kept. No CLI
    command calls it (see :func:`clean_buckets`).
    """
    out = []
    for bucket in buckets:
        ordered = sorted(bucket.tweets, key=lambda c: (c.original.timestamp, c.original.id))
        seen: set[str] = set()
        kept = []
        for tweet in ordered:
            if tweet.clean_text in seen:
                continue
            seen.add(tweet.clean_text)
            kept.append(tweet)
        out.append(DayBucket(bucket.date, tuple(kept)))
    return tuple(out)


def clean_and_dedup(buckets: tuple[DayBucket, ...]) -> tuple[DayBucket, ...]:
    """Bucket-wise clean + per-day dedup, as ``CleanTweet`` objects.

    No CLI command calls it. It keeps the tweets :func:`clean_days` keeps,
    and the tests check ``clean_days`` against it.
    """
    return dedup(clean_buckets(buckets))
