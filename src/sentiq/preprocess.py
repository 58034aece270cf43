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

Every returned string is a fixed point of the pipeline: removals can expose
new noise (a mention hiding a leading ``rt``, a truncated run forming a
``www.`` token) and a single pass would leave it behind. So the sequence is
repeated while a pass changes the text and its output starts with ``rt`` or
holds ``://`` or ``www.``; any other output of a pass is already a fixed
point (see :func:`clean`).

``clean_day`` is the one per-day rule: it cleans a day's raw records and drops
empty texts and same-day duplicates. ``sentiment.day_signal`` scores what it
keeps, and ``clean_days`` (``preprocess`` and ``split``) runs it on each day.
Most days of a corpus that was cleaned once already hold only fixed points of
``clean``, so ``clean_day`` first tests the whole day at once: it joins the
texts with ``"\n"`` and runs a few scans of that one string, each of which
rules out one step of ``clean`` for every text (see
:func:`_all_fixed_points`). A day that passes is only deduplicated; any other
day is cleaned text by text.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from operator import itemgetter

from .corpus import DayBucket, TweetRecord, _by_time_then_id

logger = logging.getLogger(__name__)

_URL_RE = re.compile(r"https?://\S*")
_WWW_RE = re.compile(r"(?<!\S)www\.\S*")
_MENTION_RE = re.compile(r"@\w*")
_DOT_RUN_RE = re.compile(r"\.{2,}")
_CHAR_RUN_RE = re.compile(r"(.)\1{3,}", re.DOTALL)
_FOUR_RUN_RE = re.compile(r"(.)\1\1\1", re.DOTALL)
_text = itemgetter(2)  # a TweetRecord's text
# Every character that str.split() splits on (str.isspace) but " " and "\n";
# tests/unicode_lower.py checks the list against every code point.
_OTHER_SPACES = (
    "\t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


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
    """Normalize one tweet's text; total, never raises, idempotent.

    Passes run until one returns its input, or returns text that neither
    starts with ``rt`` nor holds ``://`` or ``www.``: such a text is already
    a fixed point. A pass removes every ``@``, ``#``, dot run and run of four
    of one character, and none of its later steps can make one again; it
    leaves single spaces and no space at either end; and its text is
    lowercase, where ``str.lower`` changes nothing (``c.lower().lower() ==
    c.lower()`` for every code point). So another pass can only find a
    leading ``rt`` marker (exposed once a mention or URL before it is gone),
    a URL (``://`` formed once a ``#`` is gone) or a ``www.`` token (exposed
    by a dot run or a truncated run), and each of those needs one of the
    three substrings. The test is conservative: it may start a pass that
    changes nothing, but it never skips one that would change something.
    """
    cleaned = _clean_pass(text)
    while cleaned != text and (
        cleaned.startswith("rt") or "://" in cleaned or "www." in cleaned
    ):
        text, cleaned = cleaned, _clean_pass(cleaned)
    return cleaned


def _has_four_run(text: str) -> bool:
    """Whether ``text`` holds four of one character in a row (``_FOUR_RUN_RE``).

    An ASCII text has one byte per character. With ``x`` its bytes as one
    big-endian integer, byte ``i`` of ``x ^ (x >> 8)`` is byte ``i`` of the
    text xor byte ``i - 1``, so for ``i >= 1`` it is zero exactly when
    character ``i`` repeats the one before, and a run of four is three zero
    bytes in a row from index 1 on. Those are a few linear passes in C,
    where the regex tries a match at every position.
    """
    if not text.isascii():
        return _FOUR_RUN_RE.search(text) is not None
    data = text.encode("ascii")
    x = int.from_bytes(data, "big")
    return (x ^ (x >> 8)).to_bytes(len(data), "big").find(b"\0\0\0", 1) != -1


def _all_fixed_points(texts: list[str]) -> bool:
    """Whether :func:`clean` returns each of ``texts`` unchanged, tested all at once.

    ``joined`` holds each text between two ``"\n"``, so a text starts right
    after a ``"\n"`` and ends right before one. Cheap scans of it come first,
    so most days with noise fail at once. When every test passes, each text
    ``t`` holds no ``@``, ``#``, dot run, run of four, ``http://`` or
    ``https://`` (a substring of ``t`` is one of ``joined``), no ``www.`` at
    its start or after a space, and ``t.lower() == t`` (``str.lower`` maps a
    character on its own, apart from a capital sigma, which it always changes,
    and no character lowers to a string that starts with itself). ``joined``
    holds only the ``n + 1`` ``"\n"`` put around the ``n`` texts, so no text
    holds one, and no whitespace but those and spaces (``_OTHER_SPACES``);
    with the ``"\n"`` as spaces it has no two spaces in a row, so every text
    is non-empty and its only whitespace is single spaces between other
    characters. No text is ``rt`` or starts with ``rt ``, and with no leading
    whitespace that is all ``_strip_leading_rt`` removes. So
    ``_clean_pass(t)`` changes no step of ``t`` and returns it, and
    :func:`clean` returns after that one pass.
    """
    joined = "\n".join(("", *texts, ""))
    if "@" in joined or "#" in joined or ".." in joined:
        return False
    if "://" in joined and ("http://" in joined or "https://" in joined):
        return False
    if "www." in joined and ("\nwww." in joined or " www." in joined):
        return False
    if joined.lower() != joined:
        return False
    if "\nrt" in joined and ("\nrt " in joined or "\nrt\n" in joined):
        return False
    if joined.count("\n") != len(texts) + 1 or any(c in joined for c in _OTHER_SPACES):
        return False
    if "  " in joined.replace("\n", " "):
        return False
    return not _has_four_run(joined)


def clean_day(records: tuple[TweetRecord, ...]) -> tuple[list[TweetRecord], int]:
    """One day's raw records cleaned and deduplicated, and how many cleaned to empty.

    The records are taken in (timestamp, id) order and each text is cleaned;
    a text that cleans to empty, or to one an earlier record had, is dropped
    (the first one wins). An unchanged record comes back as the same object,
    a changed one as a copy with the cleaned text.

    When :func:`_all_fixed_points` finds that every text of the day is a
    fixed point of :func:`clean`, no text is cleaned: the day is only
    deduplicated (with no text twice, every record is kept), every kept
    record is the one passed in, and none is empty.
    """
    ordered = sorted(records, key=_by_time_then_id)
    texts = list(map(_text, ordered))
    if _all_fixed_points(texts):
        if len(set(texts)) == len(texts):
            return ordered, 0
        normalize = str  # str(s) == s: the texts stay as they are
    else:
        normalize = clean
    new = tuple.__new__
    seen: set[str] = set()
    kept = []
    empty = 0
    for record in ordered:
        raw = record[2]
        text = normalize(raw)
        if not text:
            empty += 1
        elif text not in seen:
            seen.add(text)
            if text != raw:  # the other fields passed TweetRecord's checks already
                record = new(TweetRecord, (record[0], record[1], text, *record[3:]))
            kept.append(record)
    return kept, empty


def clean_days(buckets: tuple[DayBucket, ...]) -> tuple[DayBucket, ...]:
    """:func:`clean_day` on each day, as buckets; duplicates on later days are kept.

    This is what ``preprocess`` writes and ``split`` ranks; one warning gives
    the number of empty texts over all days.
    """
    days = []
    dropped = 0
    for bucket in buckets:
        kept, empty = clean_day(bucket.tweets)
        days.append(DayBucket(bucket.date, tuple(kept)))
        dropped += empty
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

    No CLI command calls it. It keeps the tweets :func:`clean_day` keeps,
    and the tests check ``clean_days`` and ``day_signal`` against it.
    """
    return dedup(clean_buckets(buckets))
