"""Tweet and daily-price ingestion.

File formats:

* tweets (CSV): header ``id,timestamp,text,followers,comments,likes,retweets``;
  ``timestamp`` is integer epoch seconds (UTC) within the years 1 to 9999,
  the four trailing columns are non-negative integer engagement counts.
* tweets (JSONL): one object per line with the same seven keys.
* prices (CSV): header ``date,price``; ISO dates, one row per calendar day with
  no gaps, strictly increasing; prices are positive and rounded to two fraction
  digits (half away from zero) on ingest.

Day bucketing uses UTC calendar days throughout.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusError

logger = logging.getLogger(__name__)

TWEET_FIELDS = ("id", "timestamp", "text", "followers", "comments", "likes", "retweets")
_COUNT_FIELDS = ("followers", "comments", "likes", "retweets")
_DAY_S = 86_400
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_tweet_fields = itemgetter(*TWEET_FIELDS)
_by_time_then_id = itemgetter(1, 0)  # (timestamp, id) of a TweetRecord


def round_price(value: float | int | str | Decimal) -> float:
    """Round to two fraction digits, ties away from zero (99.999 -> 100.0)."""
    try:
        quantized = Decimal(str(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    except InvalidOperation as exc:
        raise CorpusError(f"not a decimal number: {value!r}") from exc
    return float(quantized)


def _day_start(day: dt.date) -> int:
    """Epoch second at which a UTC calendar day begins.

    Day ``d`` holds the timestamps ``ts`` with
    ``_day_start(d) <= ts < _day_start(d) + _DAY_S``; every day lookup in this
    module is this integer arithmetic.
    """
    return (day.toordinal() - _EPOCH_ORDINAL) * _DAY_S


# Timestamps whose UTC day is a ``datetime.date`` (years 1 to 9999).
_MIN_TIMESTAMP = _day_start(dt.date.min)
_MAX_TIMESTAMP = _day_start(dt.date.max) + _DAY_S - 1


def day_of(timestamp: int) -> dt.date:
    """UTC calendar day containing an epoch-second timestamp."""
    return dt.date.fromordinal(_EPOCH_ORDINAL + timestamp // _DAY_S)


class _TweetFields(NamedTuple):
    id: str
    timestamp: int
    text: str
    followers: int
    comments: int
    likes: int
    retweets: int


class TweetRecord(_TweetFields):
    """One raw tweet with its engagement counts.

    A named tuple: ``TweetRecord(...)`` checks every field, and
    ``TweetRecord._make(values)`` builds one from values that already pass
    those checks without running them again.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, timestamp: int, text: str, followers: int, comments: int, likes: int,
        retweets: int,
    ) -> "TweetRecord":
        if not id:
            raise CorpusError("tweet id must be non-empty")
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise CorpusError(f"tweet {id}: timestamp must be an integer")
        if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:
            raise CorpusError(f"tweet {id}: timestamp outside years 1 to 9999")
        if not text.strip():
            raise CorpusError(f"tweet {id}: text is empty")
        for name, value in zip(_COUNT_FIELDS, (followers, comments, likes, retweets)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise CorpusError(f"tweet {id}: {name} must be a non-negative integer")
        return tuple.__new__(cls, (id, timestamp, text, followers, comments, likes, retweets))

    def day(self) -> dt.date:
        return day_of(self.timestamp)


@dataclass(frozen=True)
class PricePoint:
    """Closing price for one calendar day."""

    date: dt.date
    price: float

    def __post_init__(self) -> None:
        if not self.price > 0:
            raise CorpusError(f"price on {self.date} must be positive, got {self.price}")


@dataclass(frozen=True)
class PriceSeries:
    """Contiguous daily price series (strictly increasing dates, no gaps)."""

    points: tuple[PricePoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise CorpusError("price series is empty")
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.date <= prev.date:
                raise CorpusError(
                    f"price dates not strictly increasing: {cur.date} after {prev.date}"
                )
            if (cur.date - prev.date).days != 1:
                raise CorpusError(
                    f"price series has a gap: missing {prev.date + dt.timedelta(days=1)}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> PricePoint:
        return self.points[index]

    def __iter__(self) -> Iterator[PricePoint]:
        return iter(self.points)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(p.date for p in self.points)

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(p.price for p in self.points)

    def window(self) -> tuple[dt.date, dt.date]:
        """Inclusive (first day, last day) span of the series."""
        return self.points[0].date, self.points[-1].date

    def slice(self, start: int, stop: int) -> "PriceSeries":
        return PriceSeries(self.points[start:stop])


@dataclass(frozen=True)
class DayBucket:
    """The tweets of one UTC calendar day.

    ``tweets`` holds raw :class:`TweetRecord` objects after :func:`bucket_by_day`
    (in (timestamp, id) order) and after attribute filtering (in rank order:
    attribute descending, then timestamp, then id), and ``CleanTweet`` objects
    after :func:`sentiq.preprocess.clean_buckets`.
    """

    date: dt.date
    tweets: tuple


@dataclass(frozen=True)
class TweetLoadResult:
    """Loaded tweets plus the ingest warning summary."""

    records: tuple[TweetRecord, ...]
    dropped_out_of_window: int
    total_rows: int


def _int_field(name: str, value) -> int:
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CorpusError(f"field '{name}': not an integer: {value!r}")


def _build_record(fields: Sequence) -> TweetRecord:
    """One tweet from its fields in ``TWEET_FIELDS`` order, each converted and checked once.

    Raises :class:`CorpusError` without a location; the caller prefixes it.
    """
    tweet_id, timestamp, text, followers, comments, likes, retweets = fields
    if isinstance(tweet_id, int) and not isinstance(tweet_id, bool):
        tweet_id = str(tweet_id)
    if not isinstance(tweet_id, str) or not tweet_id:
        raise CorpusError("field 'id': must be a non-empty string")
    timestamp = _int_field("timestamp", timestamp)
    followers = _int_field("followers", followers)
    comments = _int_field("comments", comments)
    likes = _int_field("likes", likes)
    retweets = _int_field("retweets", retweets)
    if not isinstance(text, str) or not text or text.isspace():
        raise CorpusError("field 'text': must be non-empty text")
    if followers < 0 or comments < 0 or likes < 0 or retweets < 0:
        counts = (followers, comments, likes, retweets)
        name = next(name for name, value in zip(_COUNT_FIELDS, counts) if value < 0)
        raise CorpusError(f"tweet {tweet_id}: {name} must be a non-negative integer")
    if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:
        raise CorpusError(
            f"field 'timestamp': {timestamp} is outside the UTC days of years 1 to 9999"
        )
    return TweetRecord._make((tweet_id, timestamp, text, followers, comments, likes, retweets))


def csv_rows(path: Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank row of a CSV file with ``header``."""
    expected = ",".join(header)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        if got is None:
            raise CorpusError(f"{path}: empty file, expected header {expected}")
        if tuple(got) != header:
            raise CorpusError(f"{path}:1: bad header {','.join(got)!r}, expected header {expected}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise CorpusError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, row


def _iter_jsonl_rows(path: Path) -> Iterator[tuple[int, tuple]]:
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}:{lineno}: expected an object per line")
            try:
                fields = _tweet_fields(obj)
            except KeyError:
                missing = next(k for k in TWEET_FIELDS if k not in obj)
                raise CorpusError(f"{path}:{lineno}: missing field '{missing}'") from None
            yield lineno, fields


def load_tweets(
    path: str | Path,
    format: str = "csv",
    window: tuple[dt.date, dt.date] | None = None,
) -> TweetLoadResult:
    """Load and validate a tweet file.

    Records dated (UTC) outside the inclusive ``window`` are dropped and
    counted in the returned summary; a warning is logged when any are dropped.
    Duplicate ids, unknown formats, and malformed rows raise
    :class:`~sentiq.errors.CorpusError` naming the offending line and field.
    """
    path = Path(path)
    if format == "csv":
        rows = csv_rows(path, TWEET_FIELDS)
    elif format == "jsonl":
        rows = _iter_jsonl_rows(path)
    else:
        raise CorpusError(f"unknown tweet format {format!r}, expected 'csv' or 'jsonl'")

    if window is None:
        lo, hi = _MIN_TIMESTAMP, _MAX_TIMESTAMP + 1
    else:
        lo, hi = _day_start(window[0]), _day_start(window[1]) + _DAY_S
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    dropped = 0
    total = 0
    make = TweetRecord._make
    for lineno, fields in rows:
        total += 1
        # A row passes this check only if _build_record accepts it with the
        # same values; every other row goes through _build_record, which
        # accepts it or names the field at fault.
        tweet_id, ts, text, followers, comments, likes, retweets = fields
        try:
            ts = ts if type(ts) is int else int(ts, 10)
            followers = followers if type(followers) is int else int(followers, 10)
            comments = comments if type(comments) is int else int(comments, 10)
            likes = likes if type(likes) is int else int(likes, 10)
            retweets = retweets if type(retweets) is int else int(retweets, 10)
        except (TypeError, ValueError):
            valid = False
        else:
            valid = (
                type(tweet_id) is str and tweet_id
                and type(text) is str and text and not text.isspace()
                and (followers | comments | likes | retweets) >= 0
                and _MIN_TIMESTAMP <= ts <= _MAX_TIMESTAMP
            )
        if valid:
            record = make((tweet_id, ts, text, followers, comments, likes, retweets))
        else:
            try:
                record = _build_record(fields)
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            tweet_id, ts = record.id, record.timestamp
        if tweet_id in seen_ids:
            raise CorpusError(f"{path}:{lineno}: duplicate tweet id {tweet_id!r}")
        seen_ids.add(tweet_id)
        if not lo <= ts < hi:
            dropped += 1
            continue
        records.append(record)
    if dropped:
        logger.warning(
            "%s: dropped %d of %d tweets outside window [%s, %s]",
            path, dropped, total, window[0], window[1],
        )
    return TweetLoadResult(tuple(records), dropped, total)


def write_tweets(records: Iterable[TweetRecord], path: str | Path, format: str = "csv") -> int:
    """Write records in file order; returns the row count."""
    path = Path(path)
    records = list(records)
    if format == "csv":
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(TWEET_FIELDS)
            writer.writerows(records)
    elif format == "jsonl":
        with path.open("w", encoding="utf-8") as handle:
            for r in records:
                handle.write(json.dumps(dict(zip(TWEET_FIELDS, r))) + "\n")
    else:
        raise CorpusError(f"unknown tweet format {format!r}, expected 'csv' or 'jsonl'")
    return len(records)


def load_prices(path: str | Path) -> PriceSeries:
    """Load a daily price CSV (``date,price``), rounding prices on ingest."""
    path = Path(path)
    points: list[PricePoint] = []
    for line, (day, price) in csv_rows(path, ("date", "price")):
        try:
            date = dt.date.fromisoformat(day)
        except ValueError:
            raise CorpusError(f"{path}:{line}: field 'date': not an ISO date: {day!r}") from None
        try:
            value = round_price(price)
        except CorpusError:
            raise CorpusError(f"{path}:{line}: field 'price': not a number: {price!r}") from None
        try:
            points.append(PricePoint(date, value))
        except CorpusError as exc:
            raise CorpusError(f"{path}:{line}: {exc}") from None
    try:
        return PriceSeries(tuple(points))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_prices(series: PriceSeries, path: str | Path) -> int:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "price"])
        for point in series:
            writer.writerow([point.date.isoformat(), f"{point.price:.2f}"])
    return len(series)


def bucket_all_days(records: Iterable[TweetRecord]) -> tuple[DayBucket, ...]:
    """Group tweets by their own UTC days (no price series required)."""
    by_day: dict[dt.date, list[TweetRecord]] = {}
    for record in records:
        by_day.setdefault(record.day(), []).append(record)
    return tuple(
        DayBucket(date, tuple(sorted(by_day[date], key=_by_time_then_id)))
        for date in sorted(by_day)
    )


def bucket_by_day(records: Iterable[TweetRecord], series: PriceSeries) -> tuple[DayBucket, ...]:
    """Group tweets into one bucket per series day, ordered by (timestamp, id).

    A tweet's bucket is ``(timestamp - start) // 86_400``, counted from the
    first second of the series' first day; the series has no gaps, so that
    index is its day's position. Tweets dated outside the series span do not
    belong to any bucket and are ignored; the canonical flow drops them
    earlier via ``load_tweets(window=...)``.
    """
    dates = series.dates
    start = _day_start(dates[0])
    by_day: list[list[TweetRecord]] = [[] for _ in dates]
    n_days = len(dates)
    for record in records:
        index = (record.timestamp - start) // _DAY_S
        if 0 <= index < n_days:
            by_day[index].append(record)
    return tuple(
        DayBucket(date, tuple(sorted(day, key=_by_time_then_id)))
        for date, day in zip(dates, by_day)
    )
