"""Tweet and daily-price ingestion.

File formats:

* tweets (CSV): header ``id,timestamp,text,followers,comments,likes,retweets``;
  ``timestamp`` is integer epoch seconds (UTC) within the years 1 to 9999,
  the four trailing columns are non-negative integer engagement counts.
* tweets (JSONL): one object per line with the same seven keys, written as
  ``json.dumps`` of the seven keys in header order (ASCII-escaped, ``", "``
  and ``": "`` separators).
* prices (CSV): header ``date,price``; ISO dates, one row per calendar day with
  no gaps, strictly increasing (a row out of order or after a gap is an error
  naming its line); prices are positive and rounded to two fraction digits
  (half away from zero) on ingest. ``evaluate`` reads any finite prices, in
  any order and with gaps (:func:`load_dated_prices`).

Every CSV file the package writes has the bytes of :func:`write_csv`.
:func:`write_tweets` formats tweet rows itself, a block at a time, and hands
``csv.writer`` the rest of the file from the first block where an id or text
holds a comma, a double quote, a CR, an LF or a NUL. A file that is not
UTF-8 text stops the load with an error naming the file.
Day bucketing uses UTC calendar days throughout.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import logging
import math
from dataclasses import dataclass
from decimal import (
    ROUND_HALF_UP,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusError

logger = logging.getLogger(__name__)

TWEET_FIELDS = ("id", "timestamp", "text", "followers", "comments", "likes", "retweets")
PRICE_FIELDS = ("date", "price")
TWEET_FORMATS = ("csv", "jsonl")
_FORMAT_CHOICES = " or ".join(map(repr, TWEET_FORMATS))
_COUNT_FIELDS = ("followers", "comments", "likes", "retweets")
_INT_FIELDS = ("timestamp", *_COUNT_FIELDS)
_DAY_S = 86_400
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_tweet_fields = itemgetter(*TWEET_FIELDS)
_by_time_then_id = itemgetter(1, 0)  # (timestamp, id) of a TweetRecord
# One JSONL line: the bytes of json.dumps(dict(zip(TWEET_FIELDS, record))).
# "%d" writes an int subclass's digits as int.__repr__ does, as json does.
_JSONL_LINE = "{%s}\n" % ", ".join(
    f'"{name}": %{"d" if name in _INT_FIELDS else "s"}' for name in TWEET_FIELDS
)
# One tweet CSV row as csv.writer's default dialect writes it when neither
# the id nor the text holds one of _CSV_SPECIALS, which it quotes or refuses.
_CSV_HEADER = (",".join(TWEET_FIELDS) + "\r\n").encode("ascii")
_CSV_LINE = "%s,%d,%s,%d,%d,%d,%d\r\n"
_CSV_SPECIALS = b',"\r\n\0'
_CSV_LINE_SPECIALS = sum(map(_CSV_LINE.encode().count, _CSV_SPECIALS))  # 6 commas, CR, LF
_CSV_BLOCK_ROWS = 2048
_JSON_WS = " \t\n\r"
# json.loads without its Python-level wrappers: scan_once(s, 0) -> (value, end).
_scan_json = make_scanner(json.JSONDecoder())


# round_price's own decimal context, every field set here, so that neither the
# caller's context nor decimal.DefaultContext reaches it. Each call runs in a copy.
_CENTS_CONTEXT = Context(
    prec=28, rounding=ROUND_HALF_UP, Emin=-999_999, Emax=999_999, capitals=1, clamp=0,
    flags=[], traps=[InvalidOperation, DivisionByZero, Overflow],
)
_CENT = Decimal("0.01")
# round_price's float fast path: taken for a value whose cents c lie below
# _FAST_CENTS and whose fraction lies more than c * _TIE_MARGIN from one half.
# The margin alone ends the path near 5e13 cents; the _FAST_CENTS test keeps
# an infinite c (a value from about 1.8e306 up) from math.floor. qlearn's
# round_prices_fast takes the same path over an array, with the same margin.
_FAST_CENTS = 2.0**50
_TIE_MARGIN = 1e-14


def round_price(value: float | int | str | Decimal) -> float:
    """Round to two fraction digits, ties away from zero (99.999 -> 100.0).

    The value is read as the decimal ``str(value)`` gives (a float's shortest
    repr) and rounded half up in a private 28-digit context, whatever
    ``decimal`` context the caller has set, so 10**26 and up have no room for
    cents. A float ``v`` with ``0 < v`` and ``c = v * 100 < 2**50`` may take
    a float fast path with the same result: ``floor(c)`` plus one when the
    fraction ``f`` of ``c`` is above one half, over 100. ``c`` lies within
    about ``2.2e-16 * c`` of 100 times ``repr(v)``, so the fast path is taken
    only when ``|f - 0.5| > c * 1e-14``, a margin of about 45 times; a value
    that near a half-cent tie, and every other input, goes through
    ``Decimal``. That margin ends the fast path near ``c = 5e13`` (5e11
    dollars), well below ``2**50``; the ``2**50`` test decides only for a
    value from about 1.8e306 up, whose ``c`` is infinite, so that
    ``math.floor`` never sees an infinity. A NaN comes back as NaN; an
    infinity, a string that is not a number, or a value too large for 28
    digits (1e307) raises :class:`CorpusError`.
    """
    if type(value) is float and 0.0 < value:
        c = value * 100.0
        if c < _FAST_CENTS:
            whole = math.floor(c)
            frac = c - whole  # exact: c and whole lie below 2**50
            if abs(frac - 0.5) > c * _TIE_MARGIN:
                return (whole + (frac > 0.5)) / 100
    with localcontext(_CENTS_CONTEXT):
        try:
            number = Decimal(str(value))
        except InvalidOperation:
            raise CorpusError(f"not a number: {value!r}") from None
        try:
            return float(number.quantize(_CENT))
        except InvalidOperation:  # infinite, or more digits than the context holds
            reason = "not a number"
            if number.is_finite():
                reason = f"too large to round to cents in {_CENTS_CONTEXT.prec} digits"
            raise CorpusError(f"{reason}: {value!r}") from None


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

    A named tuple: ``TweetRecord(...)`` checks every field, the one
    definition of a valid tweet, and ``TweetRecord._make(values)`` builds one
    from values that already pass those checks without running them again.
    """

    __slots__ = ()

    def __new__(
        cls, id: str, timestamp: int, text: str, followers: int, comments: int, likes: int,
        retweets: int,
    ) -> "TweetRecord":
        if not isinstance(id, str) or not id:
            raise CorpusError("field 'id': must be a non-empty string")
        # One chained test passes the usual all-plain-int case; the loop then
        # names the first non-integer and stores other int subclasses as int.
        if not (
            int is type(timestamp) is type(followers) is type(comments) is type(likes)
            is type(retweets)
        ):
            ints = (timestamp, followers, comments, likes, retweets)
            for name, value in zip(_INT_FIELDS, ints):
                if not isinstance(value, int) or value is True or value is False:
                    raise CorpusError(f"field '{name}': not an integer: {value!r}")
            timestamp, followers, comments, likes, retweets = map(int, ints)
        if not isinstance(text, str) or not text or text.isspace():
            raise CorpusError("field 'text': must be non-empty text")
        if (followers | comments | likes | retweets) < 0:
            counts = (followers, comments, likes, retweets)
            name = next(name for name, value in zip(_COUNT_FIELDS, counts) if value < 0)
            raise CorpusError(f"tweet {id}: {name} must be a non-negative integer")
        if not _MIN_TIMESTAMP <= timestamp <= _MAX_TIMESTAMP:
            raise CorpusError(
                f"field 'timestamp': {timestamp} is outside the UTC days of years 1 to 9999"
            )
        return tuple.__new__(cls, (id, timestamp, text, followers, comments, likes, retweets))

    def day(self) -> dt.date:
        return day_of(self.timestamp)


def _nonpositive_price(day: dt.date, price: float) -> str:
    return f"price on {day} must be positive, got {price}"


@dataclass(frozen=True)
class PriceSeries:
    """Closing prices on consecutive UTC calendar days, the first on ``start``.

    Day ``i`` is ``start + i`` days, so the days are contiguous by
    construction; every price must be positive.
    """

    start: dt.date
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.prices:
            raise CorpusError("price series is empty")
        if self.start.toordinal() + len(self.prices) - 1 > dt.date.max.toordinal():
            raise CorpusError(f"price series runs past {dt.date.max}")
        for i, price in enumerate(self.prices):
            if not price > 0:
                raise CorpusError(_nonpositive_price(self.start + dt.timedelta(days=i), price))

    def __len__(self) -> int:
        return len(self.prices)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        first = self.start.toordinal()
        return tuple(map(dt.date.fromordinal, range(first, first + len(self.prices))))

    def window(self) -> tuple[dt.date, dt.date]:
        """Inclusive (first day, last day) span of the series."""
        return self.start, self.start + dt.timedelta(days=len(self.prices) - 1)

    def slice(self, start: int, stop: int) -> "PriceSeries":
        first = range(len(self.prices))[start:stop].start
        return PriceSeries(self.start + dt.timedelta(days=first), self.prices[start:stop])


@dataclass(frozen=True)
class DayBucket:
    """The tweets of one UTC calendar day.

    ``tweets`` holds raw :class:`TweetRecord` objects in (timestamp, id)
    order after :func:`bucket_by_day`, the input of :func:`sentiq.sentiment.day_signal`
    and :func:`sentiq.preprocess.clean_days`; both clean by the one per-day rule,
    :func:`sentiq.preprocess.clean_day`, whose records keep that order.
    After attribute filtering (``split``) it holds records in rank order
    (attribute descending, then timestamp, then id), and after the staged
    :func:`sentiq.preprocess.clean_buckets`, which no command calls,
    ``CleanTweet`` objects.
    """

    date: dt.date
    tweets: tuple


@dataclass(frozen=True)
class TweetLoadResult:
    """Loaded tweets plus the ingest warning summary."""

    records: tuple[TweetRecord, ...]
    dropped_out_of_window: int
    total_rows: int


def _iso_date(path: Path, line: int, day: str) -> dt.date:
    """The ``date`` field of a ``date,price`` row."""
    try:
        return dt.date.fromisoformat(day)
    except ValueError:
        raise CorpusError(f"{path}:{line}: field 'date': not an ISO date: {day!r}") from None


def csv_rows(path: Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank row of a CSV file with ``header``."""
    expected = ",".join(header)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            got = next(reader, None)
            if got is None:
                raise CorpusError(f"{path}: empty file, expected header {expected}")
            if tuple(got) != header:
                raise CorpusError(
                    f"{path}:1: bad header {','.join(got)!r}, expected header {expected}"
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise CorpusError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                    )
                yield reader.line_num, row
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise CorpusError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _iter_jsonl_rows(path: Path) -> Iterator[tuple[int, tuple]]:
    """``(line number, fields)`` for each non-blank line of a JSONL tweet file.

    A line is one JSON value with only JSON whitespace around it, as for
    ``json.loads(line)``: the C scanner reads the stripped line and its
    value counts only when the scan ends at the end of that string. Every
    other line goes to ``json.loads``, whose error the message carries (a
    number of more digits than ``int`` converts, 4,300 by default, is one),
    but one nested too deeply to scan fails at once: ``json.loads`` recurses too.
    """
    with path.open(encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                stripped = line.strip(_JSON_WS)
                try:
                    obj, end = _scan_json(stripped, 0)
                except (StopIteration, ValueError):  # ValueError: bad JSON, or too many digits
                    end = -1
                except RecursionError:
                    raise CorpusError(f"{path}:{lineno}: invalid JSON: nested too deeply") from None
                if end != len(stripped):
                    try:
                        obj = json.loads(line)
                    except ValueError as exc:
                        raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                if not isinstance(obj, dict):
                    raise CorpusError(f"{path}:{lineno}: expected an object per line")
                try:
                    fields = _tweet_fields(obj)
                except KeyError:
                    missing = next(k for k in TWEET_FIELDS if k not in obj)
                    raise CorpusError(f"{path}:{lineno}: missing field '{missing}'") from None
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text: {exc.reason}") from None


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
        raise CorpusError(f"unknown tweet format {format!r}, expected {_FORMAT_CHOICES}")

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
        # A row passes this check only if TweetRecord(...) accepts the same
        # converted values. Every other row goes to TweetRecord(...) as the
        # conversions below left it, which accepts it or names the field at
        # fault: the integer fields before the first that failed are ints,
        # and that one keeps its value.
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
            if type(tweet_id) is int:  # a JSONL id written as a number
                tweet_id = str(tweet_id)
            try:
                record = TweetRecord(tweet_id, ts, text, followers, comments, likes, retweets)
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
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
        _write_tweet_csv(records, path)
    elif format == "jsonl":
        quote = encode_basestring_ascii
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(
                _JSONL_LINE % (quote(i), ts, quote(text), followers, comments, likes, retweets)
                for i, ts, text, followers, comments, likes, retweets in records
            )
    else:
        raise CorpusError(f"unknown tweet format {format!r}, expected {_FORMAT_CHOICES}")
    return len(records)


def _write_tweet_csv(records: Sequence[TweetRecord], path: Path) -> None:
    """Write ``records`` with the bytes of :func:`write_csv`, one format string a row.

    Rows go out a block at a time. From the first block that holds a row that
    does not format or encode, or an id or text holding a comma, a double
    quote, a CR, an LF or a NUL, ``csv.writer`` writes that block and the
    rest on the same handle: it quotes the first four and, on Python 3.10,
    refuses a NUL. Nothing written is taken back, so a pipe or a device gets
    the same bytes as a file. UTF-8 puts no ASCII byte inside a multi-byte
    character, so a block's count of those bytes finds them.
    """
    with path.open("wb") as handle:
        handle.write(_CSV_HEADER)
        for start in range(0, len(records), _CSV_BLOCK_ROWS):
            block = records[start : start + _CSV_BLOCK_ROWS]
            try:
                body = "".join([_CSV_LINE % record for record in block]).encode("utf-8")
                specials = len(body) - len(body.translate(None, _CSV_SPECIALS))
            except ValueError:  # UnicodeEncodeError, or an int of too many digits
                specials = -1
            if specials != len(block) * _CSV_LINE_SPECIALS:
                with io.TextIOWrapper(handle, encoding="utf-8", newline="") as text:
                    csv.writer(text).writerows(records[start:])
                return
            handle.write(body)


def load_prices(path: str | Path) -> PriceSeries:
    """Load a daily price CSV (``date,price``), rounding prices on ingest.

    The one check of day order: each row must be the day after the row before.
    """
    path = Path(path)
    start: dt.date | None = None
    prices: list[float] = []
    for line, (day, price) in csv_rows(path, PRICE_FIELDS):
        date = _iso_date(path, line, day)
        try:
            value = round_price(price)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{line}: field 'price': {exc}") from None
        if not value > 0:
            raise CorpusError(f"{path}:{line}: {_nonpositive_price(date, value)}")
        if start is None:
            start = date
        expected = start + dt.timedelta(days=len(prices))
        if date != expected:
            raise CorpusError(f"{path}:{line}: field 'date': expected {expected}, got {date}")
        prices.append(value)
    if start is None:
        raise CorpusError(f"{path}: price series is empty")
    return PriceSeries(start, tuple(prices))


def write_prices(series: PriceSeries, path: str | Path) -> int:
    return write_dated_prices(series.dates, series.prices, path)


def load_dated_prices(path: str | Path) -> dict[dt.date, float]:
    """A ``date,price`` CSV as a mapping: any finite prices, no repeated date."""
    path = Path(path)
    out: dict[dt.date, float] = {}
    for line, (day, price) in csv_rows(path, PRICE_FIELDS):
        date = _iso_date(path, line, day)
        try:
            value = float(price)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CorpusError(f"{path}:{line}: field 'price': not a finite number: {price!r}")
        if date in out:
            raise CorpusError(f"{path}:{line}: duplicate date {date}")
        out[date] = value
    return out


def write_dated_prices(dates: Iterable[dt.date], prices: Sequence[float], path: str | Path) -> int:
    """Write ``date,price`` rows (ISO dates, two fraction digits); returns the row count."""
    write_csv(path, PRICE_FIELDS, ((d.isoformat(), f"{p:.2f}") for d, p in zip(dates, prices)))
    return len(prices)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file: UTF-8, the header row first, every line ended by CRLF."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
    start = _day_start(series.start)
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
