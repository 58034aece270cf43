import csv
import dataclasses
import datetime as dt
import decimal
import enum
import json
import logging
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import D0, T0, make_series, make_tweet, ulps_from
from oracles import o_build_record, o_jsonl_rows, o_round_price, o_utc_day
from sentiq.corpus import (
    _MAX_TIMESTAMP,
    _MIN_TIMESTAMP,
    TWEET_FIELDS,
    CorpusError,
    PriceSeries,
    TweetRecord,
    _iter_jsonl_rows,
    bucket_all_days,
    bucket_by_day,
    csv_rows,
    day_of,
    load_prices,
    load_tweets,
    round_price,
    write_prices,
    write_tweets,
)

DAY = 86_400


# ---------------------------------------------------------------------------
# round_price


def test_round_price_half_up():
    assert round_price("99.999") == 100.0
    assert round_price(99.999) == 100.0
    assert round_price("1.005") == 1.01
    assert round_price("1.004") == 1.0
    assert round_price(100) == 100.0


def test_round_price_ties_away_from_zero_for_negatives():
    assert round_price("-1.005") == -1.01


def test_round_price_rejects_garbage():
    with pytest.raises(CorpusError):
        round_price("abc")


def test_a_price_too_large_for_cents_names_the_limit(tmp_path):
    assert round_price("9.99e25") == 9.99e25  # 26 digits and 2 fraction digits fit
    for value in ("1e26", 1e308):
        with pytest.raises(CorpusError, match=r"^too large to round to cents in 28 digits: "):
            round_price(value)
    path = tmp_path / "p.csv"
    path.write_text("date,price\n2021-03-01,1e26\n", encoding="utf-8")
    with pytest.raises(
        CorpusError, match=r":2: field 'price': too large to round to cents in 28 digits: '1e26'$"
    ):
        load_prices(path)
    for value in ("inf", "lots"):
        path.write_text(f"date,price\n2021-03-01,{value}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=rf":2: field 'price': not a number: '{value}'$"):
            load_prices(path)


def test_round_price_keeps_an_infinite_cent_count_off_the_float_path():
    # 1e307 * 100 is inf: the 2**50 test, not the tie margin, keeps it from
    # math.floor, which would raise OverflowError.
    assert 1e307 * 100.0 == math.inf
    with pytest.raises(CorpusError) as info:
        round_price(1e307)
    assert str(info.value) == "too large to round to cents in 28 digits: 1e+307"


def test_round_price_ignores_the_callers_decimal_context():
    # Each case gives what the default context gives, on the float fast path
    # where it applies and on the Decimal path for strings and half-cent ties.
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        assert round_price(12345.678) == round_price("12345.678") == 12345.68
    with decimal.localcontext() as ctx:
        ctx.traps[decimal.Inexact] = True
        assert round_price(1.005) == round_price("1.005") == 1.01
    with decimal.localcontext() as ctx:
        ctx.traps[decimal.InvalidOperation] = False
        for value in (math.inf, "inf", "lots"):
            with pytest.raises(CorpusError, match=r"^not a number: "):
                round_price(value)
        for value in (1e30, "1e30"):
            with pytest.raises(CorpusError, match=r"^too large to round to cents in 28 digits: "):
                round_price(value)


_FAST_PATH_TOP = 2.0**50 / 100  # round_price's float fast path takes values below this


_HALF_CENT_TIES = st.builds(
    lambda cents, ulps, sign: sign * ulps_from((cents + 0.5) / 100, ulps),
    st.integers(0, 2**51),
    st.integers(-4, 4),
    st.sampled_from([1.0, -1.0]),
)
_NEAR_TIES = st.builds(  # just outside the fast path's tie guard, and just inside it
    lambda cents, offset: (cents + 0.5 + offset) / 100,
    st.integers(0, 10**7),
    st.floats(-1e-6, 1e-6),
)
_ROUNDED_INPUTS = st.one_of(
    _HALF_CENT_TIES,
    _NEAR_TIES,
    st.floats(_FAST_PATH_TOP / 4, _FAST_PATH_TOP * 4),
    st.builds(ulps_from, st.just(_FAST_PATH_TOP), st.integers(-4, 4)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(0.0, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.integers(-(10**30), 10**30),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8),
)


@settings(max_examples=3000, deadline=None)
@given(value=_ROUNDED_INPUTS)
def test_round_price_matches_the_decimal_oracle(value):
    def outcome(fn):
        try:
            return struct.pack("<d", fn(value))
        except CorpusError as exc:
            return str(exc)

    assert outcome(round_price) == outcome(o_round_price)


# ---------------------------------------------------------------------------
# record validation


def test_tweet_record_rejects_negative_counts():
    for field in ("followers", "comments", "likes", "retweets"):
        with pytest.raises(CorpusError, match=field):
            make_tweet("t1", **{field: -1})


def test_tweet_record_rejects_empty_id_and_blank_text():
    with pytest.raises(CorpusError):
        make_tweet("")
    with pytest.raises(CorpusError):
        make_tweet("t1", text="   ")


def test_tweet_record_rejects_non_integer_fields():
    with pytest.raises(CorpusError):
        TweetRecord("t1", 1.5, "x", 0, 0, 0, 0)
    with pytest.raises(CorpusError):
        TweetRecord("t1", True, "x", 0, 0, 0, 0)
    with pytest.raises(CorpusError):
        TweetRecord("t1", T0, "x", 0, 0, 0, True)


def test_tweet_record_takes_int_subclasses_other_than_bool():
    class Count(int):
        pass

    record = TweetRecord("t1", Count(T0), "x", Count(1), 0, Count(3), 0)
    assert record == ("t1", T0, "x", 1, 0, 3, 0)
    assert all(type(field) is int for field in record[1:2] + record[3:])
    with pytest.raises(CorpusError, match="field 'likes': not an integer: False"):
        TweetRecord("t1", Count(T0), "x", Count(1), 0, False, 0)


def test_int_subclass_counts_write_a_csv_that_loads(tmp_path):
    # _LoudInt's str() is not its digits; the record keeps only its int value.
    record = TweetRecord("t1", _LoudInt(T0), "x", _LoudInt(3), 0, _Count.FIVE, 0)
    path = tmp_path / "t.csv"
    write_tweets([record], path)
    assert load_tweets(path).records == (("t1", T0, "x", 3, 0, 5, 0),)


def test_tweet_record_rejects_timestamps_outside_date_range():
    first = int(dt.datetime(1, 1, 1, tzinfo=dt.timezone.utc).timestamp())
    last = int(dt.datetime(9999, 12, 31, 23, 59, 59, tzinfo=dt.timezone.utc).timestamp())
    assert [make_tweet("t1", timestamp=ts).day() for ts in (first, last)] == [
        dt.date.min,
        dt.date.max,
    ]
    for ts in (first - 1, last + 1):
        with pytest.raises(
            CorpusError, match=rf"field 'timestamp': {ts} is outside .* years 1 to 9999"
        ):
            make_tweet("t1", timestamp=ts)


def test_tweet_record_checks_id_and_text_types():
    for bad_id in (5, None, b"t1"):
        with pytest.raises(CorpusError, match="field 'id'"):
            TweetRecord(bad_id, T0, "x", 0, 0, 0, 0)
    for bad_text in (None, 5, b"x", ["x"]):
        with pytest.raises(CorpusError, match="field 'text'"):
            TweetRecord("t1", T0, bad_text, 0, 0, 0, 0)


VALID_FIELDS = {
    "id": "t1", "timestamp": T0, "text": "x", "followers": 0, "comments": 0, "likes": 0,
    "retweets": 0,
}


@pytest.mark.parametrize(
    "fault",
    [
        {"id": ""},
        {"id": 1.5},
        {"timestamp": "2021-03-01"},
        {"timestamp": 1.5},
        {"comments": True},
        {"text": "   "},
        {"text": None},
        {"likes": -1},
        {"timestamp": _MAX_TIMESTAMP + 1},
    ],
    ids=lambda fault: "-".join(f"{k}={v!r}" for k, v in fault.items()),
)
def test_tweet_record_and_ingest_give_the_same_message(tmp_path, fault):
    fields = {**VALID_FIELDS, **fault}
    with pytest.raises(CorpusError) as direct:
        TweetRecord(**fields)
    path = write_lines(tmp_path / "t.jsonl", [json.dumps(fields)])
    with pytest.raises(CorpusError) as ingest:
        load_tweets(path, format="jsonl")
    assert str(ingest.value) == f"{path}:1: {direct.value}"


def test_tweet_record_is_a_plain_named_tuple():
    record = make_tweet("t1", T0, "x", followers=1, comments=2, likes=3, retweets=4)
    assert not hasattr(record, "__dict__")
    assert record == ("t1", T0, "x", 1, 2, 3, 4)
    assert TweetRecord._make(record) == record
    assert (record.id, record.timestamp, record.day()) == ("t1", T0, D0)


def test_price_series_prices_must_be_positive():
    for bad in (0.0, -5.0, float("nan")):
        with pytest.raises(CorpusError, match=f"price on {D0 + dt.timedelta(days=1)} must be pos"):
            PriceSeries(D0, (1.0, bad))
    with pytest.raises(CorpusError, match="empty"):
        PriceSeries(D0, ())
    assert PriceSeries(dt.date.max, (1.0,)).window() == (dt.date.max, dt.date.max)
    with pytest.raises(CorpusError, match="runs past 9999-12-31"):
        PriceSeries(dt.date.max, (1.0, 2.0))


def test_price_series_accessors():
    series = make_series([10.0, 11.0, 12.0])
    assert [f.name for f in dataclasses.fields(PriceSeries)] == ["start", "prices"]
    assert series == PriceSeries(D0, (10.0, 11.0, 12.0))
    assert len(series) == 3
    assert series.dates == tuple(D0 + dt.timedelta(days=i) for i in range(3))
    assert series.window() == (D0, D0 + dt.timedelta(days=2))
    assert series.slice(1, 3) == PriceSeries(D0 + dt.timedelta(days=1), (11.0, 12.0))
    assert series.slice(-2, 3) == series.slice(1, 3)
    assert series.slice(0, 9) == series
    assert series.prices == (10.0, 11.0, 12.0)
    with pytest.raises(CorpusError, match="empty"):
        series.slice(3, 3)


# ---------------------------------------------------------------------------
# load_tweets (CSV)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


HEADER = "id,timestamp,text,followers,comments,likes,retweets"


def test_load_tweets_csv_well_formed(tmp_path):
    path = write_lines(
        tmp_path / "t.csv",
        [
            HEADER,
            f"a,{T0},first tweet,1,2,3,4",
            f"b,{T0 + 60},second tweet,5,6,7,8",
            f"c,{T0 + 120},third tweet,9,10,11,12",
        ],
    )
    result = load_tweets(path)
    assert len(result.records) == 3
    assert result.dropped_out_of_window == 0
    assert result.total_rows == 3
    assert result.records[0] == make_tweet(
        "a", T0, "first tweet", followers=1, comments=2, likes=3, retweets=4
    )


def test_load_tweets_negative_count_names_line(tmp_path):
    path = write_lines(
        tmp_path / "t.csv",
        [HEADER, f"a,{T0},ok,1,1,1,1", f"b,{T0},bad,-1,0,0,0"],
    )
    with pytest.raises(CorpusError, match=r":3: .*followers"):
        load_tweets(path)


def test_load_tweets_window_drops_and_warns(tmp_path, caplog):
    rows = [HEADER]
    for i, ts in enumerate([T0 - DAY, T0, T0 + DAY, T0 + 2 * DAY, T0 + 9 * DAY]):
        rows.append(f"t{i},{ts},text {i},0,0,0,0")
    path = write_lines(tmp_path / "t.csv", rows)
    window = (D0, D0 + dt.timedelta(days=2))
    with caplog.at_level(logging.WARNING):
        result = load_tweets(path, window=window)
    assert len(result.records) == 3
    assert result.dropped_out_of_window == 2
    assert result.total_rows == 5
    assert any("dropped 2 of 5" in rec.getMessage() for rec in caplog.records)


def test_load_tweets_duplicate_id(tmp_path):
    path = write_lines(
        tmp_path / "t.csv",
        [HEADER, f"a,{T0},one,0,0,0,0", f"a,{T0 + 1},two,0,0,0,0"],
    )
    with pytest.raises(CorpusError, match="duplicate tweet id"):
        load_tweets(path)


def test_load_tweets_structural_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty file"):
        load_tweets(empty)

    bad_header = write_lines(tmp_path / "h.csv", ["id,timestamp,text", "a,1,x"])
    with pytest.raises(CorpusError, match="bad header"):
        load_tweets(bad_header)

    short_row = write_lines(tmp_path / "s.csv", [HEADER, f"a,{T0},x,0,0,0"])
    with pytest.raises(CorpusError, match=r":2: expected 7 fields"):
        load_tweets(short_row)

    bad_int = write_lines(tmp_path / "i.csv", [HEADER, "a,notanum,x,0,0,0,0"])
    with pytest.raises(CorpusError, match="timestamp"):
        load_tweets(bad_int)

    with pytest.raises(CorpusError, match="unknown tweet format"):
        load_tweets(short_row, format="xml")


def test_load_tweets_rejects_timestamps_outside_date_range(tmp_path):
    # A millisecond epoch (2021-01-01T00:00:00Z * 1000) falls in the year 52971.
    path = write_lines(
        tmp_path / "t.csv", [HEADER, f"a,{T0},ok,0,0,0,0", "b,1609459200000,ms,0,0,0,0"]
    )
    for window in (None, (D0, D0)):
        with pytest.raises(CorpusError) as info:
            load_tweets(path, window=window)
        message = str(info.value)
        assert message.startswith(f"{path}:3: field 'timestamp': 1609459200000 ")
        assert "\n" not in message

    first = int(dt.datetime(1, 1, 1, tzinfo=dt.timezone.utc).timestamp())
    last = first + (dt.date.max - dt.date.min).days * DAY + DAY - 1
    edges = write_lines(tmp_path / "e.csv", [HEADER, f"a,{first},x,0,0,0,0", f"b,{last},y,0,0,0,0"])
    assert [r.day() for r in load_tweets(edges).records] == [dt.date.min, dt.date.max]
    for i, ts in enumerate((first - 1, last + 1)):
        bad = write_lines(
            tmp_path / f"b{i}.jsonl",
            [f'{{"id": "a", "timestamp": {ts}, "text": "x", "followers": 0, "comments": 0, "likes": 0, "retweets": 0}}'],
        )
        with pytest.raises(CorpusError, match=r":1: field 'timestamp'"):
            load_tweets(bad, format="jsonl")


# ---------------------------------------------------------------------------
# load_tweets (JSONL)


def test_load_tweets_jsonl(tmp_path):
    path = write_lines(
        tmp_path / "t.jsonl",
        [
            f'{{"id": "a", "timestamp": {T0}, "text": "first", "followers": 1, "comments": 0, "likes": 0, "retweets": 0}}',
            "",
            f'{{"id": "b", "timestamp": {T0 + 5}, "text": "second", "followers": 2, "comments": 0, "likes": 0, "retweets": 0}}',
            f'{{"id": 42, "timestamp": {T0 + 9}, "text": "third", "followers": 3, "comments": 0, "likes": 0, "retweets": 0}}',
        ],
    )
    result = load_tweets(path, format="jsonl")
    assert [r.id for r in result.records] == ["a", "b", "42"]
    assert result.records[0].followers == 1


def test_load_tweets_jsonl_errors(tmp_path):
    bad_json = write_lines(tmp_path / "a.jsonl", ["{not json"])
    with pytest.raises(CorpusError, match=r":1: invalid JSON"):
        load_tweets(bad_json, format="jsonl")

    not_object = write_lines(tmp_path / "b.jsonl", ["[1, 2]"])
    with pytest.raises(CorpusError, match="expected an object"):
        load_tweets(not_object, format="jsonl")

    missing = write_lines(tmp_path / "c.jsonl", ['{"id": "a", "timestamp": 1}'])
    with pytest.raises(CorpusError, match="missing field 'text'"):
        load_tweets(missing, format="jsonl")

    # More digits than int() converts (4,300 by default) is a bad line, not a crash.
    long_number = write_lines(tmp_path / "d.jsonl", [f'{{"id": "a", "timestamp": {"1" * 5000}}}'])
    with pytest.raises(CorpusError, match=r"d\.jsonl:1: invalid JSON: Exceeds the limit"):
        load_tweets(long_number, format="jsonl")


# ---------------------------------------------------------------------------
# write/load round trips


AWKWARD_TEXTS = [
    'comma, "quoted", done',
    "line one\nline two",
    "tab\there",
    "unicode ☃ emoji 🚀",
    "  padded  ",
]


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_tweets_round_trip(tmp_path, format):
    records = [
        make_tweet(f"t{i}", T0 + i, text, followers=i, comments=2 * i, likes=3 * i, retweets=4 * i)
        for i, text in enumerate(AWKWARD_TEXTS)
    ]
    path = tmp_path / f"rt.{format}"
    assert write_tweets(records, path, format=format) == len(records)
    loaded = load_tweets(path, format=format)
    assert list(loaded.records) == records


def test_load_is_idempotent(tmp_path):
    records = [make_tweet(f"t{i}", T0 + i, f"text {i}") for i in range(10)]
    path = tmp_path / "t.csv"
    write_tweets(records, path)
    first = load_tweets(path)
    second = load_tweets(path)
    assert first.records == second.records


def test_prices_round_trip(tmp_path):
    series = make_series([100.0, 110.55, 99.01])
    path = tmp_path / "p.csv"
    assert write_prices(series, path) == 3
    assert load_prices(path) == series


def test_csv_writers_write_a_header_then_crlf_ended_rows(tmp_path):
    series = make_series([100.0, 110.5, 99.01])
    path = tmp_path / "p.csv"
    write_prices(series, path)
    assert path.read_bytes() == (
        b"date,price\r\n2021-03-01,100.00\r\n2021-03-02,110.50\r\n2021-03-03,99.01\r\n"
    )
    records = [make_tweet("a,b", T0, 'say "hi"\nthere', followers=7), make_tweet("c", T0 + 1)]
    write_tweets(records, path)
    assert path.read_bytes() == (
        b"id,timestamp,text,followers,comments,likes,retweets\r\n"
        b'"a,b",1614556800,"say ""hi""\nthere",7,0,0,0\r\n'
        b"c,1614556801,hello world,0,0,0,0\r\n"
    )


# ---------------------------------------------------------------------------
# load_prices


def test_load_prices_basic(tmp_path):
    path = write_lines(tmp_path / "p.csv", ["date,price", "2021-03-01,100.00", "2021-03-02,110.00"])
    series = load_prices(path)
    assert len(series) == 2
    assert series.prices == (100.0, 110.0)


def test_load_prices_gap_names_missing_day(tmp_path):
    path = write_lines(tmp_path / "p.csv", ["date,price", "2021-03-01,100.00", "2021-03-03,120.00"])
    with pytest.raises(CorpusError, match=r"p\.csv:3: field 'date': expected 2021-03-02, got 2021-03-03"):
        load_prices(path)


def test_csv_field_over_the_size_limit_names_the_line(tmp_path):
    limit = csv.field_size_limit()
    tweets = write_lines(
        tmp_path / "t.csv",
        [HEADER, f"a,{T0},up,1,0,0,0", f"b,{T0 + 1},{'x' * (limit + 1)},1,0,0,0"],
    )
    message = rf"t\.csv:3: field larger than field limit \({limit}\)$"
    with pytest.raises(CorpusError, match=message):
        load_tweets(tweets)
    prices = write_lines(tmp_path / "p.csv", ["date,price", "2021-03-01," + "1" * (limit + 1)])
    with pytest.raises(CorpusError, match=r"p\.csv:2: field larger than field limit"):
        load_prices(prices)


def test_load_prices_rounds_on_ingest(tmp_path):
    path = write_lines(tmp_path / "p.csv", ["date,price", "2021-03-01,99.999"])
    assert load_prices(path).prices == (100.0,)


def test_load_prices_errors(tmp_path):
    nonpos = write_lines(tmp_path / "a.csv", ["date,price", "2021-03-01,1", "2021-03-02,0.004"])
    with pytest.raises(CorpusError, match=r":3: price on 2021-03-02 must be positive"):
        load_prices(nonpos)

    unordered = write_lines(
        tmp_path / "b.csv", ["date,price", "2021-03-02,1", "2021-03-01,2"]
    )
    with pytest.raises(CorpusError, match=r":3: field 'date': expected 2021-03-03, got 2021-03-01"):
        load_prices(unordered)

    duplicate = write_lines(
        tmp_path / "f.csv", ["date,price", "2021-03-01,1", "", "2021-03-02,1", "2021-03-02,2"]
    )
    with pytest.raises(CorpusError, match=r":5: field 'date': expected 2021-03-03, got 2021-03-02"):
        load_prices(duplicate)

    empty = write_lines(tmp_path / "g.csv", ["date,price"])
    with pytest.raises(CorpusError, match=r"g\.csv: price series is empty"):
        load_prices(empty)

    bad_date = write_lines(tmp_path / "c.csv", ["date,price", "marchish,1"])
    with pytest.raises(CorpusError, match=r":2: .*not an ISO date"):
        load_prices(bad_date)

    bad_price = write_lines(tmp_path / "d.csv", ["date,price", "2021-03-01,lots"])
    with pytest.raises(CorpusError, match=r":2: .*not a number"):
        load_prices(bad_price)

    bad_header = write_lines(tmp_path / "e.csv", ["day,close", "2021-03-01,1"])
    with pytest.raises(CorpusError, match="bad header"):
        load_prices(bad_header)


# ---------------------------------------------------------------------------
# day bucketing


def test_bucket_by_day_empty_corpus():
    series = make_series([1.0, 1.5, 2.0])
    buckets = bucket_by_day([], series)
    assert len(buckets) == 3
    assert [b.date for b in buckets] == list(series.dates)
    assert all(b.tweets == () for b in buckets)


def test_bucket_by_day_groups_same_day():
    series = make_series([1.0, 1.5])
    tweets = [make_tweet("a", T0 + 10), make_tweet("b", T0 + 20)]
    buckets = bucket_by_day(tweets, series)
    assert len(buckets[0].tweets) == 2
    assert len(buckets[1].tweets) == 0


def test_bucket_by_day_midnight_boundary():
    series = make_series([1.0, 1.5])
    before = make_tweet("a", T0 + DAY - 1)  # 23:59:59 on day 0
    after = make_tweet("b", T0 + DAY + 1)  # 00:00:01 on day 1
    assert day_of(before.timestamp) == D0
    assert day_of(after.timestamp) == D0 + dt.timedelta(days=1)
    buckets = bucket_by_day([before, after], series)
    assert [t.id for t in buckets[0].tweets] == ["a"]
    assert [t.id for t in buckets[1].tweets] == ["b"]


def test_bucket_by_day_orders_by_timestamp_then_id():
    series = make_series([1.0])
    tweets = [
        make_tweet("z", T0 + 5),
        make_tweet("b", T0 + 9),
        make_tweet("a", T0 + 9),
    ]
    buckets = bucket_by_day(tweets, series)
    assert [t.id for t in buckets[0].tweets] == ["z", "a", "b"]


def test_bucket_by_day_ignores_out_of_span():
    series = make_series([1.0])
    tweets = [make_tweet("in", T0), make_tweet("out", T0 + 3 * DAY)]
    buckets = bucket_by_day(tweets, series)
    assert [t.id for t in buckets[0].tweets] == ["in"]


def test_bucket_all_days_groups_by_own_days():
    tweets = [make_tweet("a", T0), make_tweet("b", T0 + 2 * DAY), make_tweet("c", T0 + 1)]
    buckets = bucket_all_days(tweets)
    assert [b.date for b in buckets] == [D0, D0 + dt.timedelta(days=2)]
    assert [t.id for t in buckets[0].tweets] == ["a", "c"]


# ---------------------------------------------------------------------------
# partition property: every loaded tweet lands in exactly one bucket


@settings(max_examples=50, deadline=None)
@given(
    offsets=st.lists(st.integers(min_value=-2 * DAY, max_value=6 * DAY), max_size=40),
    n_days=st.integers(min_value=1, max_value=4),
)
def test_window_partition_property(tmp_path_factory, offsets, n_days):
    records = [make_tweet(f"t{i}", T0 + off, f"text {i}") for i, off in enumerate(offsets)]
    path = tmp_path_factory.mktemp("part") / "t.csv"
    write_tweets(records, path)
    series = make_series([10.0 + i for i in range(n_days)])
    loaded = load_tweets(path, window=series.window())
    assert loaded.total_rows == len(records)
    assert len(loaded.records) + loaded.dropped_out_of_window == loaded.total_rows
    buckets = bucket_by_day(loaded.records, series)
    assert sum(len(b.tweets) for b in buckets) == len(loaded.records)
    for bucket in buckets:
        assert all(t.day() == bucket.date for t in bucket.tweets)


# ---------------------------------------------------------------------------
# UTC day boundaries: window filter, both bucketings and day_of agree


def boundary_timestamps(days):
    """First and last second of each day and of its neighbours."""
    out = []
    for day in days:
        start = int(dt.datetime(day.year, day.month, day.day, tzinfo=dt.timezone.utc).timestamp())
        out += [start - DAY, start - 1, start, start + 1, start + DAY - 1, start + DAY]
    return sorted(set(out))


@pytest.mark.parametrize(
    "start",
    [D0, dt.date(1970, 1, 1), dt.date(1969, 12, 30), dt.date(1901, 6, 1)],
)
def test_day_boundaries_agree_with_day_of(tmp_path, start):
    series = make_series([10.0, 11.0, 12.0], start=start)
    first, last = series.window()
    stamps = boundary_timestamps(series.dates)
    assert [day_of(ts) for ts in stamps] == [o_utc_day(ts) for ts in stamps]
    records = [make_tweet(f"t{i:02d}", ts, f"text {i}") for i, ts in enumerate(stamps)]
    path = tmp_path / "t.csv"
    write_tweets(records, path)

    loaded = load_tweets(path, window=(first, last))
    inside = [r for r in records if first <= o_utc_day(r.timestamp) <= last]
    assert list(loaded.records) == inside
    assert loaded.dropped_out_of_window == len(records) - len(inside)

    by_series = bucket_by_day(records, series)
    assert [b.date for b in by_series] == list(series.dates)
    for bucket in by_series:
        assert [t.id for t in bucket.tweets] == [
            r.id for r in records if o_utc_day(r.timestamp) == bucket.date
        ]

    own_days = bucket_all_days(records)
    assert [b.date for b in own_days] == sorted({o_utc_day(r.timestamp) for r in records})
    for bucket in own_days:
        assert all(day_of(t.timestamp) == bucket.date for t in bucket.tweets)
    assert sum(len(b.tweets) for b in own_days) == len(records)


# ---------------------------------------------------------------------------
# load_tweets' fast row check against the per-field conversions of o_build_record


# Per field, values a row may hold besides a valid one; several are valid
# after all (" 7", "1_000", "-0", an int id in JSONL).
_CSV_INTS = ["", "x", " 7", "7 ", "1_000", "+5", "1.5", "1e3", "0x10", "\u0663", "\uff17", "True"]
_JSON_INTS = [True, False, None, 1.5, 7.0, [1], "", "x", " 7", "1_000", "-3"]
_OUT_OF_RANGE = [_MIN_TIMESTAMP - 1, _MAX_TIMESTAMP + 1, 1_609_459_200_000]
_BLANK = ["", "   ", "\t", "\n"]
CSV_ODD = (
    ["", " "],
    _CSV_INTS + [str(ts) for ts in _OUT_OF_RANGE],
    _BLANK,
    *[_CSV_INTS + ["-3", "-0"]] * 4,
)
JSON_ODD = (
    ["", 0, 42, True, None, 1.5],
    _JSON_INTS + _OUT_OF_RANGE,
    _BLANK + [None, 5],
    *[_JSON_INTS + [-3]] * 4,
)
VALID_ROW = st.tuples(
    st.text(alphabet="ab1", min_size=1, max_size=3),
    st.integers(T0 - 3 * DAY, T0 + 3 * DAY) | st.integers(_MIN_TIMESTAMP, _MAX_TIMESTAMP),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        min_size=1, max_size=8,
    ).filter(lambda t: not t.isspace()),
    *(st.integers(0, 10**6) for _ in range(4)),
)


DAY_1 = dt.timedelta(days=1)


def _swapped(row, swaps):
    row = list(row)
    for i, value in swaps:
        row[i] = value
    return row


def odd_rows(odd):
    """Valid rows, some with one or two fields swapped for that field's odd values."""
    swap = st.integers(0, len(TWEET_FIELDS) - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.sampled_from(odd[i]))
    )
    return st.lists(
        st.builds(_swapped, VALID_ROW, st.lists(swap, max_size=2)), min_size=1, max_size=6
    )


def reference_load(path, format, window, rows=None):
    """``load_tweets`` with ``o_build_record`` run on every row: the records, or the error.

    ``rows`` stands in for the package's row reader; it may raise
    ``ValueError`` with the message of a bad line.
    """
    if rows is None:
        rows = csv_rows(path, TWEET_FIELDS) if format == "csv" else _iter_jsonl_rows(path)
    lo, hi = window
    records, seen = [], set()
    try:
        for lineno, fields in rows:
            try:
                record = o_build_record(fields)
            except CorpusError as exc:
                return f"{path}:{lineno}: {exc}"
            if record.id in seen:
                return f"{path}:{lineno}: duplicate tweet id {record.id!r}"
            seen.add(record.id)
            if lo <= record.day() <= hi:
                records.append(record)
    except ValueError as exc:
        return str(exc)
    return tuple(records)


@pytest.mark.parametrize("format", ["csv", "jsonl"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_row_check_accepts_exactly_what_the_field_by_field_oracle_accepts(
    tmp_path_factory, format, data
):
    rows = data.draw(odd_rows(CSV_ODD if format == "csv" else JSON_ODD))
    window = data.draw(st.sampled_from([None, (D0 - DAY_1, D0 + DAY_1)]))
    path = tmp_path_factory.mktemp("fast") / f"t.{format}"
    with path.open("w", newline="", encoding="utf-8") as handle:
        if format == "csv":
            writer = csv.writer(handle)
            writer.writerow(TWEET_FIELDS)
            writer.writerows(rows)
        else:
            for row in rows:
                handle.write(json.dumps(dict(zip(TWEET_FIELDS, row))) + "\n")

    want = reference_load(path, format, window or (dt.date.min, dt.date.max))
    if isinstance(want, str):
        with pytest.raises(CorpusError) as info:
            load_tweets(path, format=format, window=window)
        assert str(info.value) == want
    else:
        got = load_tweets(path, format=format, window=window)
        assert got.records == want
        assert all(type(r) is TweetRecord for r in got.records)
        assert [tuple(map(type, r)) for r in got.records] == [tuple(map(type, r)) for r in want]
        assert got.total_rows == len(rows)
        assert got.dropped_out_of_window == len(rows) - len(want)


# ---------------------------------------------------------------------------
# JSONL reader and writer against one json.loads and one json.dumps per line


def _json_object(record, separators=(", ", ": "), duplicate=None):
    """One record as a JSON object; ``duplicate`` is a ``(key, value)`` pair added last."""
    pairs = list(zip(TWEET_FIELDS, record))
    if duplicate is not None:
        pairs.append(duplicate)
    comma, colon = separators
    return "{" + comma.join(json.dumps(k) + colon + json.dumps(v) for k, v in pairs) + "}"


# Whitespace json skips (" ", "\t", "\r"; a "\r" also ends the line when read
# back), weighted so that most lines parse, and whitespace it does not.
_LINE_PADDING = st.sampled_from(
    ["", " ", "\t", " \t ", "\r"] * 3 + ["\x0b", "\x0c", "\xa0", "\u2028"]
)
_NOT_OBJECTS = [
    "[1, 2]", "3", "-0.5e3", '"text"', "null", "true", "NaN", "[]", "{", "{not json", '{"id": }',
    '{"id": "a"', "}", "\ufeff",
]


@st.composite
def jsonl_line(draw, index):
    record = (f"t{index}", *draw(VALID_ROW)[1:])
    # A field may hold NaN, a string or a bad value; the row check then names it.
    if draw(st.sampled_from([False, False, True])):
        field = draw(st.integers(1, 6))
        record = (*record[:field], draw(st.sampled_from(JSON_ODD[field] + [math.nan])),
                  *record[field + 1:])
    obj = _json_object(
        record,
        separators=draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " : ")])),
        duplicate=draw(st.none() | st.tuples(
            st.sampled_from(TWEET_FIELDS), st.sampled_from(["x", 3, -1, None])
        )),
    )
    kind = draw(st.sampled_from(["object"] * 6 + ["trailing", "other", "blank"]))
    if kind == "trailing":
        obj += draw(st.sampled_from([" x", ", " + obj, obj, " {}", "]", " 1", "\x0b1"]))
    elif kind == "other":
        obj = draw(st.sampled_from(_NOT_OBJECTS + [f"[{obj}]"]))
    elif kind == "blank":
        obj = ""
    return draw(_LINE_PADDING) + obj + draw(_LINE_PADDING)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_jsonl_reader_matches_one_json_loads_per_line(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    lines = [data.draw(jsonl_line(i)) for i in range(n)]
    if data.draw(st.sampled_from([False] * 9 + [True])):
        lines[0] = "\ufeff" + lines[0]
    path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    everything = (dt.date.min, dt.date.max)
    want = reference_load(path, "jsonl", everything, rows=o_jsonl_rows(path))
    if isinstance(want, str):
        with pytest.raises(CorpusError) as info:
            load_tweets(path, format="jsonl")
        assert str(info.value) == want
    else:
        assert load_tweets(path, format="jsonl").records == want


class _Count(enum.IntEnum):
    FIVE = 5


class _LoudInt(int):
    """An int that formats and prints as something other than its digits."""

    def __repr__(self):
        return "_LoudInt(?)"

    def __format__(self, spec):
        return "loud"


def _ints(lo, hi):
    return st.integers(lo, hi) | st.integers(lo, hi).map(_LoudInt) | st.just(_Count.FIVE)


_WRITE_TEXT = st.text(min_size=1, max_size=12).filter(lambda t: not t.isspace()) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\ud800", "a\udfffb", "a\u2028b", "é☃🚀", "a\r\nb"]
)
_WRITE_RECORD = st.builds(
    TweetRecord,
    st.text(min_size=1, max_size=6) | st.sampled_from(['"', "\\", "\udc80", "☃"]),
    _ints(_MIN_TIMESTAMP, _MAX_TIMESTAMP),
    _WRITE_TEXT,
    *(_ints(0, 10**15) for _ in range(4)),
)


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_WRITE_RECORD, max_size=6, unique_by=lambda r: r.id))
def test_jsonl_writer_writes_the_bytes_of_json_dumps(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("write") / "t.jsonl"
    assert write_tweets(records, path, format="jsonl") == len(records)
    expected = "".join(json.dumps(dict(zip(TWEET_FIELDS, r))) + "\n" for r in records)
    assert path.read_bytes() == expected.encode("ascii")
    assert load_tweets(path, format="jsonl").records == tuple(records)
