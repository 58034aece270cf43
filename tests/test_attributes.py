import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import D0, T0, make_tweet
from sentiq.attributes import Attribute, build_dataset, rank_and_halve
from sentiq.corpus import DayBucket

ALL_ATTRIBUTES = (Attribute.FOLLOWERS, Attribute.COMMENTS, Attribute.LIKES, Attribute.RETWEETS)


def followers_bucket(counts, date=D0):
    tweets = tuple(
        make_tweet(f"t{i:03d}", T0 + i, f"text {i}", followers=c) for i, c in enumerate(counts)
    )
    return DayBucket(date, tweets)


def kept_followers(bucket):
    return [t.followers for t in bucket.tweets]


# ---------------------------------------------------------------------------
# rank_and_halve


def test_keeps_top_half_by_followers():
    out = rank_and_halve(followers_bucket([500, 50, 10, 7]), Attribute.FOLLOWERS)
    assert kept_followers(out) == [500, 50]


def test_input_order_does_not_matter():
    out = rank_and_halve(followers_bucket([10, 500, 7, 50]), Attribute.FOLLOWERS)
    assert kept_followers(out) == [500, 50]


def test_single_tweet_survives():
    out = rank_and_halve(followers_bucket([42]), Attribute.FOLLOWERS)
    assert kept_followers(out) == [42]


def test_odd_count_keeps_ceiling_half():
    out = rank_and_halve(followers_bucket([5, 4, 3, 2, 1]), Attribute.FOLLOWERS)
    assert kept_followers(out) == [5, 4, 3]


def test_empty_bucket_stays_empty():
    out = rank_and_halve(DayBucket(D0, ()), Attribute.LIKES)
    assert out.tweets == ()


def test_ties_resolve_by_timestamp_then_id():
    tweets = (
        make_tweet("b", T0 + 9, "x", followers=7),
        make_tweet("a", T0 + 9, "y", followers=7),
        make_tweet("c", T0 + 1, "z", followers=7),
        make_tweet("d", T0 + 30, "w", followers=7),
    )
    out = rank_and_halve(DayBucket(D0, tweets), Attribute.FOLLOWERS)
    assert [t.id for t in out.tweets] == ["c", "a"]


def test_each_attribute_ranks_its_own_field():
    tweets = tuple(
        make_tweet(
            f"t{i}", T0 + i, f"x{i}",
            followers=[9, 1, 1, 1][i],
            comments=[1, 9, 1, 1][i],
            likes=[1, 1, 9, 1][i],
            retweets=[1, 1, 1, 9][i],
        )
        for i in range(4)
    )
    bucket = DayBucket(D0, tweets)
    for i, attribute in enumerate(ALL_ATTRIBUTES):
        out = rank_and_halve(bucket, attribute)
        assert out.tweets[0].id == f"t{i}"


# ---------------------------------------------------------------------------
# build_dataset


def two_day_buckets(sizes):
    return tuple(
        followers_bucket(list(range(size, 0, -1)), D0 + dt.timedelta(days=i))
        for i, size in enumerate(sizes)
    )


def test_build_dataset_all_empty():
    buckets = (DayBucket(D0, ()), DayBucket(D0 + dt.timedelta(days=1), ()))
    out = build_dataset(buckets, Attribute.FOLLOWERS)
    assert all(b.tweets == () for b in out.buckets)
    assert out.total_tweets == 0


def test_build_dataset_halves_each_day():
    out = build_dataset(two_day_buckets([4, 6]), Attribute.FOLLOWERS)
    assert [len(b.tweets) for b in out.buckets] == [2, 3]
    assert out.total_tweets == 5


def test_build_dataset_none_keeps_everything():
    buckets = two_day_buckets([4, 6])
    out = build_dataset(buckets, None)
    assert out.buckets == buckets
    assert out.total_tweets == 10


def test_build_dataset_preserves_dates_across_attributes():
    buckets = two_day_buckets([5, 3])
    outs = [build_dataset(buckets, a) for a in ALL_ATTRIBUTES]
    for out in outs:
        assert [b.date for b in out.buckets] == [b.date for b in buckets]
        assert [len(b.tweets) for b in out.buckets] == [3, 2]


def test_build_dataset_deterministic():
    buckets = two_day_buckets([7, 4])
    first = build_dataset(buckets, Attribute.COMMENTS)
    second = build_dataset(buckets, Attribute.COMMENTS)
    assert first == second


# ---------------------------------------------------------------------------
# ranking properties


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=25))
def test_kept_values_dominate_dropped(counts):
    bucket = followers_bucket(counts)
    out = rank_and_halve(bucket, Attribute.FOLLOWERS)
    keep = (len(counts) + 1) // 2
    assert len(out.tweets) == keep
    kept = kept_followers(out)
    assert kept == sorted(counts, reverse=True)[:keep]
    # Within the kept bucket the attribute is non-increasing.
    assert all(a >= b for a, b in zip(kept, kept[1:]))
    # The kept multiset weakly dominates the dropped one.
    kept_ids = {t.id for t in out.tweets}
    dropped = [t.followers for t in bucket.tweets if t.id not in kept_ids]
    if dropped:
        assert min(kept) >= max(dropped)


# Few values per field, so most draws tie on the attribute, on the timestamp,
# or on both; ids repeat too, which leaves the input order to break full ties.
tied_records = st.builds(
    make_tweet,
    id=st.sampled_from(("a", "b", "c", "d")),
    timestamp=st.integers(min_value=T0, max_value=T0 + 3),
    text=st.sampled_from(("x", "y", "z")),
    followers=st.integers(min_value=0, max_value=2),
    comments=st.integers(min_value=0, max_value=2),
    likes=st.integers(min_value=0, max_value=2),
    retweets=st.integers(min_value=0, max_value=2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(tied_records, max_size=30), st.sampled_from(ALL_ATTRIBUTES))
def test_rank_and_halve_matches_the_one_key_sort(records, attribute):
    name = attribute.value
    expected = sorted(records, key=lambda r: (-getattr(r, name), r.timestamp, r.id))
    expected = expected[: (len(records) + 1) // 2]
    out = rank_and_halve(DayBucket(D0, tuple(records)), attribute)
    assert out.tweets == tuple(expected)
