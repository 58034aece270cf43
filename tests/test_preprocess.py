import datetime as dt
import logging
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import D0, T0, make_tweet
from oracles import o_clean, o_cleaned_rows
from sentiq.corpus import DayBucket, load_tweets
from sentiq.preprocess import (
    CleanTweet,
    clean,
    clean_and_dedup,
    clean_buckets,
    clean_days,
    dedup,
)

# ---------------------------------------------------------------------------
# clean: worked examples


def test_clean_dots_case_and_spaces():
    assert clean("Check  this..SOON") == "check this soon"


def test_clean_empty():
    assert clean("") == ""


def test_clean_retweet_url_hashtag_run():
    assert clean("RT @john buy BTC http://t.co/ab #hodl moooooon") == "buy btc hodl mooon"


def test_clean_retweet_markers():
    assert clean("RT hello") == "hello"
    assert clean("rt rt rt gm") == "gm"
    assert clean("rt") == ""
    assert clean("RT!") == "rt!"  # "rt" only counts as a marker when it is a whole token
    assert clean("artist rt fan") == "artist rt fan"  # only leading markers are dropped


def test_clean_mentions():
    assert clean("hi @user bye") == "hi bye"
    assert clean("@user: hi") == ": hi"  # trailing punctuation survives mention removal
    assert clean("@@@@") == ""
    assert clean("email me at a@b.com") == "email me at a.com"


def test_clean_hashtags_keep_words():
    assert clean("#btc to the #moon") == "btc to the moon"
    assert clean("price#target#met") == "pricetargetmet"
    assert clean("#") == ""


def test_clean_urls():
    assert clean("see https://example.com/x?y=1 now") == "see now"
    assert clean("mid http://a.b stuck") == "mid stuck"
    assert clean("www.example.com leading") == "leading"
    assert clean("not-a-url awww.sleepy") == "not-a-url awww.sleepy"


def test_clean_char_runs_truncate_to_three():
    assert clean("Hmmmmmm") == "hmmm"
    assert clean("cooool") == "coool"  # a 4-run collapses to 3
    assert clean("coool") == "coool"  # runs of exactly three are untouched
    assert clean("1234444567") == "123444567"
    assert clean("🚀🚀🚀🚀🚀") == "🚀🚀🚀"


def test_clean_dot_runs_become_spaces():
    assert clean("wait....what..now") == "wait what now"
    assert clean("a.b..c...d....e") == "a.b c d e"
    assert clean(".....") == ""


def test_clean_fixed_point_reveals():
    # Removing a mention exposes a leading retweet marker.
    assert clean("@RTfan rt hello") == "hello"
    # Removing a mention turns "rt@user gm" into a leading marker.
    assert clean("rt@user gm") == "gm"
    # Truncating "wwww." forms a URL token that the next pass removes.
    assert clean("wwww.x.com gone?") == "gone?"


# ---------------------------------------------------------------------------
# clean: golden fixture

FORBIDDEN_RUN = re.compile(r"(.)\1{3,}", re.DOTALL)


def assert_clean_invariants(text: str) -> None:
    assert clean(text) == text, "cleaning must be idempotent"
    assert text == text.lower()
    assert "http://" not in text and "https://" not in text
    assert "@" not in text
    assert "#" not in text
    assert "  " not in text
    assert ".." not in text
    assert text == text.strip()
    assert "\t" not in text and "\n" not in text
    assert not FORBIDDEN_RUN.search(text)
    assert text != "rt" and not text.startswith("rt ")
    assert not any(tok.startswith("www.") for tok in text.split())


def test_clean_fixture_matches_golden(data_dir):
    records = load_tweets(data_dir / "clean_fixture.csv").records
    golden = {}
    for line in (data_dir / "clean_golden.tsv").read_text(encoding="utf-8").splitlines():
        tweet_id, _, expected = line.partition("\t")
        golden[tweet_id] = expected
    assert len(golden) == 50 and len(records) == 50
    for record in records:
        cleaned = clean(record.text)
        assert cleaned == golden[record.id], f"tweet {record.id} cleaned to {cleaned!r}"
        assert_clean_invariants(cleaned)


# ---------------------------------------------------------------------------
# clean: properties over adversarial random text

noise_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.sampled_from(list("@#.!wrt /\\:")),
        st.sampled_from(list("ABCdef🚀😀\t\n\r")),
    ),
    max_size=80,
)
noisy_fragments = st.lists(
    st.one_of(
        noise_text,
        st.sampled_from(
            [
                "RT ",
                "rt",
                "http://x.co/a",
                "https://Y.example/B?z=1",
                "www.site.org",
                "wwww.site.org",
                "@user",
                "@",
                "#tag",
                "....",
                "..",
                "aaaaa",
                "  ",
                "moooooon",
                "zzz",
                "zzzz",
                "\n\n\n",
                "\n\n\n\n",
                "\n\n\n\n\n",
            ]
        ),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(noise_text)
def test_clean_idempotent_and_safe_on_random_text(text):
    assert_clean_invariants(clean(text))


@settings(max_examples=300, deadline=None)
@given(noisy_fragments)
def test_clean_idempotent_and_safe_on_noisy_fragments(fragments):
    assert_clean_invariants(clean("".join(fragments)))


# Runs of 3, 4 and 5 of one character: the character-run step runs only
# when the text holds a run of four.
@settings(max_examples=300, deadline=None)
@given(noise_text)
@example("goo")
@example("gooo")
@example("goooo")
@example("gooooo")
@example("x\n\n\ny")
@example("x\n\n\n\ny")
@example("x\n\n\n\n\ny")
@example("🚀🚀🚀🚀🚀 !!!! !!!")
def test_clean_matches_unguarded_reference_on_random_text(text):
    assert clean(text) == o_clean(text)


@settings(max_examples=300, deadline=None)
@given(noisy_fragments)
@example(["ha", "\n\n\n", "ha"])
@example(["ha", "\n\n\n\n", "ha"])
@example(["@x", "ooo", "@y", "o"])
@example(["www", ".", "RT ", "wwwww.site.org"])
def test_clean_matches_unguarded_reference_on_noisy_fragments(fragments):
    text = "".join(fragments)
    assert clean(text) == o_clean(text)


# ---------------------------------------------------------------------------
# clean_buckets


def bucket_of(texts, date=D0):
    tweets = tuple(
        make_tweet(f"t{i:03d}", T0 + i, text) for i, text in enumerate(texts)
    )
    return DayBucket(date, tweets)


def test_clean_bucket_drops_empty_and_counts(caplog):
    with caplog.at_level(logging.WARNING):
        (bucket,) = clean_buckets((bucket_of(["Keep Me", "....", "@gone", "also kept"]),))
    assert "dropped 2 tweets" in caplog.text
    assert [t.clean_text for t in bucket.tweets] == ["keep me", "also kept"]
    assert all(isinstance(t, CleanTweet) for t in bucket.tweets)
    assert bucket.tweets[0].original.id == "t000"


def test_clean_buckets_warns_on_drops(caplog):
    with caplog.at_level(logging.WARNING):
        cleaned = clean_buckets((bucket_of(["ok", "...."]), bucket_of(["fine"])))
    assert [len(b.tweets) for b in cleaned] == [1, 1]
    assert any("cleaned to empty" in rec.getMessage() for rec in caplog.records)


# ---------------------------------------------------------------------------
# dedup


def clean_bucket_of(texts, date=D0):
    (bucket,) = clean_buckets((bucket_of(texts, date),))
    return bucket


def test_dedup_removes_same_day_duplicates():
    (out,) = dedup((clean_bucket_of(["alpha", "alpha", "beta"]),))
    assert [t.clean_text for t in out.tweets] == ["alpha", "beta"]


def test_dedup_is_per_day():
    day2 = D0.replace(day=2)
    first = clean_bucket_of(["alpha"], D0)
    second = clean_bucket_of(["alpha"], day2)
    out = dedup((first, second))
    assert [len(b.tweets) for b in out] == [1, 1]


def test_dedup_empty_day():
    (out,) = dedup((DayBucket(D0, ()),))
    assert out.tweets == ()


def test_dedup_keeps_earliest_then_smallest_id():
    tweets = (
        CleanTweet(make_tweet("b", T0 + 5, "dup text"), "same"),
        CleanTweet(make_tweet("a", T0 + 5, "dup text"), "same"),
        CleanTweet(make_tweet("c", T0 + 1, "dup text"), "same"),
    )
    (out,) = dedup((DayBucket(D0, tweets),))
    assert [t.original.id for t in out.tweets] == ["c"]


def test_dedup_normalized_collisions_collapse():
    # Different raw texts that normalize identically are duplicates.
    (out,) = dedup((clean_bucket_of(["Buy    BTC", "buy btc", "BUY..BTC"]),))
    assert [t.clean_text for t in out.tweets] == ["buy btc"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=8), max_size=20))
def test_dedup_properties(texts):
    bucket = clean_bucket_of([t if t.strip() else "x" for t in texts])
    (out,) = dedup((bucket,))
    assert len(out.tweets) <= len(bucket.tweets)
    seen = [t.clean_text for t in out.tweets]
    assert len(seen) == len(set(seen))
    # Survivors keep their (timestamp, id) order and are each the first occurrence.
    ordered = sorted(bucket.tweets, key=lambda c: (c.original.timestamp, c.original.id))
    firsts = {}
    for tweet in ordered:
        firsts.setdefault(tweet.clean_text, tweet.original.id)
    assert [t.original.id for t in out.tweets] == [
        firsts[t.clean_text] for t in out.tweets
    ]
    assert {t.clean_text for t in out.tweets} == {t.clean_text for t in bucket.tweets}


def test_clean_and_dedup_composes():
    buckets = (bucket_of(["Buy  BTC", "buy btc", "....", "other"]),)
    out = clean_and_dedup(buckets)
    assert [t.clean_text for t in out[0].tweets] == ["buy btc", "other"]


# ---------------------------------------------------------------------------
# clean_days: one pass, the staged chain's records

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

base_texts = st.lists(
    st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(GLUE)), min_size=1, max_size=6
).map(lambda parts: "".join(f + g for f, g in parts))


@st.composite
def raw_days(draw):
    """Day buckets with noisy same-day copies, empties, tied timestamps and shuffled rows."""
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
        # Few distinct timestamps, so ties fall to the id.
        stamps = draw(st.lists(st.integers(0, 3), min_size=len(texts), max_size=len(texts)))
        ids = draw(st.permutations(range(len(texts))))
        start = T0 + day * 86_400
        records = [
            make_tweet(f"t{i:02d}", start + stamp, text, followers=i)
            for i, stamp, text in zip(ids, stamps, texts)
        ]
        days.append(DayBucket(D0 + dt.timedelta(days=day), tuple(draw(st.permutations(records)))))
    return tuple(days)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(raw_days())
def test_clean_days_matches_the_staged_chain(caplog, buckets):
    want = o_cleaned_rows(buckets)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sentiq.preprocess"):
        got = clean_days(buckets)
    assert got == want
    inputs = {id(r) for b in buckets for r in b.tweets}
    for got_day, want_day in zip(got, want, strict=True):
        assert got_day.date == want_day.date
        for g, w in zip(got_day.tweets, want_day.tweets, strict=True):
            assert type(g) is type(w)
            assert [type(v) for v in g] == [type(v) for v in w]
            # An unchanged record is the raw object; a changed one a new record.
            assert (g is w) == (id(w) in inputs)
            assert (id(g) in inputs) == (id(w) in inputs)
    empties = sum(not o_clean(r.text) for b in buckets for r in b.tweets)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == (
        [("sentiq.preprocess", logging.WARNING,
          f"dropped {empties} tweets whose text cleaned to empty")] if empties else []
    )
