import logging
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import D0, T0, make_tweet, raw_days
from oracles import o_clean, o_cleaned_rows
from unicode_lower import lower_not_idempotent, lower_starts_with_itself, other_spaces
from sentiq import preprocess
from sentiq.corpus import DayBucket, load_tweets
from sentiq.preprocess import (
    CleanTweet,
    clean,
    clean_and_dedup,
    clean_buckets,
    clean_day,
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


def has_trigger(text: str) -> bool:
    return text.startswith("rt") or "://" in text or "www." in text


def clean_counting_passes(text: str) -> tuple[str, list[tuple[str, str]]]:
    """``clean(text)`` and each ``_clean_pass`` call it made, as (input, output)."""
    real = preprocess._clean_pass
    calls = []

    def counted(t):
        out = real(t)
        calls.append((t, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(preprocess, "_clean_pass", counted)
        return clean(text), calls


def assert_clean_stops_at_the_first_settled_pass(text: str) -> None:
    cleaned, calls = clean_counting_passes(text)
    assert cleaned == o_clean(text)
    assert calls[0][0] == text and calls[-1][1] == cleaned
    assert all(out == nxt for (_, out), (nxt, _) in zip(calls, calls[1:]))
    # A pass that returns its input, or text with none of the triggers, is the
    # last; so when the first pass does either, it is the only one.
    for t, out in calls[:-1]:
        assert out != t and has_trigger(out)


# One example per trigger, each of which takes a second pass: a leading "rt"
# left after a mention, "://" formed once "#" is gone, and a "www." token
# exposed by run truncation or by a dot run. Then one pass: a text the pass
# leaves alone, a changed text with no trigger, and triggers in a text the
# pass leaves alone.
@settings(max_examples=300, deadline=None)
@given(noise_text)
@example("@RTfan rt hello")
@example("http#://x.co y")
@example("wwww.x.com gone?")
@example("x..www.y z")
@example("buy btc hodl")
@example("RT @john BUY  #btc")
@example("rtx ftp://a awww.b")
def test_clean_pass_count_on_random_text(text):
    assert_clean_stops_at_the_first_settled_pass(text)


@settings(max_examples=300, deadline=None)
@given(noisy_fragments)
def test_clean_pass_count_on_noisy_fragments(fragments):
    assert_clean_stops_at_the_first_settled_pass("".join(fragments))


def test_clean_relies_on_lower_being_idempotent_on_every_code_point():
    # A pass's output is lowercase; clean skips the confirming pass only if
    # lowering it again changes nothing.
    assert lower_not_idempotent() == []
    # str.lower's one context rule, final sigma, maps only a capital sigma,
    # which lowercase text no longer holds.
    text = "ΑΣ ΣΑΣ. İ"
    assert text.lower().lower() == text.lower()
    # clean_day's day-level test reads joined.lower() == joined as "lower
    # keeps every character", which needs this of every code point.
    assert lower_starts_with_itself() == []


def test_other_spaces_lists_every_whitespace_but_space_and_newline():
    # clean_day's day-level test finds a text's other whitespace by scanning
    # for each of these.
    assert sorted(preprocess._OTHER_SPACES) == sorted(other_spaces())
    assert len(set(preprocess._OTHER_SPACES)) == len(preprocess._OTHER_SPACES)


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


# ---------------------------------------------------------------------------
# clean_day: the day-level fixed-point test against cleaning each text

# Fixed points of clean; joined by single spaces they stay fixed points.
CLEAN_WORDS = (
    "btc", "moon", "up", "art", "rtx", "ñandú", "σας", "cool.", "50%", "e:mail",
    "🚀🚀🚀", "sooo", "a.b", "x", "notwww.site", "ftp://x",
)
# Each makes any text of CLEAN_WORDS one that clean changes (the last two
# clean to empty), so the day must be cleaned text by text.
DIRTY = {
    "ascii-upper": lambda t: "Btc " + t,
    "dotted-capital-i": lambda t: t + " İ",
    "final-capital-sigma": lambda t: t + " ΑΣ",
    "leading-rt": lambda t: "rt " + t,
    "bare-rt": lambda t: "rt",
    **{
        f"inner-{name}": (lambda t, ws=ws: f"btc{ws}{t}")
        for name, ws in (
            ("tab", "\t"), ("nbsp", "\u00a0"), ("ideographic-space", "\u3000"),
            ("file-separator", "\x1c"), ("line-separator", "\u2028"), ("nel", "\x85"),
        )
    },
    "leading-tab": lambda t: "\t" + t,
    "trailing-ideographic-space": lambda t: t + "\u3000",
    "double-space": lambda t: f"btc  {t}",
    "leading-space": lambda t: " " + t,
    "trailing-space": lambda t: t + " ",
    "inner-newline": lambda t: f"btc\n{t}",
    "trailing-newline": lambda t: t + "\n",
    "mention": lambda t: "@x " + t,
    "hashtag": lambda t: "#" + t,
    "dot-run": lambda t: t + "..x",
    "url": lambda t: f"http://x.co {t}",
    "inner-https-url": lambda t: f"{t}https://x.co",
    "www": lambda t: f"www.x {t}",
    "inner-www": lambda t: f"btc www.x {t}",
    "run-of-four": lambda t: t + " moooon",
    "emoji-run-of-four": lambda t: t + " 🚀🚀🚀🚀",
    "cleans-to-empty-dots": lambda t: "....",
    "cleans-to-empty-mention": lambda t: "@someone",
}
# These look like noise but are fixed points: the day is only deduplicated.
SETTLED = {
    "no-plant": None,
    "trailing-rt-token": lambda t: t + " rt",
    "inner-rt-token": lambda t: f"btc rt {t}",
    "rtx-word": lambda t: "rtx " + t,
}



@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab\0 \nñ", max_size=12) | st.text(alphabet="ab\0", max_size=12))
@example("\0\0\0x")
@example("xaaaa")
def test_has_four_run_agrees_with_the_regex(text):
    assert preprocess._has_four_run(text) == bool(preprocess._FOUR_RUN_RE.search(text))

@st.composite
def mostly_clean_day(draw, plant):
    """A day's records: clean texts, some repeated, with ``plant`` applied to one of them."""
    text = st.lists(st.sampled_from(CLEAN_WORDS), min_size=1, max_size=4).map(" ".join)
    pool = draw(st.lists(text, min_size=1, max_size=5))
    texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    if plant is not None:
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] = plant(texts[i])
    n = len(texts)
    stamps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    records = [make_tweet(f"t{i:02d}", T0 + s, t) for i, s, t in zip(ids, stamps, texts)]
    return tuple(draw(st.permutations(records)))


def o_clean_day(records):
    """Each text through ``o_clean``, then the first of each text kept, in (timestamp, id) order."""
    seen = set()
    kept = []
    empty = 0
    for record in sorted(records, key=lambda r: (r.timestamp, r.id)):
        text = o_clean(record.text)
        if not text:
            empty += 1
        elif text not in seen:
            seen.add(text)
            kept.append(record if text == record.text else record._replace(text=text))
    return kept, empty


@pytest.mark.parametrize(
    "plant, dirty",
    [pytest.param(p, False, id=name) for name, p in SETTLED.items()]
    + [pytest.param(p, True, id=name) for name, p in DIRTY.items()],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_clean_day_tests_the_day_at_once(plant, dirty, data):
    records = data.draw(mostly_clean_day(plant))
    with mock.patch.object(preprocess, "clean", wraps=preprocess.clean) as counted:
        kept, empty = clean_day(records)
    want, want_empty = o_clean_day(records)
    assert kept == want
    assert empty == want_empty
    inputs = {id(r) for r in records}
    assert [id(g) in inputs for g in kept] == [id(w) in inputs for w in want]
    assert all(g is w for g, w in zip(kept, want) if id(w) in inputs)
    # A day with a planted change is cleaned text by text; any other day is
    # only deduplicated.
    assert counted.call_count == (len(records) if dirty else 0)
