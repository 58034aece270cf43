import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import D0, FRAGMENTS, T0, make_tweet, raw_days
from oracles import o_clean, o_score
from sentiq.attributes import Attribute, build_dataset
from sentiq.corpus import DayBucket, bucket_by_day
from sentiq.errors import LexiconError
from sentiq.preprocess import CleanTweet, clean_and_dedup
from sentiq.sentiment import (
    EMPHASIS_FACTOR,
    Lexicon,
    builtin_lexicon,
    compound_of,
    daily_signals,
    day_signal,
    load_lexicon,
    score,
)
from sentiq.synth import SynthConfig, gen_corpus


# ---------------------------------------------------------------------------
# lexicon loading


def test_load_lexicon_two_lines(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t1.5\nbad\t-1.5\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex.get("good") == 1.5
    assert lex.get("bad") == -1.5


def test_load_lexicon_lowercases_tokens(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("GOOD\t1.0\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert "good" in lex and "GOOD" not in lex


def test_load_lexicon_unparsable_valence(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\tabc\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r":1: unparsable valence"):
        load_lexicon(path)


def test_load_lexicon_rejects_non_finite_valence(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\tnan\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="unparsable valence"):
        load_lexicon(path)


def test_load_lexicon_duplicate_after_casefold(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("Good\t1.0\ngood\t2.0\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r":2: duplicate token 'good'"):
        load_lexicon(path)


def test_load_lexicon_missing_column(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("solo\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="expected token<TAB>valence"):
        load_lexicon(path)


def test_load_lexicon_skips_blanks_ignores_extra_columns(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\t1.5\t0.8\t[1, 2]\n\n   \nbad\t-0.5\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == 2
    assert lex.get("good") == 1.5


def test_load_lexicon_drops_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_bytes(b"good\t1.0\nbad\t-1.0\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert dict(load_lexicon(marked)) == dict(load_lexicon(plain)) == {"good": 1.0, "bad": -1.0}


def test_builtin_lexicon_well_formed():
    lex = builtin_lexicon()
    assert len(lex) >= 20
    assert all(tok == tok.lower() for tok, _ in lex.items())
    assert any(v > 0 for _, v in lex.items()) and any(v < 0 for _, v in lex.items())


# ---------------------------------------------------------------------------
# scoring


def lex_of(**entries):
    return Lexicon({k: float(v) for k, v in entries.items()})


def test_score_no_hits_is_zero(lexicon):
    assert score("completely unknown words", lexicon) == 0.0
    assert score("", lexicon) == 0.0


def test_score_normalization_sum_15():
    lex = lex_of(great=15.0)
    expected = 15.0 / math.sqrt(15.0**2 + 15.0)
    assert score("great", lex) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.9682, abs=1e-4)


def test_score_normalization_single_2():
    lex = lex_of(boom=2.0)
    expected = 2.0 / math.sqrt(2.0**2 + 15.0)
    assert score("boom", lex) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.4588, abs=1e-4)


def test_score_sums_valences_over_tokens():
    lex = lex_of(up=1.0, down=-0.4)
    got = score("up and down and up", lex)
    assert got == pytest.approx(compound_of(1.0 - 0.4 + 1.0), abs=1e-15)


def test_exclamation_emphasis_scales_per_bang():
    lex = lex_of(pump=1.0)
    for bangs in range(4):
        got = score("pump" + "!" * bangs, lex)
        assert got == pytest.approx(compound_of(EMPHASIS_FACTOR**bangs), abs=1e-15)


def test_exclamation_emphasis_caps_at_three():
    lex = lex_of(pump=1.0)
    assert score("pump!!!!!!", lex) == score("pump!!!", lex)


def test_bare_exclamations_are_ignored():
    lex = lex_of(pump=1.0)
    assert score("!!! !", lex) == 0.0


def test_emphasis_applies_to_negative_valence_too():
    lex = lex_of(crash=-2.0)
    assert score("crash!!", lex) == pytest.approx(
        compound_of(-2.0 * EMPHASIS_FACTOR**2), abs=1e-15
    )


def test_compound_bounds_and_sign():
    assert compound_of(0.0) == 0.0
    for s in (-1e6, -3.2, -0.1, 0.1, 3.2, 1e6):
        c = compound_of(s)
        assert -1.0 < c < 1.0
        assert (c > 0) == (s > 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_compound_is_odd_and_monotone(s):
    assert compound_of(-s) == pytest.approx(-compound_of(s), abs=1e-15)
    assert compound_of(s + 0.25) > compound_of(s)


LEXICON_WORDS = ("pump", "dump", "moon", "rekt", "hodl", "fud")


@st.composite
def scored_texts(draw):
    """A lexicon over ``LEXICON_WORDS`` and a text of its words, unknown words and ``!``.

    Valences with two decimals, as in lexicon files, make sums that round,
    so a summation that compensates or reorders shows in the bits. Half the
    texts hold no ``!`` at all.
    """
    valence = st.one_of(
        st.integers(min_value=-400, max_value=400).map(lambda n: n / 100),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
    )
    lexicon = draw(st.dictionaries(st.sampled_from(LEXICON_WORDS), valence, min_size=1))
    word = st.sampled_from(LEXICON_WORDS + ("calm", "noise", "x"))
    if draw(st.booleans()):
        token = st.tuples(word, st.integers(min_value=0, max_value=4)).map(
            lambda wb: wb[0] + "!" * wb[1]
        )
        token = st.one_of(token, st.sampled_from(("!", "!!!")))
    else:
        token = word
    tokens = draw(st.lists(token, max_size=12))
    separator = st.sampled_from((" ", "\t", "\n", " \t ", "\n\n"))
    seps = draw(st.lists(separator, min_size=len(tokens), max_size=len(tokens)))
    return Lexicon(lexicon), "".join(sep + tok for sep, tok in zip(seps, tokens))


@settings(max_examples=500, deadline=None)
@given(scored_texts())
def test_score_matches_the_per_token_oracle_to_the_bit(case):
    lexicon, text = case
    assert score(text, lexicon).hex() == o_score(text, lexicon).hex()


def test_score_keeps_a_compound_that_underflows_to_negative_zero():
    # -5e-324 / sqrt(15) rounds to -0.0; the day loop adds it to +0.0.
    lexicon = Lexicon({"pump": -5e-324})
    assert score("pump", lexicon).hex() == o_score("pump", lexicon).hex() == "-0x0.0p+0"
    signal, _ = day_signal(DayBucket(D0, (make_tweet("t0", T0, "pump"),)), None, lexicon)
    (staged,) = daily_signals((signal_bucket(["pump"]),), lexicon)
    assert signal.mean_compound.hex() == staged.mean_compound.hex() == "0x0.0p+0"


def test_negating_lexicon_negates_compound():
    pos = lex_of(up=0.7, down=-1.1, meh=0.2)
    neg = lex_of(up=-0.7, down=1.1, meh=-0.2)
    text = "up down!! meh up"
    assert score(text, neg) == pytest.approx(-score(text, pos), abs=1e-15)


# ---------------------------------------------------------------------------
# daily aggregation


def signal_bucket(texts, date=D0):
    tweets = tuple(
        CleanTweet(make_tweet(f"t{i:03d}", T0 + i, text), text) for i, text in enumerate(texts)
    )
    return DayBucket(date, tweets)


def test_daily_signal_symmetric_pair_averages_to_zero():
    lex = lex_of(up=1.0, down=-1.0)
    signal = daily_signals((signal_bucket(["up", "down"]),), lex)[0]
    assert signal.mean_compound == pytest.approx(0.0, abs=1e-15)
    assert signal.tweet_count == 2
    assert signal.date == D0


def test_daily_signal_empty_day_is_zero():
    signal = daily_signals((DayBucket(D0, ()),), builtin_lexicon())[0]
    assert signal == type(signal)(D0, 0.0, 0)


def test_daily_signal_is_arithmetic_mean():
    # Valences chosen so the three tweets score 0.2, 0.4, and 0.9.
    def valence_for(c):
        return c * math.sqrt(15.0 / (1.0 - c * c))

    lex = lex_of(
        mild=valence_for(0.2), firm=valence_for(0.4), loud=valence_for(0.9)
    )
    signal = daily_signals((signal_bucket(["mild", "firm", "loud"]),), lex)[0]
    assert signal.mean_compound == pytest.approx(0.5, abs=1e-9)
    expected = (
        score("mild", lex) + score("firm", lex) + score("loud", lex)
    ) / 3
    assert signal.mean_compound == expected


def test_daily_signals_one_per_bucket(lexicon):
    import datetime as dt

    buckets = tuple(
        signal_bucket(["pump pump", "dump"], D0 + dt.timedelta(days=i)) for i in range(3)
    )
    signals = daily_signals(buckets, lexicon)
    assert [s.date for s in signals] == [b.date for b in buckets]
    assert all(s.tweet_count == 2 for s in signals)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from(["pump", "dump", "calm", "panic", "noise", "surge!"]),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_daily_mean_lies_within_member_range(texts_per_tweet):
    lex = builtin_lexicon()
    texts = [" ".join(tokens) for tokens in texts_per_tweet]
    bucket = signal_bucket(texts)
    compounds = [score(t, lex) for t in texts]
    signal = daily_signals((bucket,), lex)[0]
    assert min(compounds) - 1e-12 <= signal.mean_compound <= max(compounds) + 1e-12
    assert signal.tweet_count == len(texts)


# ---------------------------------------------------------------------------
# day_signal: the one-pass stage against the staged pipeline


def planted_corpus(seed: int):
    """A synth corpus plus same-day rows that clean to empty or to an existing text.

    The planted rows copy a tweet's counts, give or take one, so they rank
    among, above and below the originals under every attribute.
    """
    tweets, series = gen_corpus(SynthConfig(days=12, tweets_per_day=9, rho=0.8, seed=seed))
    rng = random.Random(seed)
    planted = list(tweets)
    for i, tweet in enumerate(tweets):
        day_start = tweet.timestamp - tweet.timestamp % 86_400
        counts = {
            name: max(getattr(tweet, name) + rng.choice((-1, 0, 1)), 0)
            for name in ("followers", "comments", "likes", "retweets")
        }
        if rng.random() < 0.4:
            text = rng.choice(("RT " + tweet.text.upper(), f"@a {tweet.text} http://t.co/x"))
            planted.append(tweet._replace(
                id=f"d{i}", text=text, timestamp=day_start + rng.randrange(86_400), **counts
            ))
        if rng.random() < 0.2:
            planted.append(tweet._replace(
                id=f"e{i}", text=rng.choice(("RT", "@someone", "... #")),
                timestamp=day_start + rng.randrange(86_400), **counts,
            ))
    rng.shuffle(planted)
    return tuple(planted), series


@pytest.mark.parametrize("attribute", [None, *Attribute])
def test_day_signal_matches_the_staged_pipeline(attribute, lexicon):
    for seed in (0, 1, 2):
        tweets, series = planted_corpus(seed)
        buckets = bucket_by_day(tweets, series)
        kept = build_dataset(buckets, attribute).buckets
        staged = daily_signals(clean_and_dedup(kept), lexicon)
        one_pass = [day_signal(bucket, attribute, lexicon) for bucket in buckets]
        assert [signal for signal, _ in one_pass] == list(staged)
        assert [n for _, n in one_pass] == [len(b.tweets) for b in kept]
        # The plants reach the kept half and are dropped there.
        assert sum(s.tweet_count for s in staged) < sum(len(b.tweets) for b in kept)


# Lexicon words with one to four trailing bangs (four clean to three), some
# in upper case, so emphasis reaches the score through cleaning.
EMPHASIS = ("moon!", "DUMP!!", "rally!!!", "Fear!!!!", "up", "dip!", "BULLISH!!")


@pytest.mark.parametrize("attribute", [None, *Attribute])
@settings(max_examples=100, deadline=None)
@given(buckets=raw_days(FRAGMENTS + EMPHASIS))
def test_day_signal_matches_the_staged_pipeline_on_noisy_days(attribute, lexicon, buckets):
    kept = build_dataset(buckets, attribute).buckets
    staged = daily_signals(clean_and_dedup(kept), lexicon)
    one_pass = [day_signal(bucket, attribute, lexicon) for bucket in buckets]
    assert [signal for signal, _ in one_pass] == list(staged)
    assert [n for _, n in one_pass] == [len(b.tweets) for b in kept]


@st.composite
def scored_day(draw):
    """A lexicon view with zero valences, and a day of texts over it, some with ``!``.

    The texts are fixed points of ``clean``, so the day takes ``clean_day``'s
    day-level path. A day has up to 16 texts, and valences with two decimals
    make sums that round, so a summation that compensates or reorders shows
    in the bits.
    """
    valence = st.one_of(
        st.integers(min_value=-400, max_value=400).map(lambda n: n / 100),
        st.floats(min_value=-4, max_value=4, allow_nan=False),
        st.sampled_from((0.0, -0.0)),
    )
    lexicon = draw(st.dictionaries(st.sampled_from(LEXICON_WORDS), valence, min_size=1))
    word = st.sampled_from(LEXICON_WORDS + ("calm", "noise", "x"))
    bang = st.tuples(word, st.integers(min_value=1, max_value=3)).map(lambda wb: wb[0] + "!" * wb[1])
    plain = st.lists(word, min_size=1, max_size=8)
    emphatic = st.lists(st.one_of(word, bang, st.just("!")), min_size=1, max_size=8)
    text = st.one_of(plain, emphatic).map(" ".join)
    texts = draw(st.lists(text, min_size=1, max_size=16))
    records = tuple(make_tweet(f"t{i:02d}", T0 + i, t) for i, t in enumerate(texts))
    return Lexicon(lexicon), DayBucket(D0, records)


@settings(max_examples=300, deadline=None)
@given(scored_day())
def test_day_signal_adds_the_oracle_scores_to_the_bit(case):
    lexicon, bucket = case
    kept = list(dict.fromkeys(o_clean(r.text) for r in bucket.tweets))
    total = 0.0
    for text in kept:
        total += o_score(text, lexicon)
    want = struct.pack("<d", total / len(kept))
    signal, n = day_signal(bucket, None, lexicon)
    assert (struct.pack("<d", signal.mean_compound), signal.tweet_count) == (want, len(kept))
    assert n == len(bucket.tweets)
    (staged,) = daily_signals(clean_and_dedup((bucket,)), lexicon)
    assert (struct.pack("<d", staged.mean_compound), staged.tweet_count) == (want, len(kept))
