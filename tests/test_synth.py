import datetime as dt
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_cli, signal_return_correlation
from oracles import o_gen_corpus
from sentiq.attributes import Attribute
from sentiq.corpus import TweetRecord, round_price
from sentiq.preprocess import clean
from sentiq.synth import SynthConfig, SynthError, gen_corpus


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SynthConfig(days=5, tweets_per_day=6, rho=0.5, seed=1)
    return cfg, *gen_corpus(cfg)


@pytest.mark.parametrize(
    "overrides",
    [
        {"days": 1},
        {"days": 0},
        {"tweets_per_day": 0},
        {"rho": -0.1},
        {"rho": 1.5},
        {"base_price": 0.0},
        {"base_price": float("nan")},
        {"daily_vol": 0.0},
        {"daily_vol": -0.5},
        {"seed": -3},
        {"days": 20.5},
        {"tweets_per_day": 4.0},
        {"seed": True},
        {"base_price": 1e26},
        {"base_price": 1e308},
        {"daily_vol": 0.5},
        {"daily_vol": 0.6},
        {"daily_vol": 1e300},
    ],
)
def test_config_rejects_bad_values(overrides):
    kwargs = dict(days=10, tweets_per_day=4, rho=0.5)
    kwargs.update(overrides)
    with pytest.raises(SynthError):
        SynthConfig(**kwargs)


def test_a_walk_that_outgrows_cents_names_the_day_and_settings():
    # Seed 4's first move is +80 %: 9e25 -> 1.62e26, which has no room for cents.
    cfg = SynthConfig(days=10, tweets_per_day=2, base_price=9e25, daily_vol=0.4, seed=4)
    with pytest.raises(SynthError) as info:
        gen_corpus(cfg)
    assert str(info.value) == (
        "the price on day 1 outgrows cents (base_price 9e+25, daily_vol 0.4); "
        "lower either or generate fewer days"
    )


@pytest.mark.parametrize(
    "base_price, message",
    [
        # 0.52 -> 0.54 is +3.85 %, 0.08 steps off the drawn +4 %.
        (0.5, "the price on day 3 moves +3.85 % for a drawn +4.00 %: "),
        # 0.004 rounds to the 0.01 floor, where no 2 % or 4 % move survives cents.
        (0.004, "the price on day 1 moves +0.00 % for a drawn +4.00 %: "),
    ],
)
def test_a_walk_too_small_for_cents_names_the_day_and_settings(base_price, message):
    cfg = SynthConfig(days=12, tweets_per_day=1, base_price=base_price, seed=4)
    with pytest.raises(SynthError) as info:
        gen_corpus(cfg)
    assert str(info.value) == (
        f"{message}too small for cents (base_price {base_price}, daily_vol 0.02); raise either"
    )


@settings(max_examples=150, deadline=None)
@given(
    days=st.integers(2, 8),
    tweets_per_day=st.integers(1, 9),
    rho=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
)
def test_gen_corpus_equals_the_per_tweet_draw_oracle(days, tweets_per_day, rho, seed):
    cfg = SynthConfig(days=days, tweets_per_day=tweets_per_day, rho=rho, seed=seed)
    (tweets, series), (o_tweets, o_series) = gen_corpus(cfg), o_gen_corpus(cfg)
    assert series == o_series
    assert [type(p) for p in series.prices] == [type(p) for p in o_series.prices]
    assert tweets == o_tweets
    for record, o_record in zip(tweets, o_tweets):
        assert [type(v) for v in record] == [type(v) for v in o_record], (record, o_record)


def test_gen_corpus_equals_the_oracle_on_full_size_days():
    # The Hypothesis test above stops at 9 tweets a day; each of these days
    # draws about 1,100 bounds, and the odd count makes the noise half smaller.
    cfg = SynthConfig(days=6, tweets_per_day=201, rho=0.8, seed=12)
    assert gen_corpus(cfg) == o_gen_corpus(cfg)


def test_the_cli_writes_the_pinned_bytes_of_a_realistic_corpus(tmp_path):
    # perfbench's race inputs; the digests were taken from the per-tweet
    # bounds loop and csv.writer, and no output byte may move.
    code, _, err = run_cli(
        ["synth", "--days", 80, "--tweets-per-day", 200, "--rho", 0.8, "--seed", 0,
         "--out-tweets", "tweets.csv", "--out-prices", "prices.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("tweets.csv", "prices.csv")
    }
    assert digests == {
        "tweets.csv": "1dd454d1e85004183d76ce2686f77396067fe1863c7d7e513ed16defe12aa604",
        "prices.csv": "343e328f386857c3796944cd44ef78b45025026ee6896ae77e529fd54ec08d64",
    }


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize("n", [7, 5_001])
def test_numpy_draws_an_array_of_bounds_as_one_scalar_call_each(seed, n):
    # gen_corpus draws a day's bounds in one call; its bytes rest on this.
    bounds = np.random.default_rng(99).choice([2, 3, 4, 5, 6, 7, 9, 13, 17, 46], size=n).tolist()
    batched, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
    assert batched.integers(0, bounds).tolist() == [
        int(one_by_one.integers(0, bound)) for bound in bounds
    ]
    assert batched.random() == one_by_one.random()


def test_corpus_shape_and_ids(small_corpus):
    cfg, tweets, series = small_corpus
    assert len(tweets) == cfg.days * cfg.tweets_per_day
    assert len(series) == cfg.days
    assert series.dates[0] == dt.date(2021, 1, 1)
    assert series.dates == tuple(
        dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(cfg.days)
    )
    assert [t.id for t in tweets] == [f"{i:08d}" for i in range(len(tweets))]


def test_timestamps_fall_inside_their_day(small_corpus):
    cfg, tweets, series = small_corpus
    utc = dt.timezone.utc
    for d in range(cfg.days):
        day_start = int(
            dt.datetime.combine(series.dates[d], dt.time(), tzinfo=utc).timestamp()
        )
        block = tweets[d * cfg.tweets_per_day : (d + 1) * cfg.tweets_per_day]
        for tweet in block:
            assert day_start <= tweet.timestamp < day_start + 86_400


def test_generation_is_deterministic():
    cfg = SynthConfig(days=6, tweets_per_day=5, rho=0.7, seed=9)
    first = gen_corpus(cfg)
    second = gen_corpus(cfg)
    assert first == second
    other = gen_corpus(SynthConfig(days=6, tweets_per_day=5, rho=0.7, seed=10))
    assert other != first


def test_records_pass_the_validating_constructor():
    # gen_corpus builds its records without running TweetRecord's checks.
    for tweets_per_day in (1, 5, 6):
        for seed in (0, 7, 2**64 - 1):
            cfg = SynthConfig(days=4, tweets_per_day=tweets_per_day, rho=0.8, seed=seed)
            tweets, _ = gen_corpus(cfg)
            assert tweets
            for record in tweets:
                assert record == TweetRecord(*record)


def test_texts_are_already_normal_form(small_corpus):
    _, tweets, _ = small_corpus
    for tweet in tweets:
        assert clean(tweet.text) == tweet.text
        assert tweet.text == tweet.text.lower()


def test_follower_ranges_split_each_day_exactly(small_corpus):
    cfg, tweets, _ = small_corpus
    top = (cfg.tweets_per_day + 1) // 2
    for d in range(cfg.days):
        block = tweets[d * cfg.tweets_per_day : (d + 1) * cfg.tweets_per_day]
        high = [t for t in block if t.followers >= 1_000]
        low = [t for t in block if t.followers <= 999]
        assert len(high) == top
        assert len(low) == cfg.tweets_per_day - top


def test_tweets_carry_the_intended_token_mix(small_corpus, lexicon):
    cfg, tweets, _ = small_corpus
    top = (cfg.tweets_per_day + 1) // 2
    for d in range(cfg.days):
        block = tweets[d * cfg.tweets_per_day : (d + 1) * cfg.tweets_per_day]
        for i, tweet in enumerate(block):
            valences = [lexicon.get(w) for w in tweet.text.split() if w in lexicon]
            assert valences, tweet.text
            if i < top:
                assert len(valences) == 1
                assert abs(valences[0]) <= 0.7
            else:
                assert 1 <= len(valences) <= 3
                assert all(abs(v) >= 1.1 for v in valences)
                signs = {v > 0 for v in valences}
                assert len(signs) == 1  # one tweet never mixes both signs


def test_prices_are_positive_cents_with_quantized_moves():
    cfg = SynthConfig(days=50, tweets_per_day=1, rho=0.5, seed=4)
    _, series = gen_corpus(cfg)
    step_pct = 200.0 * cfg.daily_vol / 2.0
    for prev, cur in zip(series.prices, series.prices[1:]):
        assert cur >= 0.01
        assert round_price(cur) == cur
        z = (cur / prev - 1.0) * 100.0 / step_pct
        assert abs(z - round(z)) < 0.01
        assert -2 <= round(z) <= 2


def test_follower_filter_recovers_the_planted_signal(lexicon):
    cfg = SynthConfig(days=400, tweets_per_day=60, rho=0.8, seed=0)
    tweets, series = gen_corpus(cfg)
    corr = {
        attr: signal_return_correlation(tweets, series, lexicon, attr)
        for attr in Attribute
    }
    corr[None] = signal_return_correlation(tweets, series, lexicon, None)
    assert corr[Attribute.FOLLOWERS] > 0.6
    for other in (Attribute.COMMENTS, Attribute.LIKES, Attribute.RETWEETS, None):
        assert corr[other] < 0.5
        assert corr[Attribute.FOLLOWERS] > corr[other] + 0.2


def test_zero_rho_plants_no_signal(lexicon):
    cfg = SynthConfig(days=400, tweets_per_day=60, rho=0.0, seed=0)
    tweets, series = gen_corpus(cfg)
    corr = signal_return_correlation(tweets, series, lexicon, Attribute.FOLLOWERS)
    assert abs(corr) < 0.2
