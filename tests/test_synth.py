import datetime as dt

import pytest

from helpers import signal_return_correlation
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
    ],
)
def test_config_rejects_bad_values(overrides):
    kwargs = dict(days=10, tweets_per_day=4, rho=0.5)
    kwargs.update(overrides)
    with pytest.raises(SynthError):
        SynthConfig(**kwargs)


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
