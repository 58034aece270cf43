import json
import math
from dataclasses import replace

import pytest

from helpers import attribute_signal_series, make_series, make_signals
from sentiq import bench, qlearn
from sentiq.attributes import Attribute
from sentiq.bench import (
    PROFILE_INTERVAL,
    BenchConfig,
    BenchError,
    chronological_split,
    compare,
    split_point,
)
from sentiq.metrics import vaf
from sentiq.qlearn import CDR, AgentConfig, training_days
from sentiq.synth import SynthConfig, gen_corpus


def small_agent(**overrides):
    defaults = dict(
        action_min=-8,
        action_max=8,
        episodes=5,
        price_bucket_width=500_000.0,
        price_max=1_000_000.0,
        sentiment_bins=21,
        seed=0,
    )
    defaults.update(overrides)
    return AgentConfig(**defaults)


def small_bench(**overrides):
    defaults = dict(
        agent=small_agent(),
        reward=CDR,
        train_frac=0.7,
        seconds=30.0,
    )
    defaults.update(overrides)
    return BenchConfig(**defaults)


def stepping_clock(step):
    """Fake monotonic clock advancing a fixed amount per call."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


@pytest.fixture(scope="module")
def corpus():
    return gen_corpus(SynthConfig(days=30, tweets_per_day=8, rho=0.8, seed=2))


# ---------------------------------------------------------------------------
# splitting


def test_split_point_examples():
    assert split_point(10, 0.7) == 7
    assert split_point(100, 0.7) == 70
    assert split_point(5, 0.5) == 3  # floor clamp: keep 3 training days
    assert split_point(100, 0.99) == 98  # ceiling clamp: keep 2 held-out days
    assert split_point(100, 0.01) == 3
    with pytest.raises(BenchError, match="at least 5"):
        split_point(4, 0.7)


def test_chronological_split_overlaps_one_day():
    series = make_series([float(100 + i) for i in range(10)])
    signals = make_signals(series, [i / 10 for i in range(10)])
    train_s, train_g, test_s, test_g = chronological_split(series, signals, 0.7)
    assert len(train_s) == 7
    assert len(test_s) == 4
    # The held-out tail starts on the last training day so day one of the
    # tail has a prior-day state to predict from.
    assert test_s.dates[0] == train_s.dates[-1]
    assert train_s.dates[0] == series.dates[0]
    assert test_s.dates[-1] == series.dates[-1]
    assert [s.date for s in train_g] == list(train_s.dates)
    assert [s.date for s in test_g] == list(test_s.dates)


def test_bench_config_validation():
    with pytest.raises(BenchError, match="reward"):
        small_bench(reward="xdr")
    with pytest.raises(BenchError, match="train_frac"):
        small_bench(train_frac=0.0)
    with pytest.raises(BenchError, match="train_frac"):
        small_bench(train_frac=1.0)
    with pytest.raises(BenchError, match="seconds"):
        small_bench(seconds=0.0)


# ---------------------------------------------------------------------------
# fixed-time mode


def test_fixed_time_requires_positive_budget():
    for seconds in (0.0, -5.0, float("nan")):
        with pytest.raises(BenchError, match="seconds must be positive"):
            small_bench(seconds=seconds)


def test_fixed_time_requires_a_finite_budget():
    # A report holds seconds, and JSON has no Infinity.
    for seconds in (math.inf, float("1e400")):
        with pytest.raises(BenchError, match=r"^seconds must be positive and finite, got inf$"):
            small_bench(seconds=seconds)


def test_fixed_time_full_run_shape(corpus, lexicon):
    tweets, series = corpus
    cfg = small_bench()
    report = compare(tweets, series, lexicon, cfg)

    assert report.seconds == 30.0
    assert report.target_vaf is None

    classic, proposed = report.classic, report.proposed
    assert classic.approach == "classic"
    assert proposed.approach == "proposed"
    # Classic ingests every raw tweet; the filtered pipeline only pulls the
    # per-day top-follower half (ceil(8/2) = 4 of 8) through text work.
    assert classic.tweets_utilized == 30 * 8
    assert proposed.tweets_utilized == 30 * 4
    for result in (classic, proposed):
        assert result.episodes_run == cfg.agent.episodes
        assert result.converged is None
        assert len(result.predictions) == len(result.test_prices) == 9
        assert result.wall_seconds > 0.0
        assert result.resources.interval == PROFILE_INTERVAL
        assert result.test_prices == series.prices[-9:]


def test_cpu_seconds_is_reported_without_a_profiler_sample(corpus, lexicon):
    tweets, series = corpus
    # The fake clock passes the deadline at the first check, so each approach
    # ends long before the profiler's first sample.
    report = compare(tweets, series, lexicon, small_bench(seconds=1.0), clock=stepping_clock(1.0))
    payload = json.loads(json.dumps(report.to_dict()))
    for side in ("classic", "proposed"):
        result = getattr(report, side)
        assert result.resources.sample_count == 0
        assert payload[side]["resources"]["cpu_pct"] is None
        assert result.cpu_seconds > 0.0
        assert payload[side]["cpu_seconds"] == result.cpu_seconds


def test_fixed_time_final_vaf_matches_recompute(corpus, lexicon):
    tweets, series = corpus
    report = compare(tweets, series, lexicon, small_bench())
    for result in (report.classic, report.proposed):
        assert result.final_vaf == vaf(result.test_prices, result.predictions)


def test_fixed_time_report_serialization(corpus, lexicon):
    tweets, series = corpus
    report = compare(tweets, series, lexicon, small_bench())
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload == report.to_dict()
    assert set(payload) == {"seconds", "target_vaf", "classic", "proposed"}
    for side in ("classic", "proposed"):
        assert set(payload[side]) == {
            "approach",
            "tweets_utilized",
            "wall_seconds",
            "cpu_seconds",
            "episodes_run",
            "final_vaf",
            "converged",
            "resources",
        }


def test_fixed_time_is_deterministic_under_a_fake_clock(corpus, lexicon):
    tweets, series = corpus
    cfg = small_bench(seconds=1000.0)
    reports = [
        compare(tweets, series, lexicon, cfg, clock=stepping_clock(0.001)) for _ in range(2)
    ]

    def comparable(report):
        d = report.to_dict()
        for side in ("classic", "proposed"):
            d[side].pop("resources")
            d[side].pop("cpu_seconds")
        return d

    assert comparable(reports[0]) == comparable(reports[1])
    assert reports[0].classic.predictions == reports[1].classic.predictions
    assert reports[0].proposed.predictions == reports[1].proposed.predictions
    # Wall time is measured on the injected clock, so it reproduces too.
    assert reports[0].classic.wall_seconds == reports[1].classic.wall_seconds


def test_fixed_time_predicts_as_train_does_on_the_same_head(corpus, lexicon):
    # Without a target, each side runs the configured episodes on its training
    # head, from the same seed as train.
    tweets, series = corpus
    cfg = small_bench(agent=small_agent(episodes=20), seconds=1000.0)
    report = compare(tweets, series, lexicon, cfg, clock=stepping_clock(0.001))
    for result, attribute in ((report.classic, None), (report.proposed, Attribute.FOLLOWERS)):
        assert result.episodes_run == 20
        signals = attribute_signal_series(tweets, series, lexicon, attribute)
        head, head_signals, tail, tail_signals = chronological_split(
            series, signals, cfg.train_frac
        )
        model, _ = qlearn.train(head, head_signals, cfg.reward, cfg.agent, attribute)
        want = qlearn.predict_days(model, training_days(tail, tail_signals, cfg.agent))
        assert result.predictions == want


def test_fixed_time_tiny_budget_stops_at_day_boundaries(corpus, lexicon):
    tweets, series = corpus
    cfg = small_bench(seconds=5.0)
    # Each clock call advances a whole second: t0 = 1.0, deadline = 6.0, so
    # exactly four day checks pass before the budget lapses mid-ingestion.
    report = compare(tweets, series, lexicon, cfg, clock=stepping_clock(1.0))
    for result, per_day in ((report.classic, 8), (report.proposed, 4)):
        assert result.tweets_utilized == 4 * per_day
        assert result.episodes_run == 0
        assert result.predictions == ()
        assert math.isnan(result.final_vaf)


# ---------------------------------------------------------------------------
# train-to-target mode


def test_to_target_rejects_non_finite_target():
    with pytest.raises(BenchError, match="finite"):
        small_bench(target_vaf=float("nan"))


def test_to_target_returns_immediately_when_already_met(corpus, lexicon):
    tweets, series = corpus
    report = compare(tweets, series, lexicon, small_bench(target_vaf=-1e9))
    # The time limit bounded the race too, so the report states it.
    assert report.seconds == 30.0
    assert report.target_vaf == -1e9
    for result in (report.classic, report.proposed):
        assert result.converged is True
        assert result.episodes_run == 0


def test_to_target_flags_unconverged_on_timeout(corpus, lexicon):
    tweets, series = corpus
    # A variance-accounted-for above 100 is unreachable by construction.
    cfg = small_bench(seconds=0.05, target_vaf=101.0)
    report = compare(tweets, series, lexicon, cfg, clock=stepping_clock(0.001))
    for result in (report.classic, report.proposed):
        assert result.converged is False
        assert result.episodes_run > 0


def test_to_target_flags_unconverged_when_time_runs_out_during_ingest(corpus, lexicon):
    # Each clock call advances a second, so the 5 s run stops after four
    # days: too few to score, and a race that did not meet its target.
    cfg = small_bench(seconds=5.0, target_vaf=101.0)
    report = compare(*corpus, lexicon, cfg, clock=stepping_clock(1.0))
    for result in (report.classic, report.proposed):
        assert result.episodes_run == 0
        assert math.isnan(result.final_vaf)
        assert result.converged is False
        assert result.to_dict()["converged"] is False


def test_to_target_discretizes_each_split_once(corpus, lexicon, monkeypatch):
    # Checking the target before every episode reuses the held-out days built
    # once per approach; only the training head and the held-out tail are
    # discretized.
    tweets, series = corpus
    calls = []

    def counting_training_days(*args):
        calls.append(args)
        return training_days(*args)

    monkeypatch.setattr(qlearn, "training_days", counting_training_days)
    monkeypatch.setattr(bench, "training_days", counting_training_days)
    cfg = small_bench(seconds=0.05, target_vaf=101.0)
    report = compare(tweets, series, lexicon, cfg, clock=stepping_clock(0.001))
    for result in (report.classic, report.proposed):
        assert result.episodes_run > 1
    assert len(calls) == 2 * 2


def test_to_target_converges_after_training(lexicon):
    tweets, series = gen_corpus(SynthConfig(days=120, tweets_per_day=10, rho=0.8, seed=2))
    cfg = small_bench(agent=small_agent(sentiment_bins=51, episodes=10), seconds=0.3)
    # A target every model meets stops both runs before training; their VAF
    # is the untrained model's.
    untrained = compare(
        tweets, series, lexicon, replace(cfg, target_vaf=-1e9), clock=stepping_clock(0.001)
    )
    assert untrained.proposed.episodes_run == 0
    target = untrained.proposed.final_vaf + 0.05
    report = compare(
        tweets, series, lexicon, replace(cfg, target_vaf=target), clock=stepping_clock(0.001)
    )
    proposed = report.proposed
    assert proposed.converged is True
    assert proposed.episodes_run > 0
    assert proposed.final_vaf >= target


def test_to_target_handles_unscorable_held_out_tail(lexicon):
    # Constant held-out prices make the accuracy metric undefined, so the
    # run can never converge and reports a NaN final score.
    series = make_series([500.0] * 10)
    cfg = small_bench(seconds=0.05, target_vaf=-1e9)
    report = compare((), series, lexicon, cfg, clock=stepping_clock(0.001))
    for result in (report.classic, report.proposed):
        assert result.tweets_utilized == 0
        assert result.converged is False
        assert math.isnan(result.final_vaf)
