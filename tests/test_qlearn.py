import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import SRC_DIR, attribute_signal_series, make_series, make_signals, ulps_from
from sentiq import corpus, qlearn
from sentiq.attributes import Attribute
from sentiq.errors import AlignmentError, ModelFormatError
from sentiq.qlearn import (
    CDR,
    RDR,
    REWARD_KINDS,
    SDR,
    AgentConfig,
    QLearnError,
    QModel,
    State,
    TrainLog,
    _cdr,
    _explore_draws,
    _Learner,
    _price_grid,
    discretize_state,
    epsilon_at,
    load_model,
    predict_series,
    predicted_price,
    reward_cdr,
    reward_rdr,
    reward_sdr,
    save_model,
    train,
    training_days,
    zero_reward_points,
)
from sentiq.sentiment import builtin_lexicon
from sentiq.synth import SynthConfig, gen_corpus


def one_state_config(**overrides):
    """A grid of one price bin and one sentiment bin, so every day maps to State(0, 0)."""
    defaults = dict(
        action_min=0,
        action_max=1,
        price_bucket_width=500.0,
        price_max=1000.0,
        sentiment_bins=1,
        episodes=1,
    )
    defaults.update(overrides)
    return AgentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration validation


def test_default_config_is_valid():
    cfg = AgentConfig()
    assert cfg.gamma == 0.95
    assert cfg.theta == 0.1
    assert (cfg.action_min, cfg.action_max) == (-100, 1000)
    assert cfg.n_actions == 1101
    assert cfg.table_shape == (200, 21, 1101)


@pytest.mark.parametrize(
    "overrides",
    [
        {"gamma": -0.1},
        {"gamma": 1.5},
        {"theta": 0.0},
        {"theta": 1.2},
        {"action_min": 5, "action_max": 5},
        {"action_min": 6, "action_max": 5},
        {"action_min": 1.5},
        {"epsilon_start": 1.5},
        {"epsilon_end": -0.2},
        {"epsilon_start": 0.3, "epsilon_end": 0.5},
        {"episodes": 0},
        {"price_bucket_width": 0.0},
        {"price_bucket_width": -5.0},
        {"price_max": 400.0, "price_bucket_width": 500.0},
        {"sentiment_bins": 0},
        {"sentiment_bins": 20},
        {"price_bucket_width": 5e-324},
        {"seed": -1},
        {"seed": 2**64},
        {"price_max": math.inf},
        {"price_max": math.nan},
        {"price_bucket_width": 1e-200},
        {"episodes": 2.5},
        {"seed": 1.5},
        {"sentiment_bins": 3.0},
        {"action_min": -8.0},
        {"episodes": True},
        {"action_max": "8"},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(QLearnError):
        AgentConfig(**overrides)


def test_config_names_an_integer_field_given_a_non_integer():
    with pytest.raises(QLearnError, match=r"^action_min must be an integer, got -8\.0$"):
        AgentConfig(action_min=-8.0)
    with pytest.raises(QLearnError, match=r"^episodes must be an integer, got True$"):
        AgentConfig(episodes=True)


def test_price_bin_count_rounds_up():
    cfg = AgentConfig(price_bucket_width=300.0, price_max=1000.0)
    assert cfg.table_shape[0] == 4


def test_price_only_mode_collapses_sentiment_axis():
    cfg = AgentConfig(sentiment_bins=1)
    assert cfg.table_shape == (200, 1, 1101)


# ---------------------------------------------------------------------------
# state discretization


def test_discretize_price_bin():
    cfg = AgentConfig(price_bucket_width=500.0)
    assert discretize_state(1000.0, 0.0, cfg) == State(2, 10)
    assert discretize_state(999.99, 0.0, cfg).price_bin == 1
    assert discretize_state(0.0, 0.0, cfg).price_bin == 0


def test_discretize_sentiment_bins():
    cfg = AgentConfig(sentiment_bins=21)
    assert discretize_state(100.0, -1.0, cfg).sentiment_bin == 0
    assert discretize_state(100.0, 0.0, cfg).sentiment_bin == 10
    assert discretize_state(100.0, 1.0, cfg).sentiment_bin == 20  # clamped top edge
    assert discretize_state(100.0, 0.999, cfg).sentiment_bin == 20


def test_discretize_rejects_out_of_range_price():
    cfg = AgentConfig(price_max=100_000.0)
    with pytest.raises(QLearnError, match="outside the representable range"):
        discretize_state(100_000.0, 0.0, cfg)
    with pytest.raises(QLearnError):
        discretize_state(-0.01, 0.0, cfg)


def test_price_only_mode_ignores_signal():
    cfg = AgentConfig(sentiment_bins=1)
    assert cfg.table_shape[1] == 1
    assert discretize_state(100.0, 0.9, cfg) == State(0, 0)
    assert discretize_state(100.0, -0.9, cfg) == State(0, 0)


# ---------------------------------------------------------------------------
# action-to-price mapping


def test_predicted_price_examples():
    assert predicted_price(200.0, 50) == 300.0
    assert predicted_price(200.0, 0) == 200.0
    assert predicted_price(200.0, -100) == 0.0


def test_predicted_price_clamps_below_zero():
    assert predicted_price(200.0, -150) == 0.0


def test_predicted_price_rounds_to_cents():
    assert predicted_price(100.005, 0) == 100.01
    assert predicted_price(33.33, 50) == 50.0  # 49.995 rounds half-up


# ---------------------------------------------------------------------------
# reward shapes


def test_sdr_examples():
    assert reward_sdr(110.0, 110.0) == 0.0
    assert reward_sdr(110.0, 99.0) == pytest.approx(-11.0, abs=1e-9)
    assert reward_sdr(100.0, 130.0) == pytest.approx(-30.0, abs=1e-9)


def test_rdr_examples():
    assert reward_rdr(100.0, 100.0) == 0.0
    assert reward_rdr(100.0, 90.0) == pytest.approx(-10.0, abs=1e-9)
    assert reward_rdr(200.0, 90.0) == pytest.approx(-55.0, abs=1e-9)
    with pytest.raises(QLearnError, match="positive"):
        reward_rdr(0.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=0, max_value=1e5),
    st.floats(min_value=-1e4, max_value=1e4),
)
def test_sdr_translation_invariance(ap, pp, c):
    assert reward_sdr(ap + c, pp + c) == pytest.approx(reward_sdr(ap, pp), rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=0, max_value=1e5),
    st.floats(min_value=0.01, max_value=100),
)
def test_rdr_scale_invariance(ap, pp, k):
    assert reward_rdr(k * ap, k * pp) == pytest.approx(reward_rdr(ap, pp), rel=1e-9, abs=1e-9)


def test_zero_reward_geometry_examples():
    g = zero_reward_points(110.0, 100.0, 90.0)
    assert g.alpha == pytest.approx(0.1, abs=1e-12)
    assert g.l == pytest.approx(11.0, abs=1e-9)
    assert g.zr1 == pytest.approx(99.0, abs=1e-9)
    assert g.zr2 == pytest.approx(121.0, abs=1e-9)
    assert not g.degenerate

    overshoot = zero_reward_points(110.0, 100.0, 120.0)
    assert overshoot.l == pytest.approx(22.0, abs=1e-9)
    assert overshoot.zr1 == pytest.approx(88.0, abs=1e-9)
    assert overshoot.zr2 == pytest.approx(132.0, abs=1e-9)


def test_zero_reward_geometry_degenerate_when_carry_hits():
    g = zero_reward_points(110.0, 100.0, 100.0)
    assert g.degenerate


def test_zero_reward_geometry_rejects_non_positive_prices():
    with pytest.raises(QLearnError):
        zero_reward_points(110.0, 0.0, 90.0)
    with pytest.raises(QLearnError):
        zero_reward_points(0.0, 100.0, 90.0)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=0, max_value=2e5),
)
def test_zero_reward_geometry_invariants(ap, ap_prev, pp_prev):
    g = zero_reward_points(ap, ap_prev, pp_prev)
    # Skip geometry so close to degenerate that ap - l cancels catastrophically.
    if g.degenerate or g.l < 1e-5 * ap:
        return
    assert g.zr1 < g.zr2
    assert g.zr2 - g.zr1 == pytest.approx(2 * g.l, rel=1e-9, abs=1e-9)
    assert abs((g.zr1 + g.l) - ap) <= 1e-9 * max(1.0, g.l, abs(g.zr1))


def test_cdr_examples():
    g = zero_reward_points(110.0, 100.0, 90.0)  # zr1=99, zr2=121
    assert reward_cdr(g, 110.0, 110.0) == pytest.approx(100.0, abs=1e-9)
    assert reward_cdr(g, 110.0, 99.0) == pytest.approx(0.0, abs=1e-9)
    assert reward_cdr(g, 110.0, 121.0) == pytest.approx(0.0, abs=1e-9)
    assert reward_cdr(g, 110.0, 115.5) == pytest.approx(50.0, abs=1e-9)


def test_cdr_degenerate_branch():
    g = zero_reward_points(110.0, 100.0, 100.0)
    assert g.degenerate
    assert reward_cdr(g, 110.0, 110.0) == 100.0
    # Any real miss falls back to the relative shape.
    assert reward_cdr(g, 110.0, 99.0) == pytest.approx(reward_rdr(110.0, 99.0), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=1, max_value=1e5),
    st.floats(min_value=0, max_value=2e5),
    st.floats(min_value=0, max_value=2e5),
)
def test_cdr_closed_form(ap, ap_prev, pp_prev, pp):
    g = zero_reward_points(ap, ap_prev, pp_prev)
    if g.degenerate or g.l < 1e-5 * ap:
        return
    assert reward_cdr(g, ap, pp) == pytest.approx(
        oracles.o_cdr_closed_form(ap, pp, g.l), rel=1e-9, abs=1e-6
    )


def test_cdr_piecewise_monotone_peak_at_actual():
    g = zero_reward_points(110.0, 100.0, 90.0)
    below = [reward_cdr(g, 110.0, pp) for pp in (80.0, 95.0, 99.0, 105.0, 110.0)]
    assert below == sorted(below)
    above = [reward_cdr(g, 110.0, pp) for pp in (110.0, 115.0, 121.0, 130.0, 150.0)]
    assert above == sorted(above, reverse=True)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1, max_value=1e4),
    st.floats(min_value=0, max_value=2e4),
)
def test_every_reward_peaks_at_perfect_prediction(ap, pp):
    assert reward_sdr(ap, pp) <= reward_sdr(ap, ap) == 0.0
    assert reward_rdr(ap, pp) <= reward_rdr(ap, ap) == 0.0
    g = zero_reward_points(ap, ap * 0.9, ap * 1.3)
    if not g.degenerate:
        assert reward_cdr(g, ap, pp) <= reward_cdr(g, ap, ap) == pytest.approx(100.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Bellman update, on the one-step reference the engine is checked against


def test_q_update_full_overwrite():
    model = QModel.zeros(one_state_config(theta=1.0, gamma=0.0))
    s = State(0, 0)
    assert oracles.o_q_update(model, s, 0, -10.0, s) == -10.0
    assert model.table[0, 0, 0] == -10.0


def test_q_update_hand_example():
    cfg = one_state_config(theta=0.5, gamma=0.95)
    model = QModel.zeros(cfg)
    s, s_next = State(0, 0), State(1, 0)
    model.table[0, 0, 0] = 2.0
    model.table[1, 0, 1] = 4.0
    got = oracles.o_q_update(model, s, 0, 1.0, s_next)
    assert got == pytest.approx(3.4, abs=1e-9)
    assert model.table[0, 0, 0] == got


def test_q_update_fixed_point():
    cfg = one_state_config(theta=0.5, gamma=0.5)
    model = QModel.zeros(cfg)
    s, s_next = State(0, 0), State(1, 0)
    model.table[1, 0, 0] = 4.0  # max next = 4, so r + gamma*max = 1 + 2 = 3
    model.table[0, 0, 1] = 3.0
    assert oracles.o_q_update(model, s, 1, 1.0, s_next) == 3.0
    assert model.table[0, 0, 1] == 3.0


def test_q_update_rejects_out_of_range_action():
    model = QModel.zeros(one_state_config())
    with pytest.raises(QLearnError, match="outside"):
        oracles.o_q_update(model, State(0, 0), 7, 0.0, State(0, 0))


def test_q_update_rejects_non_finite_reward():
    model = QModel.zeros(one_state_config())
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(QLearnError, match="finite"):
            oracles.o_q_update(model, State(0, 0), 0, bad, State(0, 0))


# ---------------------------------------------------------------------------
# action selection: the greedy choice and the exploration draws


def test_select_action_greedy_unique_max():
    cfg = AgentConfig(action_min=-5, action_max=5, price_max=1000.0, price_bucket_width=500.0)
    model = QModel.zeros(cfg)
    model.table[0, 10, 8] = 2.5  # action +3
    assert model.greedy_action(State(0, 10)) == 3


def test_select_action_tie_breaks_to_smallest_percent():
    cfg = AgentConfig(action_min=-5, action_max=5, price_max=1000.0, price_bucket_width=500.0)
    model = QModel.zeros(cfg)
    assert model.greedy_action(State(0, 10)) == -5
    model.table[0, 10, 2] = 1.0  # actions -3 and +1 tie at the max
    model.table[0, 10, 6] = 1.0
    assert model.greedy_action(State(0, 10)) == -3


def test_select_action_validates_epsilon():
    model = QModel.zeros(one_state_config())
    rng = np.random.default_rng(0)
    with pytest.raises(QLearnError, match="epsilon"):
        oracles.o_select_action(model, State(0, 0), 1.5, rng)


def test_explore_draws_uniform_when_fully_random():
    n_actions = 11
    draws = 10_000
    explored = _explore_draws(np.random.default_rng(42), 1.0, draws, n_actions)
    assert min(explored) >= 0  # at epsilon=1 no step is greedy
    counts = np.bincount(explored, minlength=n_actions)
    assert counts.sum() == draws
    # Pearson's chi-squared against the uniform; 29.588... is the 0.999 quantile
    # of chi-squared with 10 degrees of freedom, so this passes when p > 0.001.
    expected = draws / n_actions
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    assert statistic < 29.58829844507442


def scalar_explore_draws(rng, epsilon, steps, n_actions):
    """Per step, the index o_select_action's scalar calls explore with, or -1 for greedy."""
    return [
        int(rng.integers(n_actions)) if epsilon > 0.0 and rng.random() < epsilon else -1
        for _ in range(steps)
    ]


# 2**31 + 1 rejects about half of its 32-bit draws and 3 * 2**30 + 7 a quarter;
# 2**32 is numpy's unbounded uint32 path.
EXPLORE_BOUNDS = (2, 17, 1_101, 2**31 + 1, 3 * 2**30 + 7, 2**32)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
    n_actions=st.sampled_from(EXPLORE_BOUNDS),
    episodes=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(0.0, 1.0),
            st.integers(1, 90),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_explore_draws_match_the_scalar_calls(seed, buffered, n_actions, episodes):
    rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # a uint32 draw keeps its word's high half for the next one
        assert rng.integers(2**32) == want.integers(2**32)
        assert rng.bit_generator.state["has_uint32"] == 1
    for epsilon, steps in episodes:
        got = _explore_draws(rng, epsilon, steps, n_actions)
        assert got == scalar_explore_draws(want, epsilon, steps, n_actions)
        assert rng.bit_generator.state == want.bit_generator.state
    assert rng.integers(2**32) == want.integers(2**32)
    assert rng.random() == want.random()


def test_explore_draws_refuse_a_bound_over_2_32():
    with pytest.raises(QLearnError, match=r"n_actions must be in \[2, 2\*\*32\], got 4294967297"):
        _explore_draws(np.random.default_rng(0), 0.5, 3, 2**32 + 1)


def test_explore_draws_refuse_an_mt19937_generator():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(QLearnError, match="PCG64 generator, got MT19937"):
        _explore_draws(rng, 0.5, 2, 11)


# ---------------------------------------------------------------------------
# epsilon schedule


def test_epsilon_linear_decay_and_clamp():
    cfg = one_state_config(epsilon_start=1.0, epsilon_end=0.0, episodes=5)
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 1) == pytest.approx(0.75)
    assert epsilon_at(cfg, 2) == pytest.approx(0.5)
    assert epsilon_at(cfg, 4) == 0.0
    assert epsilon_at(cfg, 50) == 0.0  # past the schedule end


def test_epsilon_single_episode():
    cfg = one_state_config(epsilon_start=0.8, epsilon_end=0.1, episodes=1)
    assert epsilon_at(cfg, 0) == 0.8
    assert epsilon_at(cfg, 3) == 0.8


@pytest.mark.parametrize("episodes", [1, 10])
def test_epsilon_rejects_a_negative_episode(episodes):
    with pytest.raises(QLearnError, match="episode must be >= 0, got -5"):
        epsilon_at(AgentConfig(episodes=episodes), -5)


# ---------------------------------------------------------------------------
# one episode of the training engine


def pinned_model(cfg, action, value=1e6, reward=None):
    """Model whose greedy choice is pinned to one action in every state."""
    model = QModel.zeros(cfg, reward=reward)
    model.table[:, :, action - cfg.action_min] = value
    return model


def greedy_config(**overrides):
    """``one_state_config`` with epsilon 0 throughout, so every step is greedy."""
    return one_state_config(epsilon_start=0.0, epsilon_end=0.0, **overrides)


def test_run_episode_mean_reward_sdr_rdr():
    cfg = greedy_config(action_min=-5, action_max=5)
    prices = (100.0, 110.0, 99.0)
    days = training_days(*aligned_inputs(prices), cfg)
    for kind, fn in ((SDR, reward_sdr), (RDR, reward_rdr)):
        got = _Learner(pinned_model(cfg, action=0, reward=kind), days).episode()
        expected = (fn(110.0, 100.0) + fn(99.0, 110.0)) / 2
        assert got == expected


def test_run_episode_cdr_carries_previous_prediction():
    cfg = greedy_config(action_min=-5, action_max=5)
    prices = (100.0, 110.0, 99.0)
    days = training_days(*aligned_inputs(prices), cfg)
    got = _Learner(pinned_model(cfg, action=5, reward=CDR), days).episode()

    pp_prev = prices[0]  # bootstrap: day 0's prediction is its actual price
    total = 0.0
    for t in (1, 2):
        pp = predicted_price(prices[t - 1], 5)
        g = zero_reward_points(prices[t], prices[t - 1], pp_prev)
        total += reward_cdr(g, prices[t], pp)
        pp_prev = pp
    assert got == total / 2


def test_run_episode_needs_two_days():
    cfg = one_state_config()
    days = training_days(*aligned_inputs((100.0,)), cfg)
    with pytest.raises(QLearnError, match="need at least 2 days, got 1"):
        _Learner(QModel.zeros(cfg, reward=SDR), days)


def test_run_episode_updates_visited_entries_only():
    cfg = greedy_config(action_min=0, action_max=3)
    model = pinned_model(cfg, action=2, value=500.0, reward=SDR)
    before = model.table.copy()
    days = training_days(*aligned_inputs((100.0, 101.0, 103.0)), cfg)
    _Learner(model, days).episode()
    changed = np.argwhere(model.table != before)
    assert {tuple(ix) for ix in changed} == {(0, 0, 2)}


@pytest.mark.parametrize("reward", ["xdr", None])
def test_learner_refuses_an_unknown_or_missing_reward_kind(reward):
    cfg = one_state_config(action_min=-5, action_max=5)
    days = training_days(*aligned_inputs((100.0, 110.0, 99.0)), cfg)
    message = f"unknown reward kind {reward!r}, expected one of ('sdr', 'rdr', 'cdr')"
    with pytest.raises(QLearnError, match=f"^{re.escape(message)}$"):
        _Learner(QModel.zeros(cfg, reward=reward), days)


def random_walk(n, seed, start=800.0, vol=0.04):
    rng = np.random.default_rng(seed)
    prices = [start]
    for _ in range(n - 1):
        prices.append(round(prices[-1] * (1.0 + rng.normal(0.0, vol)), 2))
    return aligned_inputs(prices, rng.uniform(-1.0, 1.0, n))


@pytest.mark.parametrize("kind", [SDR, RDR, CDR])
@pytest.mark.parametrize("action_min,action_max", [(-3, 3), (-100, 1000)])
def test_train_matches_step_by_step_reference(kind, action_min, action_max):
    series, signals = random_walk(30, seed=4)
    cfg = AgentConfig(
        action_min=action_min,
        action_max=action_max,
        episodes=40,
        price_bucket_width=250.0,
        price_max=2000.0,
        sentiment_bins=5,
        seed=9,
    )
    model, log = train(series, signals, kind, cfg)
    want_model, want_log = oracles.o_train(series, signals, kind, cfg)
    assert model.table.tobytes() == want_model.table.tobytes()
    assert log == want_log


def check_planted_ties(kind, theta, gamma, learner_per_episode):
    """30 episodes on a planted table against the step-by-step reference.

    Whole-dollar prices, whole-percent moves and integer Q-values make
    updates land exactly on, above and below the planted row maxima. Every
    episode's mean reward and the final table bytes must match. With
    ``learner_per_episode`` each episode runs on a fresh learner over the
    table the last one left, so every episode starts from the learner's
    own scan of the rows' max and argmax; each fresh learner seeds a fresh
    generator and runs its first episode, so the epsilon is a constant 0.5.
    """
    series, signals = aligned_inputs(
        [100.0, 101.0, 99.0, 100.0, 102.0, 100.0, 100.0, 98.0, 100.0, 103.0] * 3,
        [0.5, -0.5, 0.0] * 10,
    )
    constant_epsilon = {"epsilon_start": 0.5, "epsilon_end": 0.5} if learner_per_episode else {}
    cfg = AgentConfig(
        action_min=-4,
        action_max=4,
        episodes=30,
        price_bucket_width=500.0,
        price_max=1000.0,
        sentiment_bins=3,
        theta=theta,
        gamma=gamma,
        seed=1,
        **constant_epsilon,
    )
    planted = np.random.default_rng(3).integers(-3, 1, size=(2, 3, 9)).astype(float)
    model, want = QModel(cfg, planted.copy(), kind), QModel(cfg, planted.copy(), kind)
    days = training_days(series, signals, cfg)
    states = [discretize_state(p, s.mean_compound, cfg) for p, s in zip(series.prices, signals)]
    learner, want_rng = _Learner(model, days), np.random.default_rng(cfg.seed)
    for e in range(cfg.episodes):
        if learner_per_episode:
            learner, want_rng = _Learner(model, days), np.random.default_rng(cfg.seed)
        want_mean = oracles.o_episode(
            want, series.prices, states, kind, epsilon_at(cfg, e), want_rng
        )
        assert learner.episode() == want_mean
    assert model.table.tobytes() == want.table.tobytes()


@pytest.mark.parametrize("kind", [SDR, RDR, CDR])
@pytest.mark.parametrize("theta,gamma", [(1.0, 0.0), (0.5, 0.5)])
def test_run_episode_matches_reference_on_planted_ties(kind, theta, gamma):
    # One episode per learner, each over the table the previous one left.
    check_planted_ties(kind, theta, gamma, learner_per_episode=True)


@pytest.mark.parametrize("kind", [SDR, RDR, CDR])
@pytest.mark.parametrize("theta,gamma", [(1.0, 0.0), (0.5, 0.5)])
def test_one_learner_matches_reference_on_planted_ties(kind, theta, gamma):
    # train and compare run every episode on one learner, which reads the
    # rows' max and argmax once and keeps them current across episodes.
    check_planted_ties(kind, theta, gamma, learner_per_episode=False)


# ---------------------------------------------------------------------------
# the learner's price grid


def _prices_near(center: float) -> st.SearchStrategy:
    return st.one_of(
        st.floats(center / 2, center * 2), st.integers(-4, 4).map(lambda n: ulps_from(center, n))
    )


@st.composite
def price_grid_inputs(draw):
    """Days' prices and an action window for :func:`_price_grid`.

    Actions run from -250 to 1,000, so a window may hold moves to zero and
    below. Prices mix sub-cent values, values that some action in the
    window moves to within a few ulps of a half-cent tie, values near the
    fast path's ``2**50``-cent ceiling at the window's top action, and
    ordinary ones.
    """
    action_min = draw(st.integers(-250, 1000))
    action_max = draw(st.integers(action_min, 1000))
    rising = [a for a in range(action_min, action_max + 1) if a > -100]
    kinds = [st.floats(0.0, 0.01, exclude_min=True), st.floats(0.01, 1e7)]
    if rising:
        near_tie = st.builds(
            lambda cents, a, n: ulps_from((cents + 0.5) / 100 / (1.0 + a / 100.0), n),
            st.integers(0, 10**9),
            st.sampled_from(rising),
            st.integers(-4, 4),
        )
        kinds += [near_tie, _prices_near(2.0**50 / 100 / (1.0 + rising[-1] / 100.0))]
    prices = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    return prices, action_min, action_max - action_min + 1


@settings(max_examples=150, deadline=None)
@given(price_grid_inputs())
def test_price_grid_matches_predicted_price_bit_for_bit(inputs):
    # A cell is NaN exactly where predicted_price leaves the float fast path
    # for Decimal; every other cell holds predicted_price's bits.
    prices, action_min, n_actions = inputs
    grid = _price_grid(prices, action_min, n_actions)
    assert grid.shape == (len(prices), n_actions)
    entered = []
    localcontext = corpus.localcontext

    def counting_localcontext(ctx):
        entered.append(ctx)
        return localcontext(ctx)

    with mock.patch.object(corpus, "localcontext", counting_localcontext):
        for prev, row in zip(prices, grid.tolist()):
            for i, got in enumerate(row):
                before = len(entered)
                want = predicted_price(prev, action_min + i)
                cell = (prev, action_min + i, got, want)
                if math.isnan(got):
                    assert len(entered) > before, cell
                else:
                    assert len(entered) == before, cell
                    assert struct.pack("<d", got) == struct.pack("<d", want), cell


def test_learner_matches_reference_through_nan_cells_and_degenerate_days(monkeypatch):
    # Synthetic cent prices on the default action grid: some moves land near a
    # half-cent tie, a cell the learner prices with predicted_price on first
    # use. Each episode's first day has degenerate cdr geometry, and so does
    # a day after an exact prediction, which the quantized synthetic moves
    # allow; the learner hands those days to _cdr.
    _, series = gen_corpus(SynthConfig(days=30, tweets_per_day=1, base_price=800.0, seed=2))
    signals = make_signals(series, np.random.default_rng(2).uniform(-1.0, 1.0, 30))
    cfg = AgentConfig(
        episodes=40, price_bucket_width=250.0, price_max=2000.0, sentiment_bins=5, seed=9
    )
    fills, degenerate = [], []

    def counting_predicted_price(prev, percent):
        fills.append(prev * (1.0 + percent / 100.0))
        return predicted_price(prev, percent)

    def counting_cdr(ap, pp, zr1, zr2, is_degenerate, tol):
        degenerate.append(is_degenerate)
        return _cdr(ap, pp, zr1, zr2, is_degenerate, tol)

    monkeypatch.setattr(qlearn, "predicted_price", counting_predicted_price)
    monkeypatch.setattr(qlearn, "_cdr", counting_cdr)
    model = QModel.zeros(cfg, reward=CDR)
    learner = _Learner(model, training_days(series, signals, cfg))
    nan_cells = sum(int(np.isnan(row).sum()) for row in learner.predicted)
    means = tuple(learner.episode() for _ in range(cfg.episodes))
    left = sum(int(np.isnan(row).sum()) for row in learner.predicted)
    monkeypatch.undo()

    assert sum(v > 0 for v in fills) > 0  # near-tie cells, not only moves to $0
    assert len(fills) == nan_cells - left  # each NaN cell priced once, then read
    assert len(degenerate) > cfg.episodes and all(degenerate)  # not only first days
    want_model, want_log = oracles.o_train(series, signals, CDR, cfg)
    assert model.table.tobytes() == want_model.table.tobytes()
    assert TrainLog(means, tuple(learner.epsilons)) == want_log


# What the per-day memo dicts the price grid replaced peaked at on the run below
# (Python 3.11, numpy 2.4).
_MEMO_PEAK_BYTES = 1_490_206


def test_learner_memory_on_the_default_grid_stays_under_the_memo_dicts():
    tweets, series = gen_corpus(SynthConfig(days=75, tweets_per_day=20, rho=0.8, seed=25))
    signals = attribute_signal_series(tweets, series, builtin_lexicon(), None)
    cfg = AgentConfig()
    assert cfg.n_actions == 1101
    model = QModel.zeros(cfg, reward=CDR)
    days = training_days(series, signals, cfg)
    tracemalloc.start()
    try:
        learner = _Learner(model, days)
        for _ in range(cfg.episodes):
            learner.episode()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _MEMO_PEAK_BYTES


# ---------------------------------------------------------------------------
# train


def aligned_inputs(prices, compounds=None):
    series = make_series(prices)
    if compounds is None:
        compounds = [0.0] * len(prices)
    return series, make_signals(series, compounds)


def test_train_is_deterministic_per_seed():
    series, signals = aligned_inputs([100.0, 105.0, 103.0, 108.0, 110.0, 104.0])
    cfg = AgentConfig(action_min=-10, action_max=10, episodes=20, seed=7)
    model_a, log_a = train(series, signals, CDR, cfg)
    model_b, log_b = train(series, signals, CDR, cfg)
    assert np.array_equal(model_a.table, model_b.table)
    assert log_a == log_b
    model_c, _ = train(series, signals, CDR, AgentConfig(**{**cfg.__dict__, "seed": 8}))
    assert not np.array_equal(model_a.table, model_c.table)


def test_train_log_shape_and_epsilons():
    series, signals = aligned_inputs([100.0, 101.0, 102.0, 103.0])
    cfg = AgentConfig(action_min=-5, action_max=5, episodes=7, epsilon_end=0.2)
    model, log = train(series, signals, SDR, cfg)
    assert log.episodes == 7
    assert len(log.mean_rewards) == 7
    assert log.epsilons == tuple(epsilon_at(cfg, e) for e in range(7))
    assert model.reward == SDR


def test_train_records_reward_and_attribute():
    series, signals = aligned_inputs([100.0, 101.0, 102.0])
    cfg = AgentConfig(action_min=-5, action_max=5, episodes=2)
    model, _ = train(series, signals, RDR, cfg, attribute=Attribute.FOLLOWERS)
    assert model.reward == RDR
    assert model.attribute is Attribute.FOLLOWERS


def test_train_constant_series_learns_zero_percent():
    series, signals = aligned_inputs([250.0] * 30)
    cfg = AgentConfig(
        action_min=-3, action_max=3, episodes=120, epsilon_end=0.0, seed=3
    )
    model, log = train(series, signals, SDR, cfg)
    visited = discretize_state(250.0, signals[0].mean_compound, cfg)
    assert model.greedy_action(visited) == 0
    # The final episode is fully greedy and a flat policy is error-free.
    assert log.mean_rewards[-1] == 0.0


# sha256 of the trained table's bytes when the same grid was spelled
# state_mode="price-only" (with sentiment_bins left at 21), before that mode
# was removed.
PRICE_ONLY_TABLE_SHA256 = {
    SDR: "6436b0385efb40b84cb8498e3d58eda1aa9b30f106fb6782a394eddcfc863153",
    RDR: "7e751c0a8f42d6cbfdaa73d0fec180618ace57f55c1c3651b960365f18ee9265",
    CDR: "fa9c7b95ac9009fd762138a65eb12a44544360ba829ca7506e0b897742d0fc11",
}


@pytest.mark.parametrize("kind", REWARD_KINDS)
def test_one_sentiment_bin_trains_the_price_only_table(kind):
    tweets, series = gen_corpus(SynthConfig(days=60, tweets_per_day=20, seed=4))
    signals = attribute_signal_series(tweets, series, builtin_lexicon(), Attribute.FOLLOWERS)
    cfg = AgentConfig(
        action_min=-8, action_max=8, price_bucket_width=2000.0, sentiment_bins=1,
        episodes=50, seed=3,
    )
    model, _ = train(series, signals, kind, cfg)
    assert model.table.shape == (50, 1, 17)
    assert hashlib.sha256(model.table.tobytes()).hexdigest() == PRICE_ONLY_TABLE_SHA256[kind]


def test_train_validates_inputs():
    series, signals = aligned_inputs([100.0, 101.0, 102.0])
    cfg = AgentConfig(action_min=-5, action_max=5)
    with pytest.raises(QLearnError, match="unknown reward kind"):
        train(series, signals, "mdr", cfg)
    with pytest.raises(AlignmentError, match="cover"):
        train(series, signals[:-1], SDR, cfg)
    with pytest.raises(AlignmentError, match="cover"):  # alignment is checked before the kind
        train(series, signals[:-1], "mdr", cfg)
    short_series, short_signals = aligned_inputs([100.0, 101.0])
    with pytest.raises(AlignmentError, match="at least 3"):
        train(short_series, short_signals, SDR, cfg)
    shifted = make_signals(make_series([100.0, 101.0, 102.0], start=series.dates[1]), [0, 0, 0])
    with pytest.raises(AlignmentError, match="does not match"):
        train(series, shifted, SDR, cfg)


# ---------------------------------------------------------------------------
# predict_series


def test_predict_identity_policy():
    series, signals = aligned_inputs([100.37, 105.0, 99.99, 101.5])
    cfg = AgentConfig(action_min=0, action_max=5)
    model = QModel.zeros(cfg)  # all-zero table: greedy tie-break picks 0 percent
    predictions = predict_series(model, series, signals)
    assert predictions == (100.37, 105.0, 99.99)


def test_predict_counts_and_pinned_action():
    series, signals = aligned_inputs([100.0, 102.0, 99.5, 101.0, 103.0])
    cfg = AgentConfig(action_min=-20, action_max=20)
    model = pinned_model(cfg, action=10)
    predictions = predict_series(model, series, signals)
    assert len(predictions) == 4
    assert predictions == tuple(predicted_price(p, 10) for p in series.prices[:-1])


def test_predict_requires_two_days():
    series, signals = aligned_inputs([100.0])
    model = QModel.zeros(AgentConfig(action_min=0, action_max=1))
    with pytest.raises(AlignmentError, match="at least 2"):
        predict_series(model, series, signals)


def test_predict_uses_actual_not_predicted_history():
    series, signals = aligned_inputs([100.0, 200.0, 400.0])
    cfg = AgentConfig(action_min=-20, action_max=20)
    model = pinned_model(cfg, action=0)
    # Each prediction restarts from the realized previous price, so a flat
    # policy predicts yesterday's actual, not its own previous output.
    assert predict_series(model, series, signals) == (100.0, 200.0)


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path):
    cfg = AgentConfig(action_min=-7, action_max=9, sentiment_bins=5, seed=11)
    model = QModel.zeros(cfg, reward=CDR, attribute=Attribute.FOLLOWERS)
    rng = np.random.default_rng(5)
    model.table[:] = rng.normal(size=model.table.shape)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    assert loaded.reward == CDR
    assert loaded.attribute is Attribute.FOLLOWERS
    assert np.array_equal(loaded.table, model.table)


def test_attribute_is_stored_as_its_name_and_loads_as_the_enum(tmp_path):
    # The file holds the attribute's name, so the bytes are those of a model
    # whose attribute was the plain string, and loading gives the enum back.
    cfg = AgentConfig(action_min=0, action_max=1)
    enum_path, name_path = tmp_path / "enum.bin", tmp_path / "name.bin"
    save_model(QModel.zeros(cfg, reward=CDR, attribute=Attribute.LIKES), enum_path)
    save_model(QModel.zeros(cfg, reward=CDR, attribute="likes"), name_path)
    assert enum_path.read_bytes() == name_path.read_bytes()
    assert load_model(name_path).attribute is Attribute.LIKES


def test_load_rejects_foreign_and_truncated_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAMODEL-AT-ALL")
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(path)

    model = QModel.zeros(AgentConfig(action_min=0, action_max=1))
    good = tmp_path / "good.bin"
    save_model(model, good)
    data = good.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-20])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(truncated)


def test_load_rejects_short_blocks_and_trailing_bytes(tmp_path):
    model = QModel.zeros(AgentConfig(action_min=0, action_max=1))
    good = tmp_path / "good.bin"
    save_model(model, good)
    data = good.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 12)
    bad = tmp_path / "bad.bin"
    # Cut inside the config block, inside the shape triple, and one byte into the table.
    for cut in (16 + blob_len // 2, 16 + blob_len + 6, 16 + blob_len + 13):
        bad.write_bytes(data[:cut])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(bad)
    bad.write_bytes(data + b"\x00")
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(bad)


@pytest.mark.parametrize("claim", ["config block", "table"])
def test_load_refuses_a_header_longer_than_the_file_before_reading_it(tmp_path, claim):
    small, path = tmp_path / "small.bin", tmp_path / "claim.bin"
    save_model(QModel.zeros(AgentConfig(action_min=0, action_max=1)), small)
    data = small.read_bytes()
    if claim == "config block":  # 18 bytes whose header claims a 256 MiB block
        data = data[:12] + struct.pack("<I", 256 << 20) + b"{}"
    else:  # a whole header whose config and shape claim a 256 MiB table
        (blob_len,) = struct.unpack_from("<I", data, 12)
        meta = json.loads(data[16 : 16 + blob_len])
        meta["agent"]["action_max"] = 8_000
        blob = json.dumps(meta).encode()
        shape = AgentConfig(action_min=0, action_max=8_000).table_shape
        data = data[:12] + struct.pack("<I", len(blob)) + blob + struct.pack("<III", *shape)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: truncated model file"
    assert peak < 2**20


def test_load_rejects_unknown_version(tmp_path):
    model = QModel.zeros(AgentConfig(action_min=0, action_max=1))
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_shape_mismatch(tmp_path):
    model = QModel.zeros(AgentConfig(action_min=0, action_max=1))
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    (blob_len,) = struct.unpack_from("<I", data, 12)
    shape_offset = 16 + blob_len
    data[shape_offset : shape_offset + 4] = struct.pack("<I", 3)
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="shape"):
        load_model(path)


def test_load_rejects_unknown_attribute_and_reward(tmp_path):
    cfg = AgentConfig(action_min=0, action_max=1)
    path = tmp_path / "m.bin"
    for reward, attribute, field in (
        ("xdr", None, "reward"),
        (5, "likes", "reward"),
        (SDR, "folowers", "attribute"),
        (None, "", "attribute"),
        (None, ["followers"], "attribute"),
    ):
        save_model(QModel.zeros(cfg, reward=reward, attribute=attribute), path)
        with pytest.raises(ModelFormatError, match=rf"m\.bin: unknown {field} "):
            load_model(path)
    save_model(QModel.zeros(cfg), path)
    assert (load_model(path).reward, load_model(path).attribute) == (None, None)


def write_v1_model(path, agent, table):
    """A format-1 model file built by hand: magic, version, JSON header, shape, table."""
    blob = json.dumps({"agent": agent, "attribute": "followers", "reward": "rdr"}).encode()
    path.write_bytes(
        b"SQMODEL\x01"
        + struct.pack("<II", 1, len(blob))
        + blob
        + struct.pack("<III", *table.shape)
        + table.astype("<f8").tobytes()
    )


# A v1 file's agent block without its state_mode key.
V1_FIELDS = {
    "action_max": 2, "action_min": -2, "episodes": 5, "epsilon_end": 0.01,
    "epsilon_start": 1.0, "gamma": 0.95, "price_bucket_width": 500.0, "price_max": 1000.0,
    "seed": 7, "sentiment_bins": 21, "theta": 0.1,
}


def test_load_reads_a_price_only_file_as_one_sentiment_bin(tmp_path):
    table = np.zeros((2, 1, 5))
    table[0, 0, 3] = 1.0  # price bin 0: +1 %
    table[1, 0, 0] = 1.0  # price bin 1: -2 %
    path = tmp_path / "price_only.bin"
    write_v1_model(path, {**V1_FIELDS, "state_mode": "price-only"}, table)
    model = load_model(path)
    assert model.config == AgentConfig(**{**V1_FIELDS, "sentiment_bins": 1})
    assert (model.reward, model.attribute) == (RDR, Attribute.FOLLOWERS)
    assert np.array_equal(model.table, table)
    series = make_series([400.0, 480.0, 510.0, 620.0, 499.99])
    signals = make_signals(series, [-0.9, 0.4, 0.95, -0.2, 0.0])
    # The predictions the file gave when price-only was a state mode of its own.
    assert predict_series(model, series, signals) == (404.0, 484.8, 499.8, 607.6)
    # Saved again, it carries the one layout every table now has.
    save_model(model, path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 12)
    saved = json.loads(data[16 : 16 + blob_len])["agent"]
    assert (saved["state_mode"], saved["sentiment_bins"]) == ("price+sentiment", 1)
    assert np.array_equal(load_model(path).table, table)


@pytest.mark.parametrize(
    "agent",
    [
        {**V1_FIELDS, "state_mode": "prices"},
        V1_FIELDS,
        [["state_mode", "price-only"]],
        "price-only",
        None,
    ],
    ids=["unknown-state-mode", "missing-state-mode", "list", "string", "null"],
)
def test_load_rejects_a_bad_state_mode_or_agent_block(tmp_path, agent):
    path = tmp_path / "m.bin"
    write_v1_model(path, agent, np.zeros((2, 1, 5)))
    with pytest.raises(ModelFormatError, match=r"m\.bin: bad config block: "):
        load_model(path)


def test_load_rejects_a_float_in_an_integer_field(tmp_path):
    # The table has the shape the config gives, so only the type check stops it.
    path = tmp_path / "m.bin"
    agent = {**V1_FIELDS, "action_min": -8.0, "action_max": 8, "state_mode": "price+sentiment"}
    write_v1_model(path, agent, np.zeros((2, 21, 17)))
    message = r"m\.bin: bad config block: action_min must be an integer, got -8\.0"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


# ---------------------------------------------------------------------------
# zero blocks as file holes

BLOCK_WORDS = 8192  # save_model writes or skips the table 64 KiB at a time
# Bit patterns that are data though some compare equal to 0.0 or to nothing:
# -0.0, a quiet and a signalling NaN with payloads, the least subnormal, inf.
SPECIAL_WORDS = (1 << 63, 0x7FF8_0000_0000_0001, 0xFFF0_0000_0000_0002, 1, 0x7FF0 << 48)


def grid_config(prices, bins, actions):
    """A config whose table is (prices, bins, actions); the grid has at least 2 price bins."""
    return AgentConfig(
        action_min=0, action_max=actions - 1, price_bucket_width=1.0,
        price_max=float(prices), sentiment_bins=bins,
    )


@st.composite
def sparse_models(draw):
    """Models whose tables are all zero, all live, or zero but for some rows or words.

    Sizes run over one to about thirty 64 KiB blocks, most ending in a partial
    block and some in a whole one; the chosen words include each block's
    first and last, so live data sits on every kind of boundary.
    """
    shape = draw(st.one_of(
        st.tuples(st.integers(2, 40), st.sampled_from([1, 3, 5]), st.integers(2, 1200)),
        st.sampled_from([(8, 1, 1024), (16, 1, 1024), (2, 1, 2)]),
    ))
    model = QModel.zeros(grid_config(*shape), reward=CDR, attribute="likes")
    words = model.table.reshape(-1).view("<u8")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "live", "rows", "words"]))
    if kind == "live":
        words[:] = rng.integers(1, 2**64, size=words.size, dtype=np.uint64)
    elif kind == "rows":
        rows = model.table.reshape(-1, shape[2])
        for row in draw(st.sets(st.integers(0, len(rows) - 1), max_size=6)):
            rows[row] = rng.normal(size=shape[2])
    elif kind == "words":
        edges = [i for k in range(0, words.size + 1, BLOCK_WORDS) for i in (k - 1, k)]
        picks = st.one_of(
            st.sampled_from([i for i in edges if 0 <= i < words.size] + [words.size - 1]),
            st.integers(0, words.size - 1),
        )
        for i in draw(st.lists(picks, min_size=1, max_size=8)):
            words[i] = draw(st.sampled_from(SPECIAL_WORDS))
    return model


@settings(max_examples=80, deadline=None)
@given(model=sparse_models())
def test_save_writes_the_dense_writers_bytes_and_load_reads_every_bit(tmp_path_factory, model):
    root = tmp_path_factory.mktemp("holes")
    ours, dense, hand = root / "ours.bin", root / "dense.bin", root / "hand.bin"
    save_model(model, ours)
    oracles.o_save_model(model, dense)
    agent = {**asdict(model.config), "state_mode": "price+sentiment"}
    write_v1_model(hand, agent, model.table)
    assert ours.read_bytes() == dense.read_bytes()
    want = model.table.view("<u8")
    for path in (ours, dense, hand):
        assert np.array_equal(load_model(path).table.view("<u8"), want)


def one_live_row_default_model():
    """The CLI's default grid (4,200 rows x 1,101 actions, 37 MB) with one row trained."""
    model = QModel.zeros(AgentConfig())
    model.table[3, 10] = np.linspace(-1.0, 1.0, model.table.shape[2])
    return model


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_loading_a_sparse_default_grid_model_leaves_its_holes_untouched(tmp_path):
    path = tmp_path / "wide.bin"
    save_model(one_live_row_default_model(), path)
    # A fresh child's VmHWM is the peak RSS of its own image alone; ru_maxrss
    # is not, as Linux carries it across exec from the forking test process.
    script = (
        "import sys\n"
        "from sentiq.qlearn import load_model\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as status:\n"
        "        hwm = next(line for line in status if line.startswith('VmHWM:'))\n"
        "    return int(hwm.split()[1])\n"
        "before = peak_kib()\n"
        "table = load_model(sys.argv[1]).table\n"
        "assert table[3, 10, 0] == -1.0 and table[3, 10, -1] == 1.0 and table[0, 0, 0] == 0.0\n"
        "print(peak_kib() - before)\n"
    )
    path_dirs = filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_dirs)}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 1024  # KiB; a dense load adds the table's 37 MB


def test_a_sparse_default_grid_model_takes_under_1_mib_on_disk(tmp_path):
    probe = tmp_path / "probe.bin"
    with probe.open("wb") as handle:
        handle.seek(4 * 2**20)
        handle.write(b"\x01")
    if getattr(probe.stat(), "st_blocks", None) is None or probe.stat().st_blocks * 512 >= 2**20:
        pytest.skip("the temp filesystem does not store holes")
    path = tmp_path / "wide.bin"
    model = one_live_row_default_model()
    save_model(model, path)
    info = path.stat()
    assert info.st_size > model.table.nbytes
    assert info.st_blocks * 512 < 2**20


def test_save_model_writes_a_device_that_cannot_hold_holes():
    save_model(one_live_row_default_model(), os.devnull)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize(
    "cut, error", [(0, None), (20, "truncated"), (-1, "truncated")], ids=["whole", "short", "long"]
)
def test_load_model_reads_a_named_pipe(tmp_path, cut, error):
    model = QModel.zeros(grid_config(30, 3, 300), reward=SDR)  # 3.3 blocks
    model.table[9] = 1.5  # words 8,100-8,999: blocks 0 and 1
    model.table[29, 2, -1] = -0.0  # the last word; block 2 stays a hole
    saved, fifo = tmp_path / "m.bin", tmp_path / "m.fifo"
    save_model(model, saved)
    data = saved.read_bytes()
    data = data + b"\x00" if cut < 0 else data[: len(data) - cut]
    os.mkfifo(fifo)

    def feed():
        with fifo.open("wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        if error is None:
            assert np.array_equal(load_model(fifo).table.view("<u8"), model.table.view("<u8"))
        else:
            with pytest.raises(ModelFormatError, match=error):
                load_model(fifo)
    finally:
        writer.join(10)
