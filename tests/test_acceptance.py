"""Release-gate checks.

Each test covers one gate: reward arithmetic, Bellman updates, metric
fidelity, text-cleaning goldens, signal-recovery on planted corpora, the
resource comparison, and stage-wise reproducibility. Every test prints one
``ACCEPTANCE NN <name>: PASS`` line (visible with ``pytest -s``) and asserts
its own wall-clock budget. Run the whole gate with::

    python -m pytest tests/test_acceptance.py -v
"""

import functools
import hashlib
import json
import math
import time

import numpy as np
import pytest

import oracles
from helpers import run_cli
from test_preprocess import assert_clean_invariants
from sentiq.attributes import Attribute
from sentiq.bench import BenchConfig, chronological_split, compare
from sentiq.corpus import bucket_by_day, load_tweets
from sentiq.metrics import evaluate, mape, nse, r2, rmse, vaf, wmape
from sentiq.preprocess import clean
from sentiq.profiler import start as profiler_start, stop as profiler_stop
from sentiq.qlearn import (
    CDR,
    RDR,
    SDR,
    AgentConfig,
    QModel,
    State,
    predict_series,
    q_update,
    reward_cdr,
    reward_rdr,
    reward_sdr,
    select_action,
    train,
    zero_reward_points,
)
from sentiq.sentiment import day_signal
from sentiq.synth import SynthConfig, gen_corpus

ATTRIBUTES = (
    Attribute.FOLLOWERS,
    Attribute.COMMENTS,
    Attribute.LIKES,
    Attribute.RETWEETS,
)


def planted_corpus(seed: int):
    return gen_corpus(SynthConfig(days=1000, tweets_per_day=200, rho=0.8, seed=seed))


@pytest.fixture(scope="module")
def planted_corpora():
    """``planted_corpus``, generated on a seed's first use and shared by 05 and 06.

    The first test to ask for a seed pays for generating it inside its own
    timed body; the corpora are released when this module's tests finish.
    """
    corpus = functools.lru_cache(maxsize=None)(planted_corpus)
    yield corpus
    corpus.cache_clear()


def planted_agent(seed: int) -> AgentConfig:
    """Agent sized for the planted corpora: one price bucket, fine sentiment grid."""
    return AgentConfig(
        gamma=0.95,
        theta=0.1,
        action_min=-8,
        action_max=8,
        epsilon_start=1.0,
        epsilon_end=0.05,
        episodes=10,
        price_bucket_width=500_000.0,
        price_max=1_000_000.0,
        sentiment_bins=51,
        seed=seed,
    )


def test_acceptance_01_reward_shapes(capsys):
    t0 = time.perf_counter()

    assert reward_sdr(110.0, 110.0) == 0.0
    assert abs(reward_sdr(110.0, 99.0) - (-11.0)) <= 1e-9
    assert abs(reward_sdr(100.0, 130.0) - (-30.0)) <= 1e-9

    assert reward_rdr(100.0, 100.0) == 0.0
    assert abs(reward_rdr(100.0, 90.0) - (-10.0)) <= 1e-9
    assert abs(reward_rdr(200.0, 90.0) - (-55.0)) <= 1e-9

    g = zero_reward_points(110.0, 100.0, 90.0)
    assert abs(g.alpha - 0.1) <= 1e-9
    assert abs(g.l - 11.0) <= 1e-9
    assert abs(g.zr1 - 99.0) <= 1e-9
    assert abs(g.zr2 - 121.0) <= 1e-9
    wide = zero_reward_points(110.0, 100.0, 120.0)
    assert abs(wide.l - 22.0) <= 1e-9
    assert abs(wide.zr1 - 88.0) <= 1e-9
    assert abs(wide.zr2 - 132.0) <= 1e-9
    assert zero_reward_points(110.0, 100.0, 100.0).degenerate

    assert abs(reward_cdr(g, 110.0, 110.0) - 100.0) <= 1e-9
    assert abs(reward_cdr(g, 110.0, 99.0) - 0.0) <= 1e-9
    assert abs(reward_cdr(g, 110.0, 121.0) - 0.0) <= 1e-9
    assert abs(reward_cdr(g, 110.0, 115.5) - 50.0) <= 1e-9

    # Closed form 100*(1 - |pp-ap|/l) on 10,000 random non-degenerate inputs.
    rng = np.random.default_rng(20250801)
    checked = 0
    while checked < 10_000:
        ap = float(rng.uniform(1.0, 1e5))
        ap_prev = float(rng.uniform(1.0, 1e5))
        pp_prev = float(rng.uniform(0.0, 2e5))
        pp = float(rng.uniform(0.0, 2e5))
        geometry = zero_reward_points(ap, ap_prev, pp_prev)
        if geometry.degenerate:
            continue
        want = oracles.o_cdr_closed_form(ap, pp, geometry.l)
        got = reward_cdr(geometry, ap, pp)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (
            ap,
            ap_prev,
            pp_prev,
            pp,
        )
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 01 reward shapes: PASS ({elapsed:.2f}s)")


def test_acceptance_02_bellman_updates(capsys):
    t0 = time.perf_counter()

    grid = dict(
        action_min=0,
        action_max=1,
        price_bucket_width=500.0,
        price_max=1000.0,
        sentiment_bins=1,
        episodes=1,
    )

    # Full overwrite at theta=1, gamma=0.
    model = QModel.zeros(AgentConfig(theta=1.0, gamma=0.0, **grid))
    assert q_update(model, State(0, 0), 0, -10.0, State(0, 0)) == -10.0

    # Hand Bellman arithmetic: 2 + 0.5*(1 + 0.95*4 - 2) = 3.4.
    model = QModel.zeros(AgentConfig(theta=0.5, gamma=0.95, **grid))
    model.table[0, 0, 0] = 2.0
    model.table[1, 0, 1] = 4.0
    assert abs(q_update(model, State(0, 0), 0, 1.0, State(1, 0)) - 3.4) <= 1e-9

    # Fixed point: Q(s,a) already equals r + gamma*max_next, so it is unchanged.
    model = QModel.zeros(AgentConfig(theta=0.5, gamma=0.5, **grid))
    model.table[1, 0, 0] = 4.0
    model.table[0, 0, 1] = 3.0
    assert q_update(model, State(0, 0), 1, 1.0, State(1, 0)) == 3.0

    # Toy 2-state / 2-action MDP: staying in state 0 pays 1 forever, but the
    # optimum forgoes that to reach state 1 where staying pays 2 forever.
    transition = ((0, 1), (1, 0))
    reward = ((1.0, 0.0), (2.0, 0.0))
    gamma = 0.9
    policy, values = oracles.o_value_iteration(2, 2, transition, reward, gamma)
    assert policy == [1, 0]
    assert values == pytest.approx([18.0, 20.0], abs=1e-6)

    mdp_cfg = AgentConfig(gamma=gamma, theta=0.2, **grid)
    matches = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = QModel.zeros(mdp_cfg)
        state = 0
        for _ in range(4000):
            action = select_action(model, State(state, 0), 0.3, rng)
            nxt = transition[state][action]
            q_update(model, State(state, 0), action, reward[state][action], State(nxt, 0))
            state = nxt
        learned = [model.greedy_action(State(s, 0)) for s in range(2)]
        matches += learned == policy
    assert matches == 10, f"greedy policy matched value iteration in {matches}/10 seeds"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 02 bellman updates: PASS ({elapsed:.2f}s)")


def test_acceptance_03_metric_fidelity(capsys):
    t0 = time.perf_counter()

    y = [100.0, 101.0, 103.0, 99.5]
    assert vaf(y, y) == 100.0
    assert r2(y, y) == 1.0
    assert nse(y, y) == 1.0
    assert mape(y, y) == 0.0
    assert rmse(y, y) == 0.0
    assert wmape(y, y) == 0.0
    report = evaluate(y, y)
    assert (report.vaf, report.r2, report.mape, report.nse, report.rmse, report.wmape) == (
        100.0,
        1.0,
        0.0,
        1.0,
        0.0,
        0.0,
    )

    pairs = [
        (vaf, oracles.o_vaf),
        (r2, oracles.o_r2),
        (mape, oracles.o_mape),
        (nse, oracles.o_nse),
        (rmse, oracles.o_rmse),
        (wmape, oracles.o_wmape),
    ]
    rng = np.random.default_rng(20250303)
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        actual = rng.uniform(1.0, 1000.0, n).tolist()
        predicted = rng.uniform(0.0, 1000.0, n).tolist()
        for fn, oracle_fn in pairs:
            got = fn(actual, predicted)
            want = oracle_fn(actual, predicted)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), fn.__name__
        assert r2(actual, predicted) == nse(actual, predicted)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 03 metric fidelity: PASS ({elapsed:.2f}s)")


def test_acceptance_04_cleaning_goldens(capsys, data_dir):
    t0 = time.perf_counter()

    records = load_tweets(data_dir / "clean_fixture.csv").records
    assert len(records) == 50
    produced = "".join(f"{record.id}\t{clean(record.text)}\n" for record in records)
    assert produced.encode("utf-8") == (data_dir / "clean_golden.tsv").read_bytes()

    fragments = (
        "hello", "WORLD", "BUY", "btc", "Rt", "RT", "rt",
        "@someone", "@BigWhale42", "@@",
        "#btc", "#ToTheMoon", "##tag",
        "http://x.co/a1", "https://Example.COM/page?q=1", "www.chart.io/x",
        "wwww.typo.com", "awww.sleepy",
        "soooo", "mooooon", "!!!!", "....", "..", "...",
        "🚀🚀🚀🚀🚀", "cool.", "a@b.com", "e:mail", "50%", "$1,000",
        "\tindent", "line\nbreak", "  ", "", "ñandú", "ÅNGSTRÖM",
    )
    glue = (" ", " ", " ", "", "  ", "..", ". ")
    rng = np.random.default_rng(20250404)
    for _ in range(10_000):
        k = int(rng.integers(1, 8))
        chosen = rng.integers(0, len(fragments), size=k)
        joins = rng.integers(0, len(glue), size=k)
        text = "".join(fragments[int(f)] + glue[int(j)] for f, j in zip(chosen, joins))
        assert_clean_invariants(clean(text))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE 04 cleaning goldens: PASS ({elapsed:.2f}s)")


def test_acceptance_05_planted_signal_recovery(capsys, lexicon, planted_corpora):
    t0 = time.perf_counter()

    follower_wins = 0
    normalized_reward_wins = 0
    per_seed = []
    for seed in range(10):
        tweets, series = planted_corpora(seed)
        buckets = bucket_by_day(tweets, series)
        cfg = planted_agent(seed)
        scores = {}
        for attribute in ATTRIBUTES:
            # Rank the raw tweets, then clean, dedup and score the kept half.
            signals = [day_signal(day, attribute, lexicon)[0] for day in buckets]
            if seed == 0 and attribute is Attribute.FOLLOWERS:
                # Sanity: the planted follower signal is strong but not perfect.
                compounds = np.array([s.mean_compound for s in signals])[:-1]
                returns = np.diff(np.log(np.asarray(series.prices)))
                corr = float(np.corrcoef(compounds, returns)[0, 1])
                assert 0.7 <= corr <= 0.9, corr
            train_p, train_s, test_p, test_s = chronological_split(series, signals, 0.7)
            kinds = (CDR, SDR, RDR) if attribute is Attribute.FOLLOWERS else (CDR,)
            for kind in kinds:
                model, _ = train(train_p, train_s, kind, cfg)
                predictions = predict_series(model, test_p, test_s)
                scores[(attribute, kind)] = vaf(test_p.prices[1:], predictions)

        follower = scores[(Attribute.FOLLOWERS, CDR)]
        follower_wins += all(
            follower > scores[(other, CDR)] for other in ATTRIBUTES[1:]
        )
        normalized_reward_wins += (
            follower > scores[(Attribute.FOLLOWERS, SDR)]
            and follower > scores[(Attribute.FOLLOWERS, RDR)]
        )
        per_seed.append(follower)

    assert follower_wins >= 9, f"follower filter won only {follower_wins}/10 seeds"
    assert normalized_reward_wins >= 8, (
        f"normalized reward won only {normalized_reward_wins}/10 seeds"
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(
            f"ACCEPTANCE 05 planted signal recovery: PASS "
            f"(followers {follower_wins}/10, normalized reward {normalized_reward_wins}/10, "
            f"{elapsed:.0f}s)"
        )


def test_acceptance_06_resource_comparison(capsys, lexicon, planted_corpora):
    t0 = time.perf_counter()

    # CPU-channel calibration: a spin loop must read high, sleep must read low.
    handle = profiler_start(0.25)
    deadline = time.monotonic() + 2.0
    spin = 0
    while time.monotonic() < deadline:
        spin += 1
    busy = profiler_stop(handle)
    handle = profiler_start(0.25)
    time.sleep(2.0)
    idle = profiler_stop(handle)
    assert spin > 0
    assert busy.cpu.avg > 50.0, busy.cpu
    assert idle.cpu.avg < 10.0, idle.cpu

    wall_wins = 0
    for seed in range(10):
        tweets, series = planted_corpora(seed)
        cfg = BenchConfig(
            agent=planted_agent(seed),
            reward=CDR,
            train_frac=0.7,
            seconds=20.0,
            target_vaf=95.0,
        )
        report = compare(tweets, series, lexicon, cfg)
        classic, proposed = report.classic, report.proposed
        assert proposed.tweets_utilized < classic.tweets_utilized
        wall_wins += proposed.wall_seconds < classic.wall_seconds
        for result in (classic, proposed):
            for channel in (result.resources.cpu, result.resources.ram, result.resources.mem):
                assert channel.min <= channel.avg <= channel.max

    assert wall_wins >= 8, f"filtered pipeline was faster in only {wall_wins}/10 seeds"

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.2f}s"
    with capsys.disabled():
        print(
            f"ACCEPTANCE 06 resource comparison: PASS "
            f"(wall wins {wall_wins}/10, {elapsed:.0f}s)"
        )


def _pipeline_artifacts(root):
    """Run every stage through the CLI in ``root`` and return artifact bytes."""
    (root / "agent.cfg").write_text(
        "episodes = 10\naction_min = -8\naction_max = 8\n", encoding="utf-8"
    )
    stages = [
        ["synth", "--days", 40, "--tweets-per-day", 6, "--rho", 0.8, "--seed", 3,
         "--out-tweets", "tweets.csv", "--out-prices", "prices.csv"],
        ["preprocess", "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--out", "cleaned.csv"],
        ["split", "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--attribute", "followers", "--out", "split.csv"],
        ["sentiment", "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--attribute", "followers", "--out", "signals.csv"],
        ["train", "--config", "agent.cfg", "--seed", 7, "--attribute", "followers",
         "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--log", "train_log.json", "--out", "model.bin"],
        ["predict", "--model", "model.bin", "--tweets", "tweets.csv",
         "--prices", "prices.csv", "--out", "predictions.csv"],
        ["evaluate", "--actual", "prices.csv", "--predicted", "predictions.csv",
         "--out", "eval_report.json"],
        ["compare", "--config", "agent.cfg", "--tweets", "tweets.csv",
         "--prices", "prices.csv", "--target-vaf", -1e9,
         "--seconds", 30, "--out", "compare.json"],
    ]
    for stage in stages:
        code, _, err = run_cli(stage, cwd=root)
        assert code == 0, f"{stage[0]} failed: {err}"

    artifacts = {}
    for name in (
        "tweets.csv",
        "prices.csv",
        "cleaned.csv",
        "split.csv",
        "split.csv.meta.json",
        "signals.csv",
        "model.bin",
        "train_log.json",
        "predictions.csv",
        "eval_report.json",
    ):
        artifacts[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()

    # The comparison report embeds real profiler readings, wall times and
    # CPU times; those channels are exempt, everything else must reproduce.
    payload = json.loads((root / "compare.json").read_text(encoding="utf-8"))
    for side in ("classic", "proposed"):
        payload[side].pop("resources")
        payload[side].pop("wall_seconds")
        payload[side].pop("cpu_seconds")
    artifacts["compare.json"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return artifacts


def test_acceptance_07_stagewise_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()

    first = tmp_path / "run1"
    second = tmp_path / "run2"
    first.mkdir()
    second.mkdir()
    hashes_first = _pipeline_artifacts(first)
    hashes_second = _pipeline_artifacts(second)
    assert hashes_first == hashes_second

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE 07 stagewise reproducibility: PASS ({elapsed:.0f}s)")
