import csv
import json

import pytest

from helpers import attribute_signal_series, run_cli
from sentiq.attributes import Attribute, build_dataset
from sentiq.cli import build_parser
from sentiq.corpus import bucket_by_day, load_prices, load_tweets
from sentiq.preprocess import clean, clean_and_dedup
from sentiq.qlearn import load_model
from sentiq.sentiment import builtin_lexicon, daily_signals, day_signal


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """One synthetic corpus written through the CLI, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    tweets = root / "tweets.csv"
    prices = root / "prices.csv"
    code, out, err = run_cli(
        [
            "synth",
            "--days", 40,
            "--tweets-per-day", 6,
            "--rho", 0.8,
            "--seed", 3,
            "--out-tweets", tweets,
            "--out-prices", prices,
        ],
        cwd=root,
    )
    assert code == 0, err
    assert "wrote 240 tweets" in out
    return root, tweets, prices


@pytest.fixture(scope="module")
def agent_cfg_file(cli_corpus):
    root, _, _ = cli_corpus
    path = root / "agent.cfg"
    path.write_text(
        "# small agent for fast runs\n"
        "episodes = 10\n"
        "action_min = -8\n"
        "action_max = 8\n",
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(tmp_path):
    assert run_cli([], cwd=tmp_path)[0] == 2
    assert run_cli(["frobnicate"], cwd=tmp_path)[0] == 2
    assert run_cli(["train", "--tweets", "t", "--prices", "p"], cwd=tmp_path)[0] == 2
    code, _, err = run_cli(
        ["train", "--tweets", "t", "--prices", "p", "--out", "m", "--reward", "xdr"],
        cwd=tmp_path,
    )
    assert code == 2
    assert "invalid choice" in err
    assert run_cli(
        ["compare", "--tweets", "t", "--prices", "p", "--seconds", "soon"], cwd=tmp_path
    )[0] == 2
    # Only synth, train and compare read a seed.
    assert run_cli(["preprocess", "--tweets", "t", "--out", "o", "--seed", 1], cwd=tmp_path)[0] == 2


def test_help_exits_0(tmp_path):
    code, out, _ = run_cli(["--help"], cwd=tmp_path)
    assert code == 0
    for name in ("synth", "preprocess", "split", "sentiment", "train", "predict", "evaluate", "compare"):
        assert name in out


def test_domain_errors_exit_1(tmp_path):
    code, _, err = run_cli(
        ["synth", "--days", 1, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert err.startswith("error: ")

    code, _, err = run_cli(
        ["preprocess", "--tweets", tmp_path / "missing.csv", "--out", "o.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert err.startswith("error: ")


def test_out_of_range_timestamp_exits_1_with_one_line(tmp_path):
    tweets = tmp_path / "tweets.csv"
    tweets.write_text(
        "id,timestamp,text,followers,comments,likes,retweets\n"
        "a,1609459200000,millisecond epoch,0,0,0,0\n",
        encoding="utf-8",
    )
    prices = tmp_path / "prices.csv"
    prices.write_text("date,price\n2021-01-01,100.00\n2021-01-02,101.00\n", encoding="utf-8")
    for extra in ([], ["--prices", prices]):
        code, _, err = run_cli(
            ["preprocess", "--tweets", tweets, "--out", "o.csv", *extra], cwd=tmp_path
        )
        assert code == 1
        assert err.startswith(f"error: {tweets}:2: field 'timestamp': ")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_config_file_errors_exit_1(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("bogus_knob = 3\n", encoding="utf-8")
    code, _, err = run_cli(
        ["synth", "--config", bad_key, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert "unknown config key" in err

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("days = soon\n", encoding="utf-8")
    code, _, err = run_cli(
        ["synth", "--config", bad_value, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert f"{bad_value}:1: config key 'days': not a number: 'soon'" in err

    # Values are cast as the file is read, so a key synth never reads fails too.
    unread = tmp_path / "unread.cfg"
    unread.write_text("days = 3\nseconds = soon\n", encoding="utf-8")
    code, _, err = run_cli(
        ["synth", "--config", unread, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert f"{unread}:2: config key 'seconds': not a number: 'soon'" in err

    not_assignment = tmp_path / "broken.cfg"
    not_assignment.write_text("days\n", encoding="utf-8")
    code, _, err = run_cli(
        ["synth", "--config", not_assignment, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert "expected key = value" in err


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_are_deterministic(tmp_path):
    args = ["synth", "--days", 8, "--tweets-per-day", 3, "--rho", 0.5, "--seed", 11]
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        code, _, err = run_cli(
            args + ["--out-tweets", d / "t.csv", "--out-prices", d / "p.csv"], cwd=d
        )
        assert code == 0, err
    assert (tmp_path / "a/t.csv").read_bytes() == (tmp_path / "b/t.csv").read_bytes()
    assert (tmp_path / "a/p.csv").read_bytes() == (tmp_path / "b/p.csv").read_bytes()
    assert load_prices(tmp_path / "a/p.csv")


def test_config_precedence_flag_beats_file_beats_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("days = 30\ntweets_per_day = 2\n", encoding="utf-8")

    def rows(name, extra):
        out_t = tmp_path / f"{name}.csv"
        code, _, err = run_cli(
            ["synth", *extra, "--out-tweets", out_t, "--out-prices", tmp_path / f"{name}_p.csv"],
            cwd=tmp_path,
        )
        assert code == 0, err
        return sum(1 for _ in out_t.open()) - 1  # drop the header

    assert rows("default", ["--tweets-per-day", 2]) == 100 * 2  # built-in default days
    assert rows("fromfile", ["--config", cfg]) == 30 * 2
    assert rows("flagwins", ["--config", cfg, "--days", 12]) == 12 * 2


# ---------------------------------------------------------------------------
# preprocess / split / sentiment


def test_preprocess_writes_cleaned_rows(cli_corpus):
    root, tweets, prices = cli_corpus
    out = root / "cleaned.csv"
    code, stdout, err = run_cli(
        ["preprocess", "--tweets", tweets, "--prices", prices, "--out", out], cwd=root
    )
    assert code == 0, err
    assert "cleaned tweets" in stdout
    cleaned = load_tweets(out).records
    assert cleaned
    for record in cleaned:
        assert clean(record.text) == record.text


def test_split_writes_sidecar_metadata(cli_corpus):
    root, tweets, prices = cli_corpus
    out = root / "split.csv"
    code, stdout, err = run_cli(
        [
            "split",
            "--tweets", tweets,
            "--prices", prices,
            "--attribute", "followers",
            "--out", out,
        ],
        cwd=root,
    )
    assert code == 0, err
    meta = json.loads((root / "split.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["attribute"] == "followers"
    assert meta["days"] == 40

    series = load_prices(prices)
    loaded = load_tweets(tweets, window=series.window())
    # split keeps ceil(n/2) of each day's cleaned and deduplicated tweets.
    buckets = clean_and_dedup(bucket_by_day(loaded.records, series))
    kept = sum((len(b.tweets) + 1) // 2 for b in buckets)
    assert meta["tweets"] == kept
    assert len(load_tweets(out).records) == kept


def test_split_writes_each_day_in_rank_order(tmp_path):
    code, _, err = run_cli(
        ["synth", "--days", 3, "--tweets-per-day", 6, "--seed", 1,
         "--out-tweets", "tweets.csv", "--out-prices", "prices.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    code, _, err = run_cli(
        ["split", "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--attribute", "followers", "--out", "split.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    records = load_tweets(tmp_path / "split.csv").records
    # Days in series order; within a day, followers descending, not time order.
    assert [r.day() for r in records] == sorted(r.day() for r in records)
    assert [r.id for r in records[:3]] == ["00000001", "00000002", "00000000"]
    assert records[0].timestamp > records[1].timestamp
    for day in {r.day() for r in records}:
        followers = [r.followers for r in records if r.day() == day]
        assert followers == sorted(followers, reverse=True)


def test_sentiment_writes_daily_signal_csv(cli_corpus):
    root, tweets, prices = cli_corpus
    out = root / "signals.csv"
    code, stdout, err = run_cli(
        [
            "sentiment",
            "--tweets", tweets,
            "--prices", prices,
            "--attribute", "followers",
            "--out", out,
        ],
        cwd=root,
    )
    assert code == 0, err

    series = load_prices(prices)
    loaded = load_tweets(tweets, window=series.window())
    dataset = build_dataset(bucket_by_day(loaded.records, series), Attribute.FOLLOWERS)
    expected = daily_signals(clean_and_dedup(dataset.buckets), builtin_lexicon())

    with out.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["date", "mean_compound", "tweet_count"]
        rows = list(reader)
    assert len(rows) == 40
    for row, signal in zip(rows, expected):
        assert row[0] == signal.date.isoformat()
        assert row[1] == f"{signal.mean_compound:.6f}"
        assert int(row[2]) == signal.tweet_count


def test_sentiment_ranks_raw_tweets_before_cleaning(tmp_path):
    # One day of five tweets; the lowest-follower one cleans to empty. Ranked
    # raw, the day keeps ceil(5/2) = 3 places and the empty tweet is not
    # among them. Cleaned first, it would be dropped and the day would keep
    # ceil(4/2) = 2.
    texts = [
        (900, "bullish rally to the moon"),
        (700, "surge incoming"),
        (500, "crash fears bearish"),
        (300, "quiet day"),
        (100, "@someone http://x.co"),
    ]
    rows = ["id,timestamp,text,followers,comments,likes,retweets"]
    rows += [
        f"t{i},{1_614_556_800 + 60 * i},{text},{followers},0,0,0"
        for i, (followers, text) in enumerate(texts)
    ]
    (tmp_path / "tweets.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "prices.csv").write_text(
        "date,price\n2021-03-01,100.0\n2021-03-02,101.0\n", encoding="utf-8"
    )
    code, _, err = run_cli(
        ["sentiment", "--tweets", "tweets.csv", "--prices", "prices.csv",
         "--attribute", "followers", "--out", "signals.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    with (tmp_path / "signals.csv").open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [int(row[2]) for row in rows] == [3, 0]

    # The CLI, ``compare`` and the library order the tests use define the
    # filtered pipeline the same way.
    series = load_prices(tmp_path / "prices.csv")
    records = load_tweets(tmp_path / "tweets.csv", window=series.window()).records
    library = attribute_signal_series(records, series, builtin_lexicon(), Attribute.FOLLOWERS)
    for row, bucket, signal in zip(rows, bucket_by_day(records, series), library, strict=True):
        one_pass, _ = day_signal(bucket, Attribute.FOLLOWERS, builtin_lexicon())
        for s in (one_pass, signal):
            assert row == [s.date.isoformat(), f"{s.mean_compound:.6f}", str(s.tweet_count)]


# ---------------------------------------------------------------------------
# train / predict / evaluate


def test_train_then_predict_round_trip(cli_corpus, agent_cfg_file):
    root, tweets, prices = cli_corpus
    model_path = root / "model.bin"
    log_path = root / "train_log.json"
    code, stdout, err = run_cli(
        [
            "train",
            "--config", agent_cfg_file,
            "--tweets", tweets,
            "--prices", prices,
            "--attribute", "followers",
            "--seed", 7,
            "--log", log_path,
            "--out", model_path,
        ],
        cwd=root,
    )
    assert code == 0, err
    assert "trained cdr model on 40 days" in stdout

    model = load_model(model_path)
    assert model.reward == "cdr"
    assert model.attribute == "followers"
    assert model.config.episodes == 10  # from the config file
    assert model.config.action_min == -8
    assert model.config.seed == 7  # the flag beat any file/default value

    log = json.loads(log_path.read_text(encoding="utf-8"))
    assert len(log["mean_rewards"]) == 10
    assert len(log["epsilons"]) == 10

    pred_path = root / "predictions.csv"
    code, stdout, err = run_cli(
        [
            "predict",
            "--model", model_path,
            "--tweets", tweets,
            "--prices", prices,
            "--out", pred_path,
        ],
        cwd=root,
    )
    assert code == 0, err
    with pred_path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        assert next(reader) == ["date", "price"]
        rows = list(reader)
    assert len(rows) == 39  # one prediction per day after the first
    for date_str, price_str in rows:
        assert float(price_str) >= 0.0
        assert len(date_str) == 10


def test_train_config_file_seed_applies_without_flag(cli_corpus, agent_cfg_file):
    root, tweets, prices = cli_corpus
    cfg = root / "seeded.cfg"
    cfg.write_text(
        agent_cfg_file.read_text(encoding="utf-8") + "seed = 5\n", encoding="utf-8"
    )
    model_path = root / "seeded_model.bin"
    code, _, err = run_cli(
        ["train", "--config", cfg, "--tweets", tweets, "--prices", prices, "--out", model_path],
        cwd=root,
    )
    assert code == 0, err
    assert load_model(model_path).config.seed == 5


def write_series_csv(path, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "price"])
        writer.writerows(rows)


def test_evaluate_perfect_match(tmp_path):
    actual = tmp_path / "actual.csv"
    predicted = tmp_path / "predicted.csv"
    rows = [("2021-01-01", "100.0"), ("2021-01-02", "110.0"), ("2021-01-03", "99.0")]
    write_series_csv(actual, rows)
    write_series_csv(predicted, rows)
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(
        ["evaluate", "--actual", actual, "--predicted", predicted, "--out", out], cwd=tmp_path
    )
    assert code == 0, err
    assert "VAF(%)" in stdout
    assert "100.0000" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["vaf"] == 100.0
    assert payload["r2"] == 1.0
    assert payload["n"] == 3


def test_evaluate_joins_on_shared_dates_only(tmp_path):
    actual = tmp_path / "actual.csv"
    predicted = tmp_path / "predicted.csv"
    write_series_csv(
        actual,
        [("2021-01-01", "100.0"), ("2021-01-02", "110.0"), ("2021-01-05", "130.0")],
    )
    write_series_csv(
        predicted,
        [("2021-01-02", "110.0"), ("2021-01-05", "130.0"), ("2021-01-09", "7.0")],
    )
    code, stdout, err = run_cli(
        ["evaluate", "--actual", actual, "--predicted", predicted], cwd=tmp_path
    )
    assert code == 0, err
    assert " 2" in stdout  # two shared dates scored


def test_evaluate_error_cases(tmp_path):
    actual = tmp_path / "actual.csv"
    predicted = tmp_path / "predicted.csv"
    write_series_csv(actual, [("2021-01-01", "100.0"), ("2021-01-01", "101.0")])
    write_series_csv(predicted, [("2021-01-01", "100.0")])
    code, _, err = run_cli(
        ["evaluate", "--actual", actual, "--predicted", predicted], cwd=tmp_path
    )
    assert code == 1
    assert "duplicate date" in err

    write_series_csv(actual, [("2021-01-01", "100.0"), ("2021-01-02", "101.0")])
    write_series_csv(predicted, [("2021-01-02", "100.0")])
    code, _, err = run_cli(
        ["evaluate", "--actual", actual, "--predicted", predicted], cwd=tmp_path
    )
    assert code == 1
    assert "at least 2 shared dates" in err

    (tmp_path / "bad_header.csv").write_text("when,how\n", encoding="utf-8")
    code, _, err = run_cli(
        ["evaluate", "--actual", tmp_path / "bad_header.csv", "--predicted", predicted],
        cwd=tmp_path,
    )
    assert code == 1
    assert "expected header date,price" in err

    for row, expected in (
        (("2021-01-02", "nan"), "field 'price': not a finite number: 'nan'"),
        (("2021-01-02", "inf"), "field 'price': not a finite number: 'inf'"),
        (("2021-01-02", "cheap"), "field 'price': not a finite number: 'cheap'"),
        (("2021-02-30", "101.0"), "field 'date': not an ISO date: '2021-02-30'"),
    ):
        write_series_csv(actual, [("2021-01-01", "100.0"), row])
        code, _, err = run_cli(
            ["evaluate", "--actual", actual, "--predicted", predicted], cwd=tmp_path
        )
        assert code == 1
        assert err == f"error: {actual}:3: {expected}\n"


# ---------------------------------------------------------------------------
# compare


def test_compare_time_mode(cli_corpus, agent_cfg_file):
    root, tweets, prices = cli_corpus
    out = root / "compare_time.json"
    code, stdout, err = run_cli(
        [
            "compare",
            "--config", agent_cfg_file,
            "--tweets", tweets,
            "--prices", prices,
            "--seconds", 10,
            "--out", out,
        ],
        cwd=root,
    )
    assert code == 0, err
    assert "classic" in stdout and "proposed" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["mode"] == "fixed_time"
    assert payload["classic"]["tweets_utilized"] == 240
    assert payload["proposed"]["tweets_utilized"] == 120
    assert payload["budget_seconds"] == 10.0


def test_compare_target_mode(cli_corpus, agent_cfg_file):
    root, tweets, prices = cli_corpus
    code, stdout, err = run_cli(
        [
            "compare",
            "--config", agent_cfg_file,
            "--tweets", tweets,
            "--prices", prices,
            "--target-vaf", "-1e9",
            "--seconds", 20,
        ],
        cwd=root,
    )
    assert code == 0, err
    assert stdout.count("converged=True") == 2


def test_negative_numbers_with_an_exponent_are_values(tmp_path):
    # argparse's own pattern for a negative number has no exponent, so it
    # would read "-1e9" as an unknown option and exit 2.
    args = build_parser().parse_args(
        ["compare", "--tweets", "t", "--prices", "p", "--target-vaf", "-1e9", "--seconds", "5"]
    )
    assert (args.target_vaf, args.seconds) == (-1e9, 5.0)
    assert build_parser().parse_args(
        ["compare", "--tweets", "t", "--prices", "p", "--target-vaf", "-2.5E+3"]
    ).target_vaf == -2500.0
    code, _, err = run_cli(
        ["compare", "--tweets", "t", "--prices", "p", "--target-vaf", "-1e9x"], cwd=tmp_path
    )
    assert code == 2 and "expected one argument" in err


def test_compare_rejects_bad_seconds_and_target_exits_1(cli_corpus):
    root, tweets, prices = cli_corpus
    for extra, field in ((["--seconds", 0], "seconds"), (["--target-vaf", "nan"], "target_vaf")):
        code, _, err = run_cli(
            ["compare", "--tweets", tweets, "--prices", prices, *extra], cwd=root
        )
        assert code == 1
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1, err
