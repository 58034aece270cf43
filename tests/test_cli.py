import argparse
import csv
import io
import json
import logging
import os
import sys
from pathlib import Path

import pytest

from helpers import attribute_signal_series, run_cli, run_python
from oracles import o_cleaned_rows
from sentiq import qlearn, synth
from sentiq.attributes import Attribute, build_dataset
from sentiq.cli import COMMANDS, SETTINGS, build_parser, main
from sentiq.corpus import (
    TWEET_FIELDS,
    TWEET_FORMATS,
    bucket_by_day,
    load_prices,
    load_tweets,
    write_prices,
    write_tweets,
)
from sentiq.preprocess import clean, clean_and_dedup
from sentiq.qlearn import AgentConfig, QModel, load_model, save_model
from sentiq.sentiment import builtin_lexicon


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
    # Status lines go to stderr: stdout carries only results.
    assert out == ""
    assert "wrote 240 tweets" in err
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


def test_an_error_without_text_prints_its_class_name(monkeypatch, capsys):
    def out_of_memory(path):
        raise MemoryError()

    monkeypatch.setattr(qlearn, "load_model", out_of_memory)
    args = ["predict", "--model", "m.bin", "--tweets", "t.csv", "--prices", "p.csv", "--out", "o.csv"]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_synth_price_errors_name_the_setting_and_write_nothing(tmp_path):
    cases = [
        (["--base-price", "1e308"],
         "error: base_price: too large to round to cents in 28 digits: 1e+308\n"),
        (["--daily-vol", "0.6"], "error: daily_vol must be > 0 and < 0.5, got 0.6\n"),
        (["--daily-vol", "1e300"], "error: daily_vol must be > 0 and < 0.5, got 1e+300\n"),
    ]
    for flags, expected in cases:
        code, _, err = run_cli(
            ["synth", "--days", 10, "--tweets-per-day", 2, *flags,
             "--out-tweets", "t.csv", "--out-prices", "p.csv"],
            cwd=tmp_path,
        )
        assert code == 1
        assert err == expected, err
    assert not any(tmp_path.iterdir())


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


CONFIG_ARGV = {
    "synth": ["--out-tweets", "t.csv", "--out-prices", "p.csv"],
    "preprocess": ["--tweets", "t.csv", "--out", "o.csv"],
    "split": ["--tweets", "t.csv", "--out", "o.csv"],
    "sentiment": ["--tweets", "t.csv", "--prices", "p.csv", "--out", "s.csv"],
    "train": ["--tweets", "t.csv", "--prices", "p.csv", "--out", "m.bin"],
    "predict": ["--model", "m.bin", "--tweets", "t.csv", "--prices", "p.csv", "--out", "o.csv"],
    "compare": ["--tweets", "t.csv", "--prices", "p.csv"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_ARGV))
def test_a_repeated_config_key_exits_1_naming_both_lines(tmp_path, command):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("episodes = 5\n# again\nseed = 1\n episodes = 7\n", encoding="utf-8")
    code, _, err = run_cli([command, "--config", cfg, *CONFIG_ARGV[command]], cwd=tmp_path)
    assert code == 1
    assert err == f"error: {cfg}:4: config key 'episodes' repeats line 1\n"
    assert [path.name for path in tmp_path.iterdir()] == ["twice.cfg"]


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize(
    "key, choices",
    [
        ("attribute", "followers|comments|likes|retweets|none"),
        ("format", "csv|jsonl"),
        ("reward", "sdr|rdr|cdr"),
    ],
)
def test_config_value_outside_its_choices_exits_1_naming_the_line(
    tmp_path, command, key, choices
):
    # Checked as the file is read, like numbers, so synth rejects keys it never reads.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
    code, _, err = run_cli([command, "--config", cfg, *CONFIG_ARGV[command]], cwd=tmp_path)
    assert code == 1
    assert err == f"error: {cfg}:1: config key '{key}': expected one of {choices}, got 'bogus'\n"


def test_settings_lists_every_key_with_its_type_or_choices():
    assert SETTINGS == {
        "gamma": float, "theta": float, "action_min": int, "action_max": int,
        "epsilon_start": float, "epsilon_end": float, "episodes": int,
        "price_bucket_width": float, "price_max": float, "sentiment_bins": int, "seed": int,
        "days": int, "tweets_per_day": int, "rho": float, "base_price": float,
        "daily_vol": float, "train_frac": float, "seconds": float, "target_vaf": float,
        "reward": ("sdr", "rdr", "cdr"),
        "attribute": ("followers", "comments", "likes", "retweets", "none"),
        "format": ("csv", "jsonl"),
        "prices": str, "lexicon": str,
    }


def _subcommands(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def full_parser() -> argparse.ArgumentParser:
    """``build_parser()`` with every subcommand's flags added up front."""
    parser = build_parser()
    subparsers = _subcommands(parser)
    for name, add_flags in subparsers.pending.items():
        add_flags(subparsers.choices[name])
    subparsers.pending.clear()
    return parser


def test_every_settings_flag_is_typed_from_settings():
    subparsers = _subcommands(full_parser())
    assert list(subparsers.choices) == list(COMMANDS)
    flagged = set()
    for sub in subparsers.choices.values():
        assert len(sub._actions) > 1, sub.prog  # flags beyond -h
        for action in sub._actions:
            if action.dest not in SETTINGS:
                continue
            flagged.add(action.dest)
            kind = SETTINGS[action.dest]
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            if isinstance(kind, tuple):
                assert (action.type, tuple(action.choices)) == (None, kind), action.dest
            else:
                assert (action.type or str, action.choices) == (kind, None), action.dest
    # Agent hyperparameters are config-only.
    assert flagged == {
        "seed", "days", "tweets_per_day", "rho", "base_price", "daily_vol", "format", "prices",
        "attribute", "lexicon", "reward", "seconds", "target_vaf", "train_frac",
    }


# ---------------------------------------------------------------------------
# usage and startup: help and usage errors keep their bytes, main adds only the
# flags of the subcommand it runs, and the text commands run without numpy

# CPython 3.11's argparse at COLUMNS=80, recorded before main added flags lazily.
USAGE_GOLDEN = Path(__file__).parent / "data" / "usage_py311.json"
USAGE_CASES = json.loads(USAGE_GOLDEN.read_text(encoding="utf-8"))


def _parse(parse, argv, monkeypatch, capsys):
    """(exit code, stdout, stderr, parsed settings) of ``parse(argv)`` at COLUMNS=80."""
    monkeypatch.setenv("COLUMNS", "80")
    parsed = None
    try:
        result = parse(argv)
    except SystemExit as exc:
        code = exc.code
    else:
        code, parsed = (result, None) if isinstance(result, int) else (0, vars(result))
    out, err = capsys.readouterr()
    return code, out, err, parsed


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="usage bytes recorded on CPython 3.11")
@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: " ".join(case["argv"]) or "none")
def test_help_and_usage_errors_keep_their_bytes(monkeypatch, capsys, case):
    got = _parse(main, case["argv"], monkeypatch, capsys)
    assert got[:3] == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda case: " ".join(case["argv"]) or "none")
def test_a_lazy_parser_parses_as_the_full_one(monkeypatch, capsys, case):
    argv = case["argv"]
    lazy = _parse(lambda a: build_parser().parse_args(a), argv, monkeypatch, capsys)
    assert lazy == _parse(lambda a: full_parser().parse_args(a), argv, monkeypatch, capsys)


@pytest.mark.parametrize("command", COMMANDS)
def test_main_adds_flags_only_for_the_subcommand_it_runs(monkeypatch, capsys, command):
    added = []
    add_argument = argparse._ActionsContainer.add_argument

    def recording(container, *args, **kwargs):
        added.append((container.prog, args))
        return add_argument(container, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", recording)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--help" in capsys.readouterr().out
    flags = [(prog, args) for prog, args in added if args != ("-h", "--help")]
    assert flags and {prog for prog, _ in flags} == {f"sentiq {command}"}


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("command", ["preprocess", "sentiment"])
def test_out_dev_stdout_gets_the_bytes_of_out_file(cli_corpus, tmp_path, command):
    # Status lines go to stderr, so stdout carries the file and nothing else.
    _, tweets, prices = cli_corpus
    argv = [command, "--tweets", tweets, "--prices", prices, "--out"]
    code, out, err = run_cli([*argv, "out.csv"], cwd=tmp_path, text=False)
    assert (code, out) == (0, b""), err
    assert err.startswith(b"wrote ")
    code, out, err = run_cli([*argv, "/dev/stdout"], cwd=tmp_path, text=False)
    assert code == 0, err
    assert out == (tmp_path / "out.csv").read_bytes()


_REFUSE_NUMPY = """
import sys


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"refused: {name}")


sys.meta_path.insert(0, RefuseNumpy())
from sentiq.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "command, extra",
    [
        ("preprocess", ()),
        ("split", ("--attribute", "followers")),
        ("sentiment", ("--prices", "prices.csv")),
    ],
)
def test_text_commands_run_without_numpy(data_dir, tmp_path, command, extra):
    # The fixture's tweets are all of 2021-03-01.
    prices = b"date,price\r\n2021-03-01,100.00\r\n2021-03-02,101.00\r\n"
    argv = [command, "--tweets", data_dir / "clean_fixture.csv", *extra, "--out", "out.csv"]
    runs = {}
    for name in ("normal", "refused"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "prices.csv").write_bytes(prices)
        if name == "normal":
            result = run_cli(argv, cwd=tmp_path / name, text=False)
        else:
            result = run_python(["-c", _REFUSE_NUMPY, *argv], cwd=tmp_path / name, text=False)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        runs[name] = (result, files)
    assert runs["normal"][0][0] == 0, runs["normal"][0][2]
    assert "out.csv" in runs["normal"][1]
    assert runs["refused"] == runs["normal"]


# ---------------------------------------------------------------------------
# synth


@pytest.mark.parametrize("prices", ["x.csv", "./x.csv", "sub/../x.csv"])
def test_synth_refuses_one_file_for_tweets_and_prices(tmp_path, prices):
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(
        ["synth", "--days", 3, "--tweets-per-day", 2, "--out-tweets", "x.csv",
         "--out-prices", prices],
        cwd=tmp_path,
    )
    assert (code, out) == (1, "")
    assert err == f"error: --out-tweets and --out-prices name the same file: {prices}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


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


# ---------------------------------------------------------------------------
# output bytes: a CSV file is a header row then rows, each ended by "\r\n"; a
# JSON file is json.dumps(payload, indent=2) and a newline. Perfbench's
# digests pin predictions.csv, signals.csv, evaluate's report and the split
# sidecar; the tests below pin the other files the CLI writes.


def csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def assert_indented_json(path):
    text = path.read_bytes().decode("utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2) + "\n"
    return payload


def tweet_file_bytes(path, fmt) -> bytes:
    records = load_tweets(path, format=fmt).records
    if fmt == "csv":
        return csv_bytes(TWEET_FIELDS, records)
    return "".join(json.dumps(dict(zip(TWEET_FIELDS, r))) + "\n" for r in records).encode()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_tweet_and_price_files_keep_their_bytes(tmp_path, fmt):
    code, _, err = run_cli(
        ["synth", "--days", 4, "--tweets-per-day", 5, "--seed", 2, "--format", fmt,
         "--out-tweets", "tweets", "--out-prices", "prices.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    series = load_prices(tmp_path / "prices.csv")
    assert (tmp_path / "prices.csv").read_bytes() == "".join(
        ["date,price\r\n"]
        + [f"{d.isoformat()},{p:.2f}\r\n" for d, p in zip(series.dates, series.prices)]
    ).encode("utf-8")
    for stage, extra in (("synth", None), ("preprocess", []), ("split", ["--attribute", "likes"])):
        out = tmp_path / ("tweets" if extra is None else stage)
        if extra is not None:
            code, _, err = run_cli(
                [stage, "--tweets", "tweets", "--prices", "prices.csv", "--format", fmt, *extra,
                 "--out", out],
                cwd=tmp_path,
            )
            assert code == 0, err
        assert out.read_bytes() == tweet_file_bytes(out, fmt), stage


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
        with out_t.open() as handle:
            return sum(1 for _ in handle) - 1  # drop the header

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
    assert stdout == ""
    assert "cleaned tweets" in err
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


def test_preprocess_and_split_without_prices_use_each_tweets_own_day(tmp_path):
    # Two UTC days with an empty day between them. On the first day "b"
    # duplicates the earlier "a" once cleaned and "c" cleans to empty; the
    # third day repeats "a"'s text, which is no duplicate on another day.
    day3 = 1_614_556_800 + 2 * 86_400
    tweets = [
        ("a", 1_614_556_810, "Buy BTC now", 5),
        ("b", 1_614_556_820, "buy   btc NOW", 9),
        ("c", 1_614_556_830, "@someone", 7),
        ("d", 1_614_556_840, "Quiet day", 1),
        ("e", day3 + 5, "buy btc now", 3),
        ("f", day3 + 6, "Moon soon!!!!", 8),
    ]
    rows = ["id,timestamp,text,followers,comments,likes,retweets"]
    rows += [f"{tid},{ts},{text},{followers},0,0,0" for tid, ts, text, followers in tweets]
    (tmp_path / "tweets.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for stage in (
        ["preprocess", "--tweets", "tweets.csv", "--out", "cleaned.csv"],
        ["split", "--tweets", "tweets.csv", "--attribute", "followers", "--out", "split.csv"],
    ):
        code, _, err = run_cli(stage, cwd=tmp_path)
        assert code == 0, err

    cleaned = load_tweets(tmp_path / "cleaned.csv").records
    assert [(r.id, r.text) for r in cleaned] == [
        ("a", "buy btc now"), ("d", "quiet day"), ("e", "buy btc now"), ("f", "moon soon!!!"),
    ]
    # Each day keeps ceil(n/2) of its cleaned tweets, the most followed first.
    split = load_tweets(tmp_path / "split.csv").records
    assert [(r.id, r.text) for r in split] == [("a", "buy btc now"), ("f", "moon soon!!!")]
    meta = json.loads((tmp_path / "split.csv.meta.json").read_text(encoding="utf-8"))
    assert (meta["days"], meta["tweets"]) == (2, 2)


@pytest.fixture(scope="module")
def noisy_corpus(tmp_path_factory):
    """A synthetic corpus with removable noise, same-day copies and texts that clean to empty.

    Every third text gets a retweet marker, a mention, upper case and a URL.
    Every fourth tweet gets a same-day copy with other noise at the same
    timestamp, whose id sorts before the original's half of the time, and
    every fifth a row of only a mention and dots. Written as CSV and JSONL.
    """
    root = tmp_path_factory.mktemp("noisy")
    tweets, series = synth.gen_corpus(synth.SynthConfig(days=6, tweets_per_day=10, seed=5))
    rows = []
    for i, r in enumerate(tweets):
        rows.append(r._replace(text="RT @whale " + r.text.upper() + " http://t.co/x")
                    if i % 3 == 0 else r)
        if i % 4 == 0:
            copy_id = ("0" if i % 8 == 0 else "c") + r.id
            rows.append(r._replace(id=copy_id, text="#" + r.text.replace(" ", "  ") + " ...."))
        if i % 5 == 0:
            rows.append(r._replace(id="e" + r.id, text="@nobody ...."))
    paths = {"prices": root / "prices.csv"}
    write_prices(series, paths["prices"])
    for fmt in TWEET_FORMATS:
        paths[fmt] = root / f"tweets.{fmt}"
        write_tweets(rows, paths[fmt], format=fmt)
    return paths


@pytest.mark.parametrize("fmt", TWEET_FORMATS)
@pytest.mark.parametrize("stage", ["preprocess", "split"])
def test_preprocess_and_split_write_the_staged_chains_bytes(
    noisy_corpus, tmp_path, caplog, stage, fmt
):
    tweets, prices = noisy_corpus[fmt], noisy_corpus["prices"]
    extra = ["--attribute", "followers"] if stage == "split" else []
    code, _, err = run_cli(
        [stage, "--tweets", tweets, "--prices", prices, "--format", fmt, *extra, "--out", "got"],
        cwd=tmp_path,
    )
    assert code == 0, err

    series = load_prices(prices)
    loaded = load_tweets(tweets, format=fmt, window=series.window())
    with caplog.at_level(logging.WARNING, logger="sentiq.preprocess"):
        days = o_cleaned_rows(bucket_by_day(loaded.records, series))
    # One of each tweet and its copy is left, and most texts changed.
    cleaned = [r for b in days for r in b.tweets]
    assert len(cleaned) == 60 and sum(r not in loaded.records for r in cleaned) > 20
    if stage == "split":
        days = build_dataset(days, Attribute.FOLLOWERS).buckets
    write_tweets([r for b in days for r in b.tweets], tmp_path / "want", format=fmt)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
    (message,) = [r.getMessage() for r in caplog.records if r.name == "sentiq.preprocess"]
    assert message == "dropped 12 tweets whose text cleaned to empty"
    assert [line for line in err.splitlines() if "sentiq.preprocess" in line] == [
        f"WARNING sentiq.preprocess: {message}"
    ]


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
    expected = attribute_signal_series(
        loaded.records, series, builtin_lexicon(), Attribute.FOLLOWERS
    )

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

    # The CLI writes the signals of the per-day stage ``compare`` runs too.
    series = load_prices(tmp_path / "prices.csv")
    records = load_tweets(tmp_path / "tweets.csv", window=series.window()).records
    library = attribute_signal_series(records, series, builtin_lexicon(), Attribute.FOLLOWERS)
    for row, s in zip(rows, library, strict=True):
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
    assert stdout == ""
    assert "trained cdr model on 40 days" in err

    model = load_model(model_path)
    assert model.reward == "cdr"
    assert model.attribute is Attribute.FOLLOWERS
    assert model.config.episodes == 10  # from the config file
    assert model.config.action_min == -8
    assert model.config.seed == 7  # the flag beat any file/default value

    log = assert_indented_json(log_path)
    assert list(log) == ["mean_rewards", "epsilons"]
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


def test_predict_on_a_model_with_an_unknown_attribute_exits_1(cli_corpus, tmp_path):
    root, tweets, prices = cli_corpus
    model_path = tmp_path / "typo.bin"
    model = QModel.zeros(AgentConfig(action_min=0, action_max=1), attribute="folowers")
    save_model(model, model_path)
    code, _, err = run_cli(
        ["predict", "--model", model_path, "--tweets", tweets, "--prices", prices,
         "--out", tmp_path / "p.csv"],
        cwd=tmp_path,
    )
    assert code == 1
    assert err.startswith(f"error: {model_path}: unknown attribute 'folowers'")
    assert err.count("\n") == 1 and "Traceback" not in err


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
    payload = assert_indented_json(out)
    assert payload["seconds"] == 10.0
    assert payload["target_vaf"] is None
    assert payload["classic"]["tweets_utilized"] == 240
    assert payload["proposed"]["tweets_utilized"] == 120
    assert payload["classic"]["cpu_seconds"] > 0.0
    assert payload["proposed"]["cpu_seconds"] > 0.0


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


def test_compare_report_writes_null_for_an_undefined_vaf(tmp_path):
    code, _, err = run_cli(
        ["synth", "--days", 30, "--tweets-per-day", 8, "--seed", 0,
         "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    # The budget runs out before five days are scored, so neither side has a VAF.
    code, stdout, err = run_cli(
        ["compare", "--tweets", "t.csv", "--prices", "p.csv", "--seconds", "1e-9",
         "--out", "c.json"],
        cwd=tmp_path,
    )
    assert code == 0, err
    assert stdout.count("vaf=nan") == 2

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    text = (tmp_path / "c.json").read_text(encoding="utf-8")
    payload = json.loads(text, parse_constant=reject)
    assert text == json.dumps(payload, indent=2) + "\n"
    for side in ("classic", "proposed"):
        assert payload[side]["final_vaf"] is None
        assert payload[side]["episodes_run"] == 0


def test_compare_flags_a_side_that_runs_out_of_time_unconverged(tmp_path):
    code, _, err = run_cli(
        ["synth", "--days", 30, "--tweets-per-day", 8, "--seed", 2,
         "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    (tmp_path / "c.cfg").write_text("action_min = -8\naction_max = 8\n", encoding="utf-8")
    # Time runs out before five days are scored, so neither side meets the target.
    code, stdout, err = run_cli(
        ["compare", "--config", "c.cfg", "--tweets", "t.csv", "--prices", "p.csv",
         "--target-vaf", 95, "--seconds", "0.000001", "--out", "c.json"],
        cwd=tmp_path,
    )
    assert code == 0, err
    assert stdout.count("vaf=nan converged=False") == 2
    payload = json.loads((tmp_path / "c.json").read_text(encoding="utf-8"))
    for side in ("classic", "proposed"):
        assert payload[side]["converged"] is False


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


def test_compare_rejects_infinite_seconds_and_writes_no_report(
    cli_corpus, agent_cfg_file, tmp_path
):
    root, tweets, prices = cli_corpus
    out = tmp_path / "c.json"
    for seconds in ("inf", "1e400"):
        code, _, err = run_cli(
            ["compare", "--config", agent_cfg_file, "--tweets", tweets, "--prices", prices,
             "--seconds", seconds, "--out", out],
            cwd=root,
        )
        assert code == 1
        assert err == "error: seconds must be positive and finite, got inf\n", err
        assert not out.exists()


# ---------------------------------------------------------------------------
# files that are not UTF-8

# A Latin-1 "é": 0xe9 starts a three-byte UTF-8 sequence that "!" cannot continue.
NOT_UTF8 = "café!".encode("latin-1")
TWEETS_HEADER = b"id,timestamp,text,followers,comments,likes,retweets\n"
PRICES = b"date,price\n2021-01-01,100.00\n2021-01-02,101.00\n"


def assert_not_utf8_error(code, err, path):
    assert code == 1
    assert "Traceback" not in err, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {path}: not UTF-8 text: invalid continuation byte"], err


def test_csv_files_that_are_not_utf8_exit_1_naming_the_file(tmp_path):
    good_tweets = tmp_path / "tweets.csv"
    good_tweets.write_bytes(TWEETS_HEADER + b"a,1609459200,up,1,0,0,0\n")
    good_prices = tmp_path / "prices.csv"
    good_prices.write_bytes(PRICES)
    bad_tweets = tmp_path / "bad_tweets.csv"
    bad_tweets.write_bytes(TWEETS_HEADER + b"a,1609459200," + NOT_UTF8 + b",1,0,0,0\n")
    bad_prices = tmp_path / "bad_prices.csv"
    bad_prices.write_bytes(PRICES + b"2021-01-03," + NOT_UTF8 + b"\n")

    code, _, err = run_cli(
        ["preprocess", "--tweets", bad_tweets, "--prices", good_prices, "--out", "o.csv"],
        cwd=tmp_path,
    )
    assert_not_utf8_error(code, err, bad_tweets)
    code, _, err = run_cli(
        ["preprocess", "--tweets", good_tweets, "--prices", bad_prices, "--out", "o.csv"],
        cwd=tmp_path,
    )
    assert_not_utf8_error(code, err, bad_prices)
    for actual, predicted in ((bad_prices, good_prices), (good_prices, bad_prices)):
        code, _, err = run_cli(
            ["evaluate", "--actual", actual, "--predicted", predicted], cwd=tmp_path
        )
        assert_not_utf8_error(code, err, bad_prices)


def test_jsonl_tweets_that_are_not_utf8_exit_1_naming_the_file(tmp_path):
    bad = tmp_path / "tweets.jsonl"
    bad.write_bytes(
        b'{"id": "a", "timestamp": 1609459200, "text": "' + NOT_UTF8
        + b'", "followers": 1, "comments": 0, "likes": 0, "retweets": 0}\n'
    )
    code, _, err = run_cli(
        ["preprocess", "--tweets", bad, "--format", "jsonl", "--out", "o.jsonl"], cwd=tmp_path
    )
    assert_not_utf8_error(code, err, bad)


def test_jsonl_nested_too_deeply_exits_1_with_one_line(tmp_path):
    tweets = tmp_path / "deep.jsonl"
    tweets.write_text("[" * 100_000 + "\n", encoding="utf-8")
    code, _, err = run_cli(
        ["preprocess", "--tweets", tweets, "--format", "jsonl", "--out", "o.jsonl"], cwd=tmp_path
    )
    assert code == 1
    assert err == f"error: {tweets}:1: invalid JSON: nested too deeply\n"


def test_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path):
    bad = tmp_path / "run.cfg"
    bad.write_bytes(b"days = 3\n# " + NOT_UTF8 + b"\n")
    code, _, err = run_cli(
        ["synth", "--config", bad, "--out-tweets", "t.csv", "--out-prices", "p.csv"],
        cwd=tmp_path,
    )
    assert_not_utf8_error(code, err, bad)


def test_csv_field_over_the_size_limit_exits_1_with_one_line(tmp_path):
    limit = csv.field_size_limit()
    tweets = tmp_path / "tweets.csv"
    tweets.write_bytes(
        TWEETS_HEADER + b"a,1609459200,up,1,0,0,0\n"
        + b"b,1609459201," + b"x" * (limit + 1) + b",1,0,0,0\n"
    )
    prices = tmp_path / "prices.csv"
    prices.write_bytes(PRICES)
    code, _, err = run_cli(
        ["sentiment", "--tweets", tweets, "--prices", prices, "--out", "s.csv"], cwd=tmp_path
    )
    assert code == 1
    assert err == f"error: {tweets}:3: field larger than field limit ({limit})\n"

    bad_prices = tmp_path / "bad_prices.csv"
    bad_prices.write_bytes(PRICES + b"2021-01-03," + b"1" * (limit + 1) + b"\n")
    code, _, err = run_cli(["evaluate", "--actual", bad_prices, "--predicted", prices], cwd=tmp_path)
    assert code == 1
    assert err == f"error: {bad_prices}:4: field larger than field limit ({limit})\n"


def test_non_finite_price_max_exits_1_naming_the_field(cli_corpus):
    root, tweets, prices = cli_corpus
    cfg = root / "inf.cfg"
    cfg.write_text("price_max = inf\n", encoding="utf-8")
    code, _, err = run_cli(
        ["train", "--config", cfg, "--tweets", tweets, "--prices", prices, "--out", "inf.model"],
        cwd=root,
    )
    assert code == 1
    assert err == "error: price_max must be finite, got inf\n"
    assert not (root / "inf.model").exists()


def test_a_price_on_or_above_price_max_names_its_day(tmp_path):
    code, _, err = run_cli(
        ["synth", "--days", 6, "--tweets-per-day", 4, "--seed", 5,
         "--out-tweets", "tweets.csv", "--out-prices", "synth.csv"],
        cwd=tmp_path,
    )
    assert code == 0, err
    days = load_prices(tmp_path / "synth.csv").dates
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "price_max = 20000\nepisodes = 2\naction_min = -8\naction_max = 8\n", encoding="utf-8"
    )

    def run(command, prices, extra):
        (tmp_path / "prices.csv").write_text(
            "date,price\n" + "".join(f"{d},{p}\n" for d, p in zip(days, prices)),
            encoding="utf-8",
        )
        return run_cli(
            [command, "--config", cfg, "--tweets", "tweets.csv", "--prices", "prices.csv",
             *extra],
            cwd=tmp_path,
        )

    code, _, err = run("train", ["20000.00", *["100.00"] * 5], ["--out", "bad.bin"])
    assert code == 1
    assert err == (
        f"error: {days[0]}: price 20000.0 outside the representable range "
        "[0, 20000.0); raise price_max above it\n"
    )
    assert not (tmp_path / "bad.bin").exists()

    code, _, err = run("train", ["100.00"] * 6, ["--out", "model.bin"])
    assert code == 0, err
    code, _, err = run(
        "predict", ["100.00", "120.00", "25000.00", *["100.00"] * 3],
        ["--model", "model.bin", "--out", "predictions.csv"],
    )
    assert code == 1
    assert err == (
        f"error: {days[2]}: price 25000.0 outside the representable range "
        "[0, 20000.0); raise price_max above it\n"
    )


# Each table or corpus array is far above 2**47 bytes, the x86-64 user address
# space, so no allocation of it can succeed, whatever the memory overcommit policy.
@pytest.mark.parametrize(
    "command, line",
    [
        ("train", "price_bucket_width = 5e-324"),  # infinitely many price bins
        ("train", "price_bucket_width = 1e-200"),  # a table over sys.maxsize bytes
        ("train", "action_max = 1000000000000"),  # 29.8 PiB
        ("train", "sentiment_bins = 999999999999"),  # 1.53 EiB
        ("synth", "days = 100000000000000"),
        ("synth", "tweets_per_day = 100000000000000"),
    ],
)
def test_an_impossible_table_or_corpus_exits_1_with_one_line(cli_corpus, tmp_path, command, line):
    _, tweets, prices = cli_corpus
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    files = ["--tweets", tweets, "--prices", prices, "--out", "m.bin"]
    code, _, err = run_cli(
        [command, "--config", cfg, *(files if command == "train" else CONFIG_ARGV[command])],
        cwd=tmp_path,
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [path.name for path in tmp_path.iterdir()] == ["huge.cfg"]


def test_lexicon_that_is_not_utf8_exits_1_naming_the_file(tmp_path):
    tweets = tmp_path / "tweets.csv"
    tweets.write_bytes(TWEETS_HEADER + b"a,1609459200,up,1,0,0,0\n")
    prices = tmp_path / "prices.csv"
    prices.write_bytes(PRICES)
    bad = tmp_path / "lexicon.tsv"
    bad.write_bytes(b"up\t1.0\n" + NOT_UTF8 + b"\t2.0\n")
    code, _, err = run_cli(
        ["sentiment", "--tweets", tweets, "--prices", prices, "--lexicon", bad, "--out", "s.csv"],
        cwd=tmp_path,
    )
    assert_not_utf8_error(code, err, bad)
