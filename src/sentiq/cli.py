"""Command-line interface.

Subcommands mirror the pipeline stages: ``synth`` (corpus generation),
``preprocess`` (clean + per-day dedup), ``split`` (attribute top-half
dataset), ``sentiment`` (daily signal series), ``train`` / ``predict``
(Q-model), ``evaluate`` (accuracy report), and ``compare`` (classic vs
filtered benchmark: each pipeline gets ``--seconds`` of wall clock, and with
``--target-vaf`` it stops early once its held-out accuracy reaches that).

``sentiment``, ``train`` and ``predict`` load and bucket the raw tweets,
keep each day's top half by the attribute, and only then clean, dedup and
score the kept tweets, as ``compare`` does; ``split`` cleans and dedups
first and ranks the cleaned rows it writes.

Every value can come from three layers with rising precedence: built-in
defaults, a ``--config`` file of flat ``key = value`` lines, then explicit
flags, typed and checked by :data:`SETTINGS`. A config line with an unknown
key or a bad value stops the run with the file and line. All outputs go to
explicit ``--out`` style paths; nothing is written implicitly.

Exit codes: 0 success, 1 failure (one-line message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import functools
import json
import logging
import math
import re
import sys
from collections import ChainMap
from pathlib import Path

from . import bench, corpus, preprocess, qlearn, synth
from .attributes import Attribute, build_dataset
from .errors import ConfigError, CorpusError, SentiqError
from .metrics import evaluate
# The signal path calls day_signal; daily_signals stays importable here
# because perfbench's tracer (perfbench/tracing.py) wraps cli.daily_signals
# by name, as it wraps cli.build_dataset, which split calls.
from .sentiment import Lexicon, builtin_lexicon, daily_signals, day_signal, load_lexicon

logger = logging.getLogger(__name__)

# Every setting a config file or a flag can give: its type, or the strings it takes.
SETTINGS: dict[str, type | tuple[str, ...]] = {
    **dict.fromkeys(("action_min", "action_max", "episodes", "sentiment_bins", "seed"), int),
    **dict.fromkeys(("gamma", "theta", "epsilon_start", "epsilon_end"), float),
    **dict.fromkeys(("price_bucket_width", "price_max"), float),
    **dict.fromkeys(("days", "tweets_per_day"), int),
    **dict.fromkeys(("rho", "base_price", "daily_vol"), float),
    **dict.fromkeys(("train_frac", "seconds", "target_vaf"), float),
    "reward": qlearn.REWARD_KINDS,
    "attribute": (*(a.value for a in Attribute), "none"),
    "format": ("csv", "jsonl"),
    "prices": str,
    "lexicon": str,
}


def load_run_config(path: str | Path) -> dict[str, int | float | str]:
    """Parse a flat ``key = value`` config file, casting and checking each value by ``SETTINGS``."""
    values: dict[str, int | float | str] = {}
    with Path(path).open(encoding="utf-8") as handle:
        try:
            lines = list(handle)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = SETTINGS[key]
            if isinstance(kind, tuple) and value not in kind:
                raise ConfigError(
                    f"{path}:{lineno}: config key {key!r}: "
                    f"expected one of {'|'.join(kind)}, got {value!r}"
                )
            try:
                values[key] = value if isinstance(kind, tuple) else kind(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: config key {key!r}: not a number: {value!r}"
                ) from None
    return values


def _options(args: argparse.Namespace) -> ChainMap:
    """Settings by precedence: the flags that were given, then the config file."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return ChainMap(flags, load_run_config(flags["config"]) if "config" in flags else {})


def _given(opts: ChainMap, cls) -> dict:
    """``cls``'s fields that were set, as keyword arguments; the rest keep their defaults."""
    return {f.name: opts[f.name] for f in dataclasses.fields(cls) if f.name in opts}


def _agent_config(opts: ChainMap) -> qlearn.AgentConfig:
    return qlearn.AgentConfig(**_given(opts, qlearn.AgentConfig))


def _format(opts: ChainMap) -> str:
    return opts.get("format", "csv")


def _attribute(opts: ChainMap) -> Attribute | None:
    name = opts.get("attribute", "none")
    return None if name == "none" else Attribute(name)


def _lexicon(opts: ChainMap) -> Lexicon:
    path = opts.get("lexicon")
    return load_lexicon(path) if path else builtin_lexicon()


def _load_buckets(opts: ChainMap):
    """Load and bucket the raw tweets; returns (price series or None, buckets).

    With ``prices`` set, tweets outside the series window are dropped and the
    buckets are the series days; without it, each tweet's own UTC day.
    """
    prices = opts.get("prices")
    series = corpus.load_prices(prices) if prices else None
    loaded = corpus.load_tweets(
        opts.get("tweets"),
        format=_format(opts),
        window=None if series is None else series.window(),
    )
    if series is not None:
        return series, corpus.bucket_by_day(loaded.records, series)
    return series, corpus.bucket_all_days(loaded.records)


def _signal_pipeline(opts: ChainMap, attribute: Attribute | None):
    """The price series and one daily signal per series day.

    Each day's raw tweets are ranked by ``attribute`` and only the top half
    is cleaned, deduplicated and scored (:func:`~sentiq.sentiment.day_signal`,
    the stage ``compare`` uses too). A tweet that cleans to empty or
    duplicates an earlier one is dropped after the ranking, so it still takes
    one of the day's kept places.
    """
    series, buckets = _load_buckets(opts)
    lexicon = _lexicon(opts)
    return series, tuple(day_signal(bucket, attribute, lexicon)[0] for bucket in buckets)


def _cleaned_rows(buckets) -> tuple[corpus.DayBucket, ...]:
    """Each day cleaned and deduplicated, as records; unchanged tweets keep their raw record."""
    days = []
    for bucket in preprocess.clean_and_dedup(buckets):
        rows = []
        for t in bucket.tweets:
            o = t.original
            rows.append(o if t.clean_text == o.text else o._replace(text=t.clean_text))
        days.append(corpus.DayBucket(bucket.date, tuple(rows)))
    return tuple(days)


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _options(args)
    tweets, series = synth.gen_corpus(synth.SynthConfig(**_given(opts, synth.SynthConfig)))
    n = corpus.write_tweets(tweets, args.out_tweets, format=_format(opts))
    m = corpus.write_prices(series, args.out_prices)
    print(f"wrote {n} tweets to {args.out_tweets} and {m} prices to {args.out_prices}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    opts = _options(args)
    _, buckets = _load_buckets(opts)
    rows = [r for b in _cleaned_rows(buckets) for r in b.tweets]
    n = corpus.write_tweets(rows, args.out, format=_format(opts))
    print(f"wrote {n} cleaned tweets to {args.out}")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    opts = _options(args)
    attribute = _attribute(opts)
    # Unlike the signal path, split ranks the cleaned rows it writes: each day
    # keeps ceil(n/2) of the tweets that survive cleaning and dedup.
    _, buckets = _load_buckets(opts)
    dataset = build_dataset(_cleaned_rows(buckets), attribute)
    rows = [r for b in dataset.buckets for r in b.tweets]
    n = corpus.write_tweets(rows, args.out, format=_format(opts))
    meta = {
        "attribute": attribute.value if attribute else "none",
        "source": str(opts.get("tweets")),
        "days": len(dataset.buckets),
        "tweets": dataset.total_tweets,
    }
    meta_path = Path(str(args.out) + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {n} tweets to {args.out} (attribute={meta['attribute']}, sidecar {meta_path})")
    return 0


def cmd_sentiment(args: argparse.Namespace) -> int:
    opts = _options(args)
    series, signals = _signal_pipeline(opts, _attribute(opts))
    with Path(args.out).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "mean_compound", "tweet_count"])
        for signal in signals:
            writer.writerow(
                [signal.date.isoformat(), f"{signal.mean_compound:.6f}", signal.tweet_count]
            )
    print(f"wrote {len(signals)} daily signals to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    opts = _options(args)
    attribute = _attribute(opts)
    cfg = _agent_config(opts)
    reward = opts.get("reward", qlearn.CDR)
    series, signals = _signal_pipeline(opts, attribute)
    model, log = qlearn.train(series, signals, reward, cfg, attribute=attribute)
    qlearn.save_model(model, args.out)
    if args.log:
        Path(args.log).write_text(
            json.dumps(
                {"mean_rewards": list(log.mean_rewards), "epsilons": list(log.epsilons)},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
    print(
        f"trained {reward} model on {len(series)} days "
        f"({log.episodes} episodes, final mean reward {log.mean_rewards[-1]:.4f}); "
        f"saved to {args.out}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    opts = _options(args)
    model = qlearn.load_model(args.model)
    series, signals = _signal_pipeline(opts, model.attribute)
    predictions = qlearn.predict_series(model, series, signals)
    with Path(args.out).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "price"])
        for date, price in zip(series.dates[1:], predictions):
            writer.writerow([date.isoformat(), f"{price:.2f}"])
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def _load_series_file(path: str | Path) -> dict[dt.date, float]:
    """date,price CSV as a mapping; prices must be finite, no contiguity/positivity constraints."""
    out: dict[dt.date, float] = {}
    path = Path(path)
    for line, (day, price) in corpus.csv_rows(path, ("date", "price")):
        where = f"{path}:{line}"
        try:
            date = dt.date.fromisoformat(day)
        except ValueError:
            raise CorpusError(f"{where}: field 'date': not an ISO date: {day!r}") from None
        try:
            value = float(price)
            if not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise CorpusError(f"{where}: field 'price': not a finite number: {price!r}") from None
        if date in out:
            raise CorpusError(f"{where}: duplicate date {date}")
        out[date] = value
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    actual = _load_series_file(args.actual)
    predicted = _load_series_file(args.predicted)
    shared = sorted(set(actual) & set(predicted))
    if len(shared) < 2:
        raise CorpusError(
            f"need at least 2 shared dates to evaluate, got {len(shared)}"
        )
    report = evaluate([actual[d] for d in shared], [predicted[d] for d in shared])
    print(report.format_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote report to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    opts = _options(args)
    cfg = bench.BenchConfig(agent=_agent_config(opts), **_given(opts, bench.BenchConfig))
    series = corpus.load_prices(opts.get("prices"))
    loaded = corpus.load_tweets(opts.get("tweets"), format=_format(opts), window=series.window())
    report = bench.compare(loaded.records, series, _lexicon(opts), cfg)
    for result in (report.classic, report.proposed):
        flag = "" if result.converged is None else f" converged={result.converged}"
        print(
            f"{result.approach:<8} utilized={result.tweets_utilized} "
            f"wall={result.wall_seconds:.2f}s episodes={result.episodes_run} "
            f"vaf={result.final_vaf:.2f}{flag}"
        )
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote report to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes ``-1e9`` for a number, not for an option.

    argparse reads an argument that starts with ``-`` as a value only when it
    looks like ``-5`` or ``-.5``, so ``--target-vaf -1e9`` would stop with
    "expected one argument". Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _settings(parser: argparse.ArgumentParser, *names: str, **kwargs) -> None:
    """Add each setting's flag ``--name-with-dashes``, typed or limited by ``SETTINGS``."""
    for name in names:
        kind = SETTINGS[name]
        if isinstance(kind, tuple):
            typed = {"choices": kind}
        else:
            typed = {} if kind is str else {"type": kind}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **typed, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sentiq",
        description="Tweet-sentiment Q-learning price prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = _Parser(add_help=False)
    config.add_argument("--config", help="flat key = value config file")
    with_config = functools.partial(sub.add_parser, parents=[config])
    seed_help = "random seed (unsigned 64-bit)"

    p = with_config("synth", help="generate a seeded synthetic corpus")
    _settings(p, "seed", help=seed_help)
    _settings(p, "days", "tweets_per_day")
    _settings(p, "rho", help="planted follower-signal strength in [0, 1]")
    _settings(p, "base_price", "daily_vol", "format")
    p.add_argument("--out-tweets", required=True, dest="out_tweets")
    p.add_argument("--out-prices", required=True, dest="out_prices")
    p.set_defaults(func=cmd_synth)

    p = with_config("preprocess", help="clean texts and drop same-day duplicates")
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", help="restrict to the price-series window")
    _settings(p, "format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = with_config("split", help="keep each day's top half by an engagement attribute")
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", "attribute", "format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = with_config("sentiment", help="daily mean-compound signal series")
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "attribute", "format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sentiment)

    p = with_config("train", help="train a Q-model on a corpus + price history")
    _settings(p, "seed", help=seed_help)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "reward", "attribute", "format")
    p.add_argument("--log", help="write per-episode training log JSON here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = with_config("predict", help="greedy next-day predictions from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "format")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against actuals")
    p.add_argument("--actual", required=True, help="date,price CSV of actual values")
    p.add_argument("--predicted", required=True, help="date,price CSV of predictions")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = with_config("compare", help="classic vs follower-filtered pipeline benchmark")
    _settings(p, "seed", help=seed_help)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon")
    _settings(p, "seconds", help="wall-clock limit per approach (default 600)")
    _settings(p, "target_vaf", help="stop an approach once its held-out VAF reaches this")
    _settings(p, "reward", "train_frac", "format")
    p.add_argument("--out", help="write the full comparison report JSON here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (SentiqError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
