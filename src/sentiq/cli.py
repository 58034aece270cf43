"""Command-line interface.

Subcommands mirror the pipeline stages: ``synth`` (corpus generation),
``preprocess`` (clean + per-day dedup), ``split`` (attribute top-half
dataset), ``sentiment`` (daily signal series), ``train`` / ``predict``
(Q-model), ``evaluate`` (accuracy report), and ``compare`` (classic vs
filtered benchmark: each pipeline gets ``--seconds`` of wall clock, and with
``--target-vaf`` it stops early once its held-out accuracy reaches that).

Every command cleans a day by one rule, :func:`~sentiq.preprocess.clean_day`.
``sentiment``, ``train`` and ``predict`` keep each day's raw top half by the
attribute and only then clean, dedup and score it, as ``compare`` does.
``preprocess`` writes every day cleaned (:func:`~sentiq.preprocess.clean_days`)
and ``split`` writes each day's top half of those cleaned rows.

Every setting is looked up in three layers, once per run: explicit flags,
then a ``--config`` file of flat ``key = value`` lines, then the defaults
(:data:`DEFAULTS` for the CLI-only keys, the config classes' own for the
rest). :data:`SETTINGS` types and checks each key; its numeric keys are the
``int`` and ``float`` fields of ``AgentConfig``, ``SynthConfig`` and
``BenchConfig``, each typed by its default. A config line with an unknown or
repeated key or a bad value stops the run with the file and line. All outputs
go to explicit ``--out`` style paths; nothing is written implicitly. Each
command's status line (``wrote ...``, ``trained ...``) goes to stderr, so
stdout carries only results, ``evaluate``'s table and ``compare``'s lines,
and ``--out /dev/stdout`` gives the file's bytes alone.

A run sets up only what it runs. :func:`build_parser` registers every
subcommand's name and help, and the parser adds only the flags of the one it
dispatches to; ``bench``, ``metrics``, ``qlearn`` and ``synth`` are imported
inside the commands that use them, so ``preprocess``, ``split`` and
``sentiment`` never load numpy.

Exit codes: 0 success, 1 failure (one-line message on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import stat
import sys
from collections import ChainMap
from pathlib import Path
from typing import Callable

from . import corpus, preprocess
from .attributes import Attribute, build_dataset
from .config import CDR, REWARD_KINDS, AgentConfig, BenchConfig, SynthConfig
from .errors import ConfigError, CorpusError, SentiqError
# No command calls daily_signals: it stays importable here because
# perfbench's tracer (perfbench/tracing.py) wraps cli.daily_signals by name,
# as it wraps cli.build_dataset, which split calls on clean_days' output.
from .sentiment import Lexicon, builtin_lexicon, daily_signals, day_signal, load_lexicon

# bench, metrics, qlearn and synth load numpy: the commands that use them import them.

# Every setting a config file or a flag can give: its type, or the strings it takes.
SETTINGS: dict[str, type | tuple[str, ...]] = {
    **{
        f.name: type(f.default)
        for cls in (AgentConfig, SynthConfig, BenchConfig)
        for f in dataclasses.fields(cls)
        if type(f.default) in (int, float)
    },
    "target_vaf": float,  # BenchConfig's default is None
    "reward": REWARD_KINDS,
    "attribute": (*(a.value for a in Attribute), "none"),
    "format": corpus.TWEET_FORMATS,
    "prices": str,
    "lexicon": str,
}
# The defaults of the settings that no config class holds.
DEFAULTS = {"format": "csv", "attribute": "none", "reward": CDR}


def load_run_config(path: str | Path) -> dict[str, int | float | str]:
    """Parse a flat ``key = value`` config file, casting and checking each value by ``SETTINGS``."""
    values: dict[str, int | float | str] = {}
    seen: dict[str, int] = {}  # key -> the line that set it
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
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
            seen[key] = lineno
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
    """Settings by precedence: the flags that were given, the config file, then ``DEFAULTS``."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return ChainMap(flags, load_run_config(flags["config"]) if "config" in flags else {}, DEFAULTS)


def _config(cls, opts: ChainMap, **fields):
    """A ``cls`` from the settings that were set and ``fields``; the rest keep their defaults."""
    given = {f.name: opts[f.name] for f in dataclasses.fields(cls) if f.name in opts}
    return cls(**given, **fields)


def _attribute(opts: ChainMap) -> Attribute | None:
    return None if opts["attribute"] == "none" else Attribute(opts["attribute"])


def _lexicon(opts: ChainMap) -> Lexicon:
    return load_lexicon(opts["lexicon"]) if opts.get("lexicon") else builtin_lexicon()


def _load_buckets(opts: ChainMap):
    """Load and bucket the raw tweets; returns (price series or None, buckets).

    With ``prices`` set, tweets outside the series window are dropped and the
    buckets are the series days; without it, each tweet's own UTC day.
    """
    prices = opts.get("prices")
    series = corpus.load_prices(prices) if prices else None
    loaded = corpus.load_tweets(
        opts["tweets"],
        format=opts["format"],
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


def _write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _status(message: str) -> None:
    """Say what a command wrote, on stderr: stdout carries only results (``--out /dev/stdout``)."""
    print(message, file=sys.stderr)


def evaluate(actual, predicted):
    """:func:`sentiq.metrics.evaluate`, whose module loads numpy, imported on the first call.

    ``evaluate`` calls it through this module attribute because perfbench's
    tracer (perfbench/tracing.py) wraps ``cli.evaluate`` by name.
    """
    from . import metrics

    return metrics.evaluate(actual, predicted)


def cmd_synth(args: argparse.Namespace, opts: ChainMap) -> int:
    if Path(args.out_tweets).resolve() == Path(args.out_prices).resolve():
        raise ConfigError(
            f"--out-tweets and --out-prices name the same file: {args.out_prices}"
        )
    from . import synth

    tweets, series = synth.gen_corpus(_config(SynthConfig, opts))
    n = corpus.write_tweets(tweets, args.out_tweets, format=opts["format"])
    m = corpus.write_prices(series, args.out_prices)
    _status(f"wrote {n} tweets to {args.out_tweets} and {m} prices to {args.out_prices}")
    return 0


def cmd_preprocess(args: argparse.Namespace, opts: ChainMap) -> int:
    _, buckets = _load_buckets(opts)
    rows = [r for b in preprocess.clean_days(buckets) for r in b.tweets]
    n = corpus.write_tweets(rows, args.out, format=opts["format"])
    _status(f"wrote {n} cleaned tweets to {args.out}")
    return 0


def cmd_split(args: argparse.Namespace, opts: ChainMap) -> int:
    attribute = _attribute(opts)
    # Unlike the signal path, split ranks the cleaned rows it writes: each day
    # keeps ceil(n/2) of the tweets that survive cleaning and dedup.
    _, buckets = _load_buckets(opts)
    dataset = build_dataset(preprocess.clean_days(buckets), attribute)
    rows = [r for b in dataset.buckets for r in b.tweets]
    n = corpus.write_tweets(rows, args.out, format=opts["format"])
    # The sidecar sits next to a file: a stream such as /dev/stdout (a
    # symlink), a FIFO or a device gets none.
    if stat.S_ISREG(os.lstat(args.out).st_mode):
        meta_path = Path(str(args.out) + ".meta.json")
        _write_json(meta_path, {
            "attribute": opts["attribute"],
            "source": str(opts["tweets"]),
            "days": len(dataset.buckets),
            "tweets": dataset.total_tweets,
        })
        sidecar = f"sidecar {meta_path}"
    else:
        sidecar = "no sidecar: not a regular file"
    _status(f"wrote {n} tweets to {args.out} (attribute={opts['attribute']}, {sidecar})")
    return 0


def cmd_sentiment(args: argparse.Namespace, opts: ChainMap) -> int:
    series, signals = _signal_pipeline(opts, _attribute(opts))
    rows = ((s.date.isoformat(), f"{s.mean_compound:.6f}", s.tweet_count) for s in signals)
    corpus.write_csv(args.out, ("date", "mean_compound", "tweet_count"), rows)
    _status(f"wrote {len(signals)} daily signals to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace, opts: ChainMap) -> int:
    from . import qlearn

    attribute = _attribute(opts)
    cfg = _config(AgentConfig, opts)
    reward = opts["reward"]
    series, signals = _signal_pipeline(opts, attribute)
    model, log = qlearn.train(series, signals, reward, cfg, attribute=attribute)
    qlearn.save_model(model, args.out)
    if args.log:
        _write_json(args.log, {"mean_rewards": log.mean_rewards, "epsilons": log.epsilons})
    _status(
        f"trained {reward} model on {len(series)} days "
        f"({log.episodes} episodes, final mean reward {log.mean_rewards[-1]:.4f}); "
        f"saved to {args.out}"
    )
    return 0


def cmd_predict(args: argparse.Namespace, opts: ChainMap) -> int:
    from . import qlearn

    model = qlearn.load_model(args.model)
    series, signals = _signal_pipeline(opts, model.attribute)
    predictions = qlearn.predict_series(model, series, signals)
    corpus.write_dated_prices(series.dates[1:], predictions, args.out)
    _status(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace, opts: ChainMap) -> int:
    actual = corpus.load_dated_prices(args.actual)
    predicted = corpus.load_dated_prices(args.predicted)
    shared = sorted(set(actual) & set(predicted))
    if len(shared) < 2:
        raise CorpusError(
            f"need at least 2 shared dates to evaluate, got {len(shared)}"
        )
    report = evaluate([actual[d] for d in shared], [predicted[d] for d in shared])
    print(report.format_table())
    if args.out:
        _write_json(args.out, report.to_dict())
        _status(f"wrote report to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace, opts: ChainMap) -> int:
    from . import bench

    cfg = _config(BenchConfig, opts, agent=_config(AgentConfig, opts))
    series = corpus.load_prices(opts["prices"])
    loaded = corpus.load_tweets(opts["tweets"], format=opts["format"], window=series.window())
    report = bench.compare(loaded.records, series, _lexicon(opts), cfg)
    for result in (report.classic, report.proposed):
        flag = "" if result.converged is None else f" converged={result.converged}"
        print(
            f"{result.approach:<8} utilized={result.tweets_utilized} "
            f"wall={result.wall_seconds:.2f}s episodes={result.episodes_run} "
            f"vaf={result.final_vaf:.2f}{flag}"
        )
    if args.out:
        _write_json(args.out, report.to_dict())
        _status(f"wrote report to {args.out}")
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


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose flags are added when argparse dispatches to one.

    ``sentiq --help``, the usage line and an unknown name's error read only
    each subcommand's name and help, which are always registered. A
    subcommand's flag-adding function waits in ``pending`` until argparse
    hands it the rest of the command line, so a run adds the flags of the
    one subcommand it runs, and ``-h``, ``--`` and every usage error behave
    as they do with every flag added.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pending: dict[str, Callable[[argparse.ArgumentParser], None]] = {}

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        add_flags = self.pending.pop(values[0], None)
        if add_flags is not None:
            add_flags(self.choices[values[0]])
        super().__call__(parser, namespace, values, option_string)


def _settings(parser: argparse.ArgumentParser, *names: str, **kwargs) -> None:
    """Add each setting's flag ``--name-with-dashes``, typed or limited by ``SETTINGS``."""
    for name in names:
        kind = SETTINGS[name]
        if isinstance(kind, tuple):
            typed = {"choices": kind}
        else:
            typed = {} if kind is str else {"type": kind}
        parser.add_argument("--" + name.replace("_", "-"), dest=name, **typed, **kwargs)


def _config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")


_SEED_HELP = "random seed (unsigned 64-bit)"


def _synth_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    _settings(p, "seed", help=_SEED_HELP)
    _settings(p, "days", "tweets_per_day")
    _settings(p, "rho", help="planted follower-signal strength in [0, 1]")
    _settings(p, "base_price", "daily_vol", "format")
    p.add_argument("--out-tweets", required=True, dest="out_tweets")
    p.add_argument("--out-prices", required=True, dest="out_prices")


def _preprocess_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", help="restrict to the price-series window")
    _settings(p, "format")
    p.add_argument("--out", required=True)


def _split_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", "attribute", "format")
    p.add_argument("--out", required=True)


def _sentiment_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "attribute", "format")
    p.add_argument("--out", required=True)


def _train_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    _settings(p, "seed", help=_SEED_HELP)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "reward", "attribute", "format")
    p.add_argument("--log", help="write per-episode training log JSON here")
    p.add_argument("--out", required=True)


def _predict_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    p.add_argument("--model", required=True)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon", "format")
    p.add_argument("--out", required=True)


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--actual", required=True, help="date,price CSV of actual values")
    p.add_argument("--predicted", required=True, help="date,price CSV of predictions")
    p.add_argument("--out", help="also write the report as JSON")


def _compare_flags(p: argparse.ArgumentParser) -> None:
    _config_flag(p)
    _settings(p, "seed", help=_SEED_HELP)
    p.add_argument("--tweets", required=True)
    _settings(p, "prices", required=True)
    _settings(p, "lexicon")
    default = BenchConfig.seconds
    _settings(p, "seconds", help=f"wall-clock limit per approach (default {default:g})")
    _settings(p, "target_vaf", help="stop an approach once its held-out VAF reaches this")
    _settings(p, "reward", "train_frac", "format")
    p.add_argument("--out", help="write the full comparison report JSON here")


# Each subcommand: its help line, the function that adds its flags, and the command.
COMMANDS = {
    "synth": ("generate a seeded synthetic corpus", _synth_flags, cmd_synth),
    "preprocess": ("clean texts and drop same-day duplicates", _preprocess_flags, cmd_preprocess),
    "split": ("keep each day's top half by an engagement attribute", _split_flags, cmd_split),
    "sentiment": ("daily mean-compound signal series", _sentiment_flags, cmd_sentiment),
    "train": ("train a Q-model on a corpus + price history", _train_flags, cmd_train),
    "predict": ("greedy next-day predictions from a saved model", _predict_flags, cmd_predict),
    "evaluate": ("score a prediction file against actuals", _evaluate_flags, cmd_evaluate),
    "compare": ("classic vs follower-filtered pipeline benchmark", _compare_flags, cmd_compare),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``sentiq`` parser: every subcommand's name and help, and each one's flags left pending.

    A subcommand's flags are added when the parser dispatches to it (:class:`_Subcommands`).
    """
    parser = _Parser(
        prog="sentiq",
        description="Tweet-sentiment Q-learning price prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, (summary, add_flags, _) in COMMANDS.items():
        sub.add_parser(name, help=summary)
        sub.pending[name] = add_flags
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    run = COMMANDS[args.command][2]
    try:
        return run(args, _options(args))
    except (SentiqError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
