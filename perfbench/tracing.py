"""Spans around sentiq's layer calls, taken while ``sentiq.cli.main`` runs.

``layer_spans`` replaces each layer function that the CLI stages reach
through a module attribute with a wrapper that runs the original inside a
span, and puts the originals back on exit. A traced operation is then
``cli.main`` itself inside a root ``cli.<stage>`` span (``run_traced``), so
the spans describe the code the CLI runs at this commit. Whatever the stage
does outside the layer spans (argument parsing, config lookup, building
output rows, small file writes) is the root span's self time,
``cli.unaccounted_s``. Counts come from the wrapped calls' arguments and
return values and are taken after the root span closes, so counting costs
no span time. Nothing in ``sentiq`` itself is instrumented.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter

from sentiq import cli, corpus, preprocess, qlearn


class Tracer:
    """In-memory spans: id, parent id, operation id, name, start and end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _tweets(buckets) -> int:
    return sum(len(b.tweets) for b in buckets)


# Counters take (counts, bound arguments, return value).
def _count_load_prices(c: Counter, a: dict, out) -> None:
    c["corpus.bytes_read"] += os.path.getsize(a["path"])


def _count_load_tweets(c: Counter, a: dict, out) -> None:
    c["corpus.rows_read"] += out.total_rows
    c["corpus.rows_dropped_window"] += out.dropped_out_of_window
    c["corpus.bytes_read"] += os.path.getsize(a["path"])


def _count_write_tweets(c: Counter, a: dict, out) -> None:
    c["corpus.bytes_written"] += os.path.getsize(a["path"])


def _count_clean(c: Counter, a: dict, out) -> None:
    n_in, n_kept = _tweets(a["buckets"]), _tweets(out)
    c["preprocess.tweets_cleaned"] += n_in
    c["preprocess.dropped_empty"] += n_in - n_kept
    c["preprocess.changed"] += n_in - n_kept + sum(
        t.clean_text != t.original.text for b in out for t in b.tweets
    )


def _count_dedup(c: Counter, a: dict, out) -> None:
    c["preprocess.dropped_duplicate"] += _tweets(a["buckets"]) - _tweets(out)


def _count_filter(c: Counter, a: dict, out) -> None:
    c["attributes.tweets_in"] += _tweets(a["buckets"])
    c["attributes.tweets_kept"] += out.total_tweets


def _count_score(c: Counter, a: dict, out) -> None:
    """Tweets scored, and lexicon hits per token as ``sentiment.score`` splits them."""
    lexicon = a["lexicon"]
    c["sentiment.tweets_scored"] += sum(s.tweet_count for s in out)
    for bucket in a["buckets"]:
        for tweet in bucket.tweets:
            for token in tweet.clean_text.split():
                token = token.rstrip("!")
                if token:
                    c["sentiment.tokens"] += 1
                    c["sentiment.hits"] += lexicon.get(token) is not None


def _count_train(c: Counter, a: dict, out) -> None:
    """Episodes the returned log records, times the day-to-day transitions each one walks."""
    _, log = out
    c["qlearn.steps"] += log.episodes * (len(a["prices"]) - 1)


def _count_save_model(c: Counter, a: dict, out) -> None:
    c["qlearn.table_bytes"] += a["model"].table.nbytes


# (module, attribute, span name, counter): the layer calls the CLI stages make.
# ``preprocess.clean_and_dedup`` reaches clean_buckets and dedup as globals of
# ``preprocess``; build_dataset, the lexicon loaders, daily_signals and
# evaluate are names imported into ``cli``.
LAYERS = (
    (corpus, "load_prices", "corpus.load_prices", _count_load_prices),
    (corpus, "load_tweets", "corpus.load_tweets", _count_load_tweets),
    (corpus, "bucket_by_day", "corpus.bucket_by_day", None),
    (corpus, "bucket_all_days", "corpus.bucket_all_days", None),
    (corpus, "write_tweets", "corpus.write_tweets", _count_write_tweets),
    (preprocess, "clean_buckets", "preprocess.clean", _count_clean),
    (preprocess, "dedup", "preprocess.dedup", _count_dedup),
    (cli, "build_dataset", "attributes.filter", _count_filter),
    (cli, "builtin_lexicon", "sentiment.lexicon", None),
    (cli, "load_lexicon", "sentiment.lexicon", None),
    (cli, "daily_signals", "sentiment.score", _count_score),
    (qlearn, "train", "qlearn.train", _count_train),
    (qlearn, "save_model", "qlearn.save_model", _count_save_model),
    (qlearn, "load_model", "qlearn.load_model", None),
    (qlearn, "predict_series", "qlearn.predict", None),
    (cli, "evaluate", "metrics.evaluate", None),
)


def _wrap(tracer: Tracer, op: str, name: str, fn, count, pending: list):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, op):
            out = fn(*args, **kwargs)
        if count is not None:
            pending.append((count, signature, args, kwargs, out))
        return out

    return traced


@contextlib.contextmanager
def layer_spans(tracer: Tracer, op: str, pending: list):
    """Wrap every layer call in ``LAYERS`` in a span while the block runs."""
    saved = []
    try:
        for module, attr, name, count in LAYERS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, op, name, original, count, pending))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_traced(tracer: Tracer, op: str, argv: tuple[str, ...], counts: Counter) -> int:
    """``cli.main(argv)`` under layer spans, inside a root ``cli.<stage>`` span."""
    pending: list = []
    with layer_spans(tracer, op, pending):
        with tracer.span("cli." + argv[0], op):
            code = cli.main(list(argv))
    for count, signature, args, kwargs, out in pending:
        count(counts, signature.bind(*args, **kwargs).arguments, out)
    return code
