"""Tweet-sentiment signals driving a tabular Q-learning price predictor.

The pipeline, end to end, in the order it runs: ingest tweets and daily
prices and bucket the tweets by day (:mod:`.corpus`), keep each day's top
half by an engagement attribute (:mod:`.attributes`), normalize and dedup
only the kept texts (:mod:`.preprocess`), reduce each day to a mean
sentiment compound (:mod:`.sentiment`; :func:`day_signal` runs those three
steps for one day), train and run a tabular Q-learning next-day price
predictor (:mod:`.qlearn`), score it (:mod:`.metrics`), and compare the
filtered pipeline against the everything-in baseline under a resource
profiler (:mod:`.bench`, :mod:`.profiler`). :mod:`.synth` makes seeded
corpora with a recoverable planted signal for experiments.

The names in ``__all__`` are the quickstart surface, each imported from its
module on first use; everything else is imported from its own module
(``from sentiq.corpus import load_tweets``).
"""

from importlib import import_module as _import_module

# The quickstart names by the module that defines them. Each is imported on its
# first use (PEP 562), so that ``import sentiq`` and the text commands never load numpy.
_EXPORTS = {
    "attributes": ("Attribute",),
    "bench": ("chronological_split", "compare"),
    "config": ("AgentConfig", "BenchConfig", "CDR", "RDR", "SDR", "SynthConfig"),
    "corpus": ("bucket_by_day",),
    "metrics": ("evaluate", "vaf"),
    "preprocess": ("clean",),
    "qlearn": (
        "predict_series", "reward_cdr", "reward_rdr", "reward_sdr", "train", "zero_reward_points",
    ),
    "sentiment": ("builtin_lexicon", "day_signal"),
    "synth": ("gen_corpus",),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules that loading every name imports; each is an attribute, loaded or not.
_SUBMODULES = (
    "attributes", "bench", "corpus", "errors", "metrics", "preprocess", "profiler", "qlearn",
    "sentiment", "synth",
)

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_SOURCES[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    public = {name for name in globals() if not name.startswith("_") or name.endswith("__")}
    return sorted((public | {*__all__, *_SUBMODULES}) - {"__dir__", "__getattr__"})
