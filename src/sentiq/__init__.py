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

The names below are the quickstart surface; everything else is imported
from its own module (``from sentiq.corpus import load_tweets``).
"""

from .attributes import Attribute
from .bench import BenchConfig, chronological_split, compare
from .corpus import bucket_by_day
from .metrics import evaluate, vaf
from .preprocess import clean
from .qlearn import (
    CDR,
    RDR,
    SDR,
    AgentConfig,
    predict_series,
    reward_cdr,
    reward_rdr,
    reward_sdr,
    train,
    zero_reward_points,
)
from .sentiment import builtin_lexicon, day_signal
from .synth import SynthConfig, gen_corpus

__all__ = [
    "AgentConfig", "Attribute", "BenchConfig", "CDR", "RDR", "SDR", "SynthConfig",
    "bucket_by_day", "builtin_lexicon", "chronological_split", "clean", "compare",
    "day_signal", "evaluate", "gen_corpus", "predict_series", "reward_cdr", "reward_rdr",
    "reward_sdr", "train", "vaf", "zero_reward_points",
]

__version__ = "0.1.0"
