"""
Which engagement attribute carries the signal?
==============================================

Per-day top-half filtering can rank tweets by follower count, comment
count, likes, or retweets — or skip filtering entirely. On a corpus whose
planted signal rides on the high-follower tweets, follower filtering
should concentrate the signal while the other attributes select a
near-random half. Each day's raw tweets are ranked first, and only the
kept half is cleaned, deduplicated and scored (``day_signal``, the stage
the CLI runs). This demo measures that two ways: the correlation between
each filtered signal series and the next day's log return, and the
held-out accuracy of a model trained on each series.
"""

import numpy as np

from sentiq import (
    CDR,
    AgentConfig,
    Attribute,
    SynthConfig,
    bucket_by_day,
    builtin_lexicon,
    chronological_split,
    day_signal,
    gen_corpus,
    predict_series,
    train,
    vaf,
)

tweets, series = gen_corpus(SynthConfig(days=1000, tweets_per_day=200, rho=0.8, seed=0))
buckets = bucket_by_day(tweets, series)
lexicon = builtin_lexicon()
next_day_return = np.diff(np.log(np.asarray(series.prices)))

config = AgentConfig(
    action_min=-8,
    action_max=8,
    episodes=10,
    price_bucket_width=500_000.0,
    price_max=1_000_000.0,
    sentiment_bins=51,
    seed=0,
)

choices = [
    Attribute.FOLLOWERS,
    Attribute.COMMENTS,
    Attribute.LIKES,
    Attribute.RETWEETS,
    None,
]

print(f"{'filter':12s} {'signal/return corr':>18s} {'held-out VAF %':>15s}")
for attribute in choices:
    signals = [day_signal(day, attribute, lexicon)[0] for day in buckets]

    # Does the day's mean compound anticipate the next day's move?
    compound = np.array([s.mean_compound for s in signals])[:-1]
    corr = float(np.corrcoef(compound, next_day_return)[0, 1])

    # And does a model trained on that series predict held-out prices?
    train_prices, train_signals, test_prices, test_signals = chronological_split(
        series, signals, 0.7
    )
    model, _ = train(train_prices, train_signals, CDR, config, attribute=attribute)
    predictions = predict_series(model, test_prices, test_signals)
    score = vaf(test_prices.prices[1:], predictions)

    label = attribute.value if attribute is not None else "(unfiltered)"
    print(f"{label:12s} {corr:18.3f} {score:15.4f}")

# Follower filtering should lead both columns by a wide margin: the other
# attributes were drawn independently of the planted signal, so filtering
# by them just discards half the informative tweets along with the noise.
