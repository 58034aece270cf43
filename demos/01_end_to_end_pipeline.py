"""
End-to-end pipeline on a synthetic corpus
=========================================

Generate a seeded tweet corpus with a planted follower signal, keep each
day's most-followed half, normalize only those texts, reduce each day to a mean
sentiment compound, train the Q-learning predictor, and score its
next-day price predictions on a held-out tail.
"""

from sentiq import (
    CDR,
    AgentConfig,
    Attribute,
    SynthConfig,
    bucket_by_day,
    builtin_lexicon,
    chronological_split,
    clean,
    day_signal,
    evaluate,
    gen_corpus,
    predict_series,
    train,
)

# A corpus of 1000 days with 200 tweets each. rho controls how strongly
# the high-follower tweets lean toward the next day's price move; 0.8
# plants a clear but imperfect signal. The same seed always yields the
# same corpus, byte for byte.
tweets, series = gen_corpus(SynthConfig(days=1000, tweets_per_day=200, rho=0.8, seed=0))
print(f"generated {len(tweets)} tweets over {len(series.prices)} days")

# The normalizer lowercases, strips retweet markers / mentions / hashtags /
# URLs, collapses character runs and repeated punctuation, and squeezes
# whitespace. Synthetic texts are generated already-normalized, so here is
# what it does to a realistically messy one:
messy = "Soooooo BULLISH!!!! Buy the dip @BigWhale42 https://t.co/xyz #ToTheMoon"
print(f"messy text   : {messy!r}")
print(f"cleaned text : {clean(messy)!r}")

# Bucket by calendar day, then run the pipeline's one per-day stage: keep
# the day's top half by follower count (ceil(n/2) tweets, ranked on the raw
# records), clean only those texts, drop same-day duplicates, and reduce the
# day to one number, the mean sentiment compound of the survivors. It also
# returns how many tweets the filter kept.
lexicon = builtin_lexicon()
days = [day_signal(day, Attribute.FOLLOWERS, lexicon) for day in bucket_by_day(tweets, series)]
signals = [signal for signal, _ in days]
kept = sum(n for _, n in days)
print(f"kept {kept} of {len(tweets)} tweets after follower filtering")
print(f"day 0 signal: {signals[0].mean_compound:+.4f} from {signals[0].tweet_count} tweets")

# Chronological 70/30 split. The held-out tail starts on the last training
# day so the first held-out prediction has a prior-day state to start from.
train_prices, train_signals, test_prices, test_signals = chronological_split(
    series, signals, 0.7
)
print(f"training on {len(train_prices.prices)} days, holding out {len(test_prices.prices)}")

# Train the agent with the normalized reward shape: full credit for an
# exact hit, zero at the previous day's error distance, negative beyond.
config = AgentConfig(
    action_min=-8,
    action_max=8,
    episodes=10,
    price_bucket_width=500_000.0,
    price_max=1_000_000.0,
    sentiment_bins=51,
    seed=0,
)
model, log = train(train_prices, train_signals, CDR, config, attribute=Attribute.FOLLOWERS)
print(f"trained {log.episodes} episodes; mean reward {log.mean_rewards[0]:.1f} -> {log.mean_rewards[-1]:.1f}")

# Greedy next-day predictions along the held-out tail. Each day's state
# uses the *actual* previous price, so errors do not compound.
predictions = predict_series(model, test_prices, test_signals)
report = evaluate(test_prices.prices[1:], predictions)
print()
print(f"held-out days : {report.n}")
print(f"VAF           : {report.vaf:8.4f} %")
print(f"R^2           : {report.r2:8.4f}")
print(f"NSE           : {report.nse:8.4f}")
print(f"MAPE          : {report.mape:8.4f} %")
print(f"WMAPE         : {report.wmape:8.4f} %")
print(f"RMSE          : {report.rmse:8.4f}")
