"""
Three reward shapes for the same prediction task
================================================

The agent can be paid in three currencies. Two are error penalties:

* sdr  - negative absolute error between predicted and actual price.
* rdr  - the same error as a percentage of the actual price.

The third, cdr, is a normalized score: 100 for an exact hit, falling
linearly to 0 at the distance the *previous* day's prediction missed by,
and negative beyond that. It rewards beating yesterday's accuracy rather
than just being close, which keeps the gradient meaningful across price
regimes. This demo trains one model per shape on the identical corpus and
compares held-out accuracy.
"""

from sentiq import (
    CDR,
    RDR,
    SDR,
    AgentConfig,
    Attribute,
    SynthConfig,
    bucket_by_day,
    builtin_lexicon,
    chronological_split,
    day_signal,
    gen_corpus,
    predict_series,
    reward_cdr,
    reward_rdr,
    reward_sdr,
    train,
    vaf,
    zero_reward_points,
)

# First, the shapes themselves on one concrete day: actual price moved
# 100 -> 110, yesterday's prediction was 90 (an error of 11 after scaling
# by the actual move), and today's prediction is 115.5.
actual_prev, actual, predicted_prev, predicted = 100.0, 110.0, 90.0, 115.5
geometry = zero_reward_points(actual, actual_prev, predicted_prev)
print("one day, three rewards for predicting 115.5 against an actual 110:")
print(f"  sdr = {reward_sdr(actual, predicted):+8.3f}   (negative absolute error)")
print(f"  rdr = {reward_rdr(actual, predicted):+8.3f}   (negative percent error)")
print(f"  cdr = {reward_cdr(geometry, actual, predicted):+8.3f}   (zero line at ±{geometry.l:.1f})")
print()

# Same corpus, same follower filtering, same signals for all three runs.
tweets, series = gen_corpus(SynthConfig(days=1000, tweets_per_day=200, rho=0.8, seed=0))
lexicon = builtin_lexicon()
signals = [
    day_signal(day, Attribute.FOLLOWERS, lexicon)[0] for day in bucket_by_day(tweets, series)
]
train_prices, train_signals, test_prices, test_signals = chronological_split(
    series, signals, 0.7
)

config = AgentConfig(
    action_min=-8,
    action_max=8,
    episodes=10,
    price_bucket_width=500_000.0,
    price_max=1_000_000.0,
    sentiment_bins=51,
    seed=0,
)

print(f"{'reward':8s} {'final mean reward':>18s} {'held-out VAF %':>15s}")
for kind in (SDR, RDR, CDR):
    model, log = train(train_prices, train_signals, kind, config)
    predictions = predict_series(model, test_prices, test_signals)
    score = vaf(test_prices.prices[1:], predictions)
    print(f"{kind:8s} {log.mean_rewards[-1]:18.3f} {score:15.4f}")

# The three final mean rewards are not comparable to each other (different
# units); the held-out VAF column is the like-for-like comparison.
