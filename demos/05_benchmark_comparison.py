"""
Filtered pipeline vs. everything-in baseline
============================================

Both approaches race to the same accuracy target from the same raw
corpus. The classic approach cleans and scores every tweet of every day;
the proposed approach ranks each day by follower count first and only
cleans and scores the top half. Halving the ingest work shrinks wall time
and the tweet budget while the planted signal keeps accuracy intact. Both
runs happen under the resource profiler, and each reports wall seconds,
tweets utilized, training episodes, CPU load, and final held-out VAF.
"""

from sentiq import (
    CDR,
    AgentConfig,
    BenchConfig,
    SynthConfig,
    builtin_lexicon,
    compare,
    gen_corpus,
)

tweets, series = gen_corpus(SynthConfig(days=1000, tweets_per_day=200, rho=0.8, seed=1))

config = BenchConfig(
    agent=AgentConfig(
        action_min=-8,
        action_max=8,
        episodes=10,
        price_bucket_width=500_000.0,
        price_max=1_000_000.0,
        sentiment_bins=51,
        seed=1,
    ),
    reward=CDR,
    train_frac=0.7,
    seconds=20.0,
    target_vaf=95.0,
)

# Race both approaches to 95% VAF on the held-out tail. An approach stops
# as soon as its model clears the target (checked before each episode) or
# when its 20 seconds run out.
print(f"racing both approaches to VAF >= 95% on {len(tweets)} tweets...")
report = compare(tweets, series, builtin_lexicon(), config)

print()
print(f"{'':18s}{'classic':>14s}{'proposed':>14s}")
rows = [
    ("tweets utilized", "tweets_utilized", "{:d}"),
    ("wall seconds", "wall_seconds", "{:.2f}"),
    ("episodes run", "episodes_run", "{:d}"),
    ("converged", "converged", "{}"),
    ("final VAF %", "final_vaf", "{:.4f}"),
]
for label, field, fmt in rows:
    classic = fmt.format(getattr(report.classic, field))
    proposed = fmt.format(getattr(report.proposed, field))
    print(f"{label:18s}{classic:>14s}{proposed:>14s}")
for name, side in (("classic", report.classic), ("proposed", report.proposed)):
    cpu = side.resources.cpu
    print(
        f"{name} cpu%: min {cpu.min:.1f}  avg {cpu.avg:.1f}  max {cpu.max:.1f}"
        f"  ({side.resources.sample_count} samples)"
    )

speedup = report.classic.wall_seconds / report.proposed.wall_seconds
saved = report.classic.tweets_utilized - report.proposed.tweets_utilized
print()
print(f"proposed reached the target {speedup:.1f}x faster using {saved} fewer tweets")
