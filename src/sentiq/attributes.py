"""Engagement-attribute dataset construction.

Each day's tweets are ranked by one engagement attribute and only the top
half (``ceil(n/2)``) is kept, producing a smaller corpus that preserves the
tweets most likely to move opinion. ``attribute=None`` keeps everything and
is the unfiltered baseline corpus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .corpus import DayBucket


class Attribute(str, enum.Enum):
    FOLLOWERS = "followers"
    COMMENTS = "comments"
    LIKES = "likes"
    RETWEETS = "retweets"


def rank_and_halve(bucket: DayBucket, attribute: Attribute) -> DayBucket:
    """Keep the day's top ``ceil(n/2)`` tweets by attribute, in rank order.

    The kept tweets are ordered by the attribute, highest first, not by time;
    ties rank the earlier timestamp first, then the smaller id.
    """
    def key(tweet):
        record = getattr(tweet, "original", tweet)
        return (-getattr(record, attribute.value), record.timestamp, record.id)

    ordered = sorted(bucket.tweets, key=key)
    keep = (len(ordered) + 1) // 2
    return DayBucket(bucket.date, tuple(ordered[:keep]))


@dataclass(frozen=True)
class FilteredCorpus:
    """Day buckets after optional attribute filtering."""

    attribute: Attribute | None
    buckets: tuple[DayBucket, ...]

    @property
    def total_tweets(self) -> int:
        return sum(len(b.tweets) for b in self.buckets)


def build_dataset(buckets: tuple[DayBucket, ...], attribute: Attribute | None) -> FilteredCorpus:
    """Apply per-day top-half filtering; ``None`` keeps the full corpus."""
    if attribute is None:
        return FilteredCorpus(None, tuple(buckets))
    return FilteredCorpus(attribute, tuple(rank_and_halve(b, attribute) for b in buckets))
