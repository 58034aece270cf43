"""Engagement-attribute dataset construction.

Each day's raw tweet records are ranked by one engagement attribute and only
the top half (``ceil(n/2)``) is kept, producing a smaller corpus that keeps
the tweets most likely to move opinion. ``attribute=None`` keeps everything and
is the unfiltered baseline corpus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from .corpus import DayBucket, _by_time_then_id


class Attribute(str, enum.Enum):
    FOLLOWERS = "followers"
    COMMENTS = "comments"
    LIKES = "likes"
    RETWEETS = "retweets"


def rank_and_halve(bucket: DayBucket, attribute: Attribute) -> DayBucket:
    """Keep the day's top ``ceil(n/2)`` raw records by attribute, in rank order.

    The kept records are ordered by the attribute, highest first, not by time;
    ties rank the earlier timestamp first, then the smaller id.
    """
    # Two stable sorts with C keys: a stable sort keeps equal elements in
    # order under reverse=True too, so ties stay in (timestamp, id) order.
    ordered = sorted(bucket.tweets, key=_by_time_then_id)
    ordered.sort(key=attrgetter(attribute.value), reverse=True)
    return DayBucket(bucket.date, tuple(ordered[: (len(ordered) + 1) // 2]))


@dataclass(frozen=True)
class FilteredCorpus:
    """Day buckets after optional attribute filtering."""

    buckets: tuple[DayBucket, ...]

    @property
    def total_tweets(self) -> int:
        return sum(len(b.tweets) for b in self.buckets)


def build_dataset(buckets: tuple[DayBucket, ...], attribute: Attribute | None) -> FilteredCorpus:
    """Per-day top-half filtering of raw records; ``None`` keeps the full corpus."""
    if attribute is None:
        return FilteredCorpus(tuple(buckets))
    return FilteredCorpus(tuple(rank_and_halve(b, attribute) for b in buckets))
