"""Noisy tweet corpus for the ``noisy`` workload.

It starts from a ``sentiq.synth.gen_corpus`` corpus, whose texts are
already fixed points of ``sentiq.preprocess.clean``, and plants the noise
that the cleaner exists to remove. Every row's expected cleaned text
follows from how the row was built, never from calling the cleaner, so the
workload can check what ``preprocess`` keeps against an independent count.

Planted kinds: leading ``RT``, ``@mentions``, ``#tags`` on existing words,
``http``/``https`` and ``www`` URLs, ``....`` runs, upper case, extra
spacing, character elongations, same-day duplicates that differ only in
removable noise, rows that clean to empty, and rows dated outside the
price window.
"""

from __future__ import annotations

import datetime as dt
import random
import string
from dataclasses import dataclass

from sentiq.corpus import TWEET_FIELDS, PriceSeries, TweetRecord

SHARE_NOISY = 0.6  # base rows given removable noise
SHARE_ELONGATED = 0.15  # base rows with one elongated word
SHARE_DUPLICATE = 0.10  # extra same-day copies, per base row
SHARE_EMPTY = 0.05  # extra rows that clean to empty, per base row
SHARE_OUT_OF_WINDOW = 0.03  # extra rows dated outside the window, per base row

REMOVABLE_KINDS = ("rt", "mention", "hashtag", "url", "www", "dots", "upper", "spacing")
PLANTED_KINDS = REMOVABLE_KINDS + ("elongation", "duplicate", "empty", "out_of_window")

_DAY = 86_400
_SLUG = string.ascii_letters + string.digits
_UTC = dt.timezone.utc


@dataclass(frozen=True)
class NoisyCorpus:
    """Noisy rows plus what cleaning and dedup must leave of them.

    ``day_sizes[i]`` is the number of distinct non-empty cleaned texts on
    series day ``i``: the tweets ``preprocess`` keeps for that day.
    ``duplicates`` counts every same-day duplicate, the planted copies and
    any collisions already present in the base corpus.
    """

    records: tuple[TweetRecord, ...]
    planted: dict[str, int]
    day_sizes: tuple[int, ...]
    duplicates: int


def _midnight(day: dt.date) -> int:
    return int(dt.datetime.combine(day, dt.time(), tzinfo=_UTC).timestamp())


def _slug(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_SLUG) for _ in range(n))


def _elongate(word: str, rng: random.Random) -> tuple[str, str]:
    """Stretch the last character; returns (noisy word, word after cleaning)."""
    last = word[-1]
    stem = word.rstrip(last)
    return word + last * rng.randint(3, 6), stem + last * 3


def _removable(words: list[str], rng: random.Random, planted: dict[str, int]) -> str:
    """Join ``words`` with one to three kinds of noise that cleaning removes."""
    words = list(words)
    kinds = rng.sample(REMOVABLE_KINDS, rng.randint(1, 3))
    # Word-level changes first, so they touch only the original words.
    if "hashtag" in kinds:
        i = rng.randrange(len(words))
        words[i] = "#" + words[i]
    if "upper" in kinds:
        i = rng.randrange(len(words))
        words = [w.upper() if j == i or rng.random() < 0.3 else w for j, w in enumerate(words)]
    inserts = {
        "mention": lambda: "@" + _slug(rng, rng.randint(3, 10)) + rng.choice(("", "_", "_01")),
        "url": lambda: rng.choice(("http://", "https://")) + "t.co/" + _slug(rng, 8),
        "www": lambda: "www." + _slug(rng, 6).lower() + ".com/" + _slug(rng, 4),
        "dots": lambda: "." * rng.randint(2, 6),
    }
    for kind, token in inserts.items():
        if kind in kinds:
            words.insert(rng.randint(0, len(words)), token())
    if "rt" in kinds:
        words.insert(0, rng.choice(("RT", "rt", "RT RT")))
    for kind in kinds:
        planted[kind] += 1
    sep = rng.choice(("  ", " \t ", "   ")) if "spacing" in kinds else " "
    return sep.join(words)


def _empty_text(rng: random.Random) -> str:
    pool = (
        lambda: "RT",
        lambda: "@" + _slug(rng, 6),
        lambda: "https://t.co/" + _slug(rng, 8),
        lambda: "www." + _slug(rng, 5).lower() + ".org",
        lambda: "." * rng.randint(2, 5),
        lambda: "#",
    )
    return " ".join(rng.choice(pool)() for _ in range(rng.randint(1, 3)))


def make_noisy(
    tweets: tuple[TweetRecord, ...], series: PriceSeries, seed: int
) -> NoisyCorpus:
    """Plant noise into a clean corpus; the same seed gives the same rows."""
    rng = random.Random(f"sentiq-noise:{seed}")
    planted = dict.fromkeys(PLANTED_KINDS, 0)
    day_index = {date: i for i, date in enumerate(series.dates)}
    first, last = series.window()
    records: list[TweetRecord] = []
    cleaned: list[tuple[dt.date, str]] = []  # (day, expected cleaned text)
    extra = 0

    def add(record: TweetRecord, clean_text: str) -> None:
        records.append(record)
        if record.day() in day_index:
            cleaned.append((record.day(), clean_text))

    def new_id() -> str:
        nonlocal extra
        extra += 1
        return f"x{extra:08d}"

    def like(base: TweetRecord, **changes) -> TweetRecord:
        fields = {k: getattr(base, k) for k in TWEET_FIELDS}
        fields.update(changes)
        return TweetRecord(**fields)

    for base in tweets:
        words = base.text.split()
        expected = list(words)
        if rng.random() < SHARE_ELONGATED:
            i = rng.randrange(len(words))
            words[i], expected[i] = _elongate(words[i], rng)
            planted["elongation"] += 1
        text = _removable(words, rng, planted) if rng.random() < SHARE_NOISY else " ".join(words)
        clean_text = " ".join(expected)
        add(like(base, text=text), clean_text)

        day_start = _midnight(base.day())
        if rng.random() < SHARE_DUPLICATE:
            planted["duplicate"] += 1
            copy_text = _removable(expected, rng, planted)
            add(like(base, id=new_id(), text=copy_text,
                     timestamp=day_start + rng.randrange(_DAY)), clean_text)
        if rng.random() < SHARE_EMPTY:
            planted["empty"] += 1
            add(like(base, id=new_id(), text=_empty_text(rng),
                     timestamp=day_start + rng.randrange(_DAY)), "")
        if rng.random() < SHARE_OUT_OF_WINDOW:
            planted["out_of_window"] += 1
            shift = dt.timedelta(days=rng.randint(1, 20))
            day = first - shift if rng.random() < 0.5 else last + shift
            add(like(base, id=new_id(), timestamp=_midnight(day) + rng.randrange(_DAY)),
                clean_text)

    per_day: list[set[str]] = [set() for _ in series.dates]
    non_empty = 0
    for day, text in cleaned:
        if text:
            non_empty += 1
            per_day[day_index[day]].add(text)
    day_sizes = tuple(len(texts) for texts in per_day)
    return NoisyCorpus(tuple(records), planted, day_sizes, non_empty - sum(day_sizes))
