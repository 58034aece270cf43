"""``str.lower`` is idempotent on every code point of this Python's Unicode tables.

``sentiq.preprocess.clean`` relies on it: a pass's output is lowercase, and
lowering it again must change nothing, or a text with none of ``clean``'s
triggers would not be a fixed point. ``clean_day``'s test of a whole day
relies on two more properties of the tables: no code point that ``lower``
changes lowers to a string that starts with that code point, so
``s.lower() == s`` holds only when ``lower`` keeps every character of ``s``;
and ``preprocess._OTHER_SPACES`` lists every code point that ``str.isspace``
(and so ``str.split()``) takes for whitespace, but ``" "`` and ``"\\n"``.
``tests/test_preprocess.py`` runs these checks under pytest. They need
nothing but the standard library and ``src/sentiq``, so they also run alone
on any Python::

    python tests/unicode_lower.py
"""

from __future__ import annotations

import sys
import unicodedata
from pathlib import Path


def lower_not_idempotent() -> list[int]:
    """The code points ``c`` with ``c.lower().lower() != c.lower()``."""
    bad = []
    for cp in range(sys.maxunicode + 1):
        low = chr(cp).lower()
        if low.lower() != low:
            bad.append(cp)
    return bad


def lower_starts_with_itself() -> list[int]:
    """The code points ``c`` with ``c.lower() != c`` and ``c.lower()[0] == c``."""
    bad = []
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        low = c.lower()
        if low != c and low[0] == c:
            bad.append(cp)
    return bad


def other_spaces() -> str:
    """Every code point that ``str.isspace`` takes for whitespace, but ``" "`` and ``"\\n"``."""
    return "".join(
        c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in " \n"
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sentiq.preprocess import _OTHER_SPACES

    version = f"Python {sys.version.split()[0]}, Unicode {unicodedata.unidata_version}"
    spaces = other_spaces()
    missing = [ord(c) for c in spaces if c not in _OTHER_SPACES]
    extra = [ord(c) for c in _OTHER_SPACES if c not in spaces]
    failed = False
    for bad, what in (
        (lower_not_idempotent(), "lower() is not idempotent"),
        (lower_starts_with_itself(), "lower() changes the code point but starts with it"),
        (missing, "isspace() holds but preprocess._OTHER_SPACES lacks it"),
        (extra, "preprocess._OTHER_SPACES lists it but isspace() does not hold"),
    ):
        print(f"{version}: {len(bad)} code points where {what}"
              + "".join(f"\n  U+{cp:04X}" for cp in bad))
        failed = failed or bool(bad)
    sys.exit(1 if failed else 0)
