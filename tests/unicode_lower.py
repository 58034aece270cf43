"""``str.lower`` is idempotent on every code point of this Python's Unicode tables.

``sentiq.preprocess.clean`` relies on it: a pass's output is lowercase, and
lowering it again must change nothing, or a text with none of ``clean``'s
triggers would not be a fixed point. ``tests/test_preprocess.py`` runs this
check under pytest. It needs nothing but the standard library, so it also runs
alone on any Python::

    python tests/unicode_lower.py
"""

from __future__ import annotations

import sys
import unicodedata


def lower_not_idempotent() -> list[int]:
    """The code points ``c`` with ``c.lower().lower() != c.lower()``."""
    bad = []
    for cp in range(sys.maxunicode + 1):
        low = chr(cp).lower()
        if low.lower() != low:
            bad.append(cp)
    return bad


if __name__ == "__main__":
    bad = lower_not_idempotent()
    print(
        f"Python {sys.version.split()[0]}, Unicode {unicodedata.unidata_version}: "
        f"{len(bad)} code points where lower() is not idempotent"
        + "".join(f"\n  U+{cp:04X}" for cp in bad)
    )
    sys.exit(1 if bad else 0)
