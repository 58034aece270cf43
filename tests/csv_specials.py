"""``csv.writer`` writes a field as it is unless the field holds a guarded character.

``sentiq.corpus.write_tweets`` formats a tweet CSV row itself when no id or
text holds a comma, a double quote, a CR, an LF or a NUL (:data:`GUARDED`),
and relies on the default ``csv.writer`` writing a field that holds any other
code point unquoted and unchanged. This checks that for every code point, in
a field of its own and inside a longer one. The writer quotes the first four;
a NUL it refuses on Python 3.10 and writes unchanged from 3.11 on.
``tests/test_corpus.py`` runs this check under pytest. It needs nothing but
the standard library, so it also runs alone on any Python::

    python tests/csv_specials.py
"""

from __future__ import annotations

import csv
import io
import sys

GUARDED = frozenset(',"\r\n\0')


def _fields(cp: int) -> list[str]:
    c = chr(cp)
    return [c, f"a{c} b"]


def _written_as_is(cps: range) -> bool:
    """Whether the default ``csv.writer`` writes the fields of ``cps`` unchanged, in one row."""
    fields = [field for cp in cps for field in _fields(cp)]
    out = io.StringIO(newline="")
    try:
        csv.writer(out).writerow(fields)
    except csv.Error:
        return False
    return out.getvalue() == ",".join(fields) + "\r\n"


def guarded_code_points() -> list[int]:
    """The code points whose fields ``csv.writer`` quotes, changes or refuses."""
    guarded = []
    for start in range(0, sys.maxunicode + 1, 256):
        block = range(start, min(start + 256, sys.maxunicode + 1))
        if not _written_as_is(block):
            guarded += [cp for cp in block if not _written_as_is(range(cp, cp + 1))]
    return guarded


if __name__ == "__main__":
    guarded = guarded_code_points()
    unexpected = [cp for cp in guarded if chr(cp) not in GUARDED]
    print(
        f"Python {sys.version.split()[0]}: csv.writer guards "
        + " ".join(f"U+{cp:04X}" for cp in guarded)
        + f"; {len(unexpected)} code points outside write_tweets' guard set"
        + "".join(f"\n  U+{cp:04X}" for cp in unexpected)
    )
    sys.exit(1 if unexpected else 0)
