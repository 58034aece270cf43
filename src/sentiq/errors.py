"""Exception types shared across the package, and the config classes' integer check."""

from __future__ import annotations

import dataclasses


class SentiqError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(SentiqError):
    """Malformed or inconsistent tweet/price input data."""


class LexiconError(SentiqError):
    """Malformed sentiment lexicon file."""


class AlignmentError(SentiqError):
    """Price series and daily signals do not cover the same days."""


class ModelFormatError(SentiqError):
    """Model file is not readable as a serialized Q-table."""


class ProfilerError(SentiqError):
    """Resource profiler misuse or unsupported platform."""


class ConfigError(SentiqError):
    """Bad run configuration (file or flag values)."""


def check_int_fields(config, error: type[SentiqError]) -> None:
    """Raise ``error`` naming the first ``int``-default field that holds a non-int or a bool."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if type(field.default) is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise error(f"{field.name} must be an integer, got {value!r}")
