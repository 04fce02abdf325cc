"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so new error types should
subclass one of the three user-facing categories below rather than adding
a fourth.  ``_check_sample_rate`` is the one check of a series' sample
rate, which every series type makes.
"""

import math

__all__ = [
    "GaitKineticsError",
    "InputError",
    "SeriesTooShortError",
    "NoGaitDataError",
    "InternalInvariantError",
]


class GaitKineticsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GaitKineticsError):
    """Malformed file, inconsistent configuration, or invalid argument."""


class SeriesTooShortError(InputError):
    """A series has too few samples to filter; the CLI names its file."""


class NoGaitDataError(GaitKineticsError):
    """The trial contains no usable gait data (too short, no events, ...)."""


class InternalInvariantError(GaitKineticsError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _check_sample_rate(rate) -> None:
    """Refuse a series' sample rate unless it is positive and finite."""
    if not 0 < rate < math.inf:
        raise InputError(f"sample rate must be positive and finite, got {rate}")
