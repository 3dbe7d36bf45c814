"""argparse ``type=`` validators shared by the package's command lines.

Each raises :class:`argparse.ArgumentTypeError`, so a bad value exits
with status 2 and a usage message naming the option.
"""

from __future__ import annotations

import argparse
import math

from repro.faults.schedule import parse_fault_schedule

__all__ = ["fault_spec", "non_negative_int", "positive_float", "positive_int"]


def _parse(text: str, kind: type):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}"
        ) from None


def positive_int(text: str) -> int:
    value = _parse(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    value = _parse(text, int)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """A finite float > 0; ``nan`` and ``inf`` parse as floats but are
    rejected, since no scale, timeout or rate can use them."""
    value = _parse(text, float)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text!r}")
    return value


def fault_spec(text: str) -> str:
    """``--faults``: validate the composable schedule grammar, keep the
    text.  A malformed spec exits with a usage error naming the offending
    clause or option token."""
    try:
        parse_fault_schedule(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text
