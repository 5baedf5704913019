"""The one range rule and the one count rule for numeric arguments.

`real` admits a number in an interval written like "(0, 1]". NaN lies in no
interval, and +inf only in one closed at inf, which only rates use: an
overflowing rate means certain outage. `integer` admits a count: an int,
never a bool or another subclass of int, or a numpy integer, of at least an
optional minimum. Each returns the value it admits and raises ValueError
naming the argument otherwise. The config parses its text and then calls
the same two rules.
"""
from __future__ import annotations

import numpy as np

# (low, high, closed at low, closed at high) of the interval texts `real` has parsed: the
# literals in the code, and the first of those built from data, such as CecConfig's (0, K - N).
_BOUNDS: dict[str, tuple[float, float, bool, bool]] = {}


def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    bounds = (low, high, interval[0] == "[", interval[-1] == "]")
    if len(_BOUNDS) < 256:
        _BOUNDS[interval] = bounds
    return bounds


def real(name: str, value, interval: str = "(-inf, inf)"):
    """`value` if it is a number in `interval`; otherwise ValueError naming `name`."""
    try:
        low, high, closed_low, closed_high = _BOUNDS[interval]
    except KeyError:
        low, high, closed_low, closed_high = _bounds(interval)
    if (value >= low if closed_low else value > low) and (value <= high if closed_high else value < high):
        return value
    raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def integer(name: str, value, minimum: int | None = None):
    """`value` if it is an int (not a bool) or a numpy integer, and at least `minimum` when
    one is given; otherwise ValueError naming `name`."""
    if (type(value) is int or isinstance(value, np.integer)) and (minimum is None or value >= minimum):
        return value
    at_least = "" if minimum is None else f" >= {minimum}"
    raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
