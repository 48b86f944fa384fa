"""The one range check for every number that enters the program.

A bound is written as an interval string, such as ``"(0, inf)"``,
``"[0, 1)"`` or ``"[1, inf)"``: a square bracket closes its end, a
round one opens it.  :func:`within` checks a value against one, so
each bound is stated once, where the value enters: on a CLI option
(``add_argument(..., within=...)`` in :mod:`repro.cli`), in a config
dataclass's ``__post_init__``, or in a constructor a CLI value
reaches.

NaN lies in no interval, and an infinite value lies only in one whose
end at that infinity is closed: ``"[0, inf]"`` admits ``inf`` (for
example "never reap"), ``"[0, inf)"`` does not.
"""

from __future__ import annotations

import functools


@functools.lru_cache(maxsize=None)
def _parse(interval: str) -> tuple[bool, float, float, bool]:
    """``(low closed, low, high, high closed)`` of an interval string."""
    if interval[:1] not in ("[", "(") or interval[-1:] not in ("]", ")"):
        raise ValueError(f"bad interval {interval!r}")
    low, high = interval[1:-1].split(",")
    return (interval[0] == "[", float(low), float(high),
            interval[-1] == "]")


def within(name: str, value, interval: str):
    """Return ``value`` if it lies in ``interval``; else raise a
    ``ValueError`` that names ``name``, the interval and the value."""
    low_closed, low, high, high_closed = _parse(interval)
    if not ((low <= value if low_closed else low < value)
            and (value <= high if high_closed else value < high)):
        raise ValueError(f"{name} must lie in {interval}, got {value}")
    return value
