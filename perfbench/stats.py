"""Summary statistics and output-name rules shared by the benchmark.

Nothing here imports ``repro``: the parent process and the unit tests
use it without the simulator on the path.
"""

from __future__ import annotations

import math
import re
import statistics

#: metric names: a letter or digit first, then at most 63 of [A-Za-z0-9_.-]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: units: at most 16 of [A-Za-z0-9_/%.-]
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: samples that must lie strictly beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid unit, else raise ValueError."""
    if not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Returns ``(p, value)`` where ``value`` is the ``p``-th percentile by
    the nearest-rank rule (the ``ceil(p/100 * n)``-th smallest sample)
    and at least :data:`TAIL_MIN_BEYOND` samples rank above it.  Returns
    ``None`` when no percentile from 50 up has that support, i.e. there
    are too few samples to say anything about a tail.
    """
    n = len(values)
    ordered = sorted(values)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, float(ordered[rank - 1])
    return None


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (0 when nothing ran)."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted if attempted else 0.0
