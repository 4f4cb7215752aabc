"""Percentile and summary math for the benchmark's reported figures."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The smallest sample such that at least ``q`` percent of the samples
    are less than or equal to it, so the result is always a measured
    value, never an interpolation between two.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    return max(1, math.ceil(q / 100.0 * count - 1e-9))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q``-th rank."""
    return count - rank(count, q) if count else 0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0
