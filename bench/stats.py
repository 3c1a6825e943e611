"""Percentiles of job wall times and how many samples lie beyond one.

A tail percentile is trusted only with at least ten samples beyond it."""

from __future__ import annotations

import math


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ranked = sorted(values)
    return ranked[max(1, math.ceil(p / 100 * len(ranked))) - 1]


def samples_beyond(n, p):
    """How many of ``n`` samples lie above the nearest-rank ``p`` percentile."""
    return n - max(1, math.ceil(p / 100 * n))

