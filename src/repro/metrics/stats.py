"""Small statistics helpers shared by the metrics pipeline."""

from __future__ import annotations

import math

import numpy as np

# Up to this many values a sorted list beats np.percentile's fixed
# per-call cost (about 70 µs), which the fleet pays on every refreshed
# TBT window.
_SMALL_SAMPLE = 256


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of a non-empty sample.

    Equal, bit for bit, to ``np.percentile`` with its default "linear"
    method: small samples replay its index, gamma and lerp arithmetic
    in plain Python.
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(values)
    if n > _SMALL_SAMPLE:
        return float(np.percentile(values, q))
    ordered = sorted(values)
    total = sum(ordered)
    if total != total:  # a NaN: numpy's NaN handling decides
        return float(np.percentile(values, q))
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        # numpy reads both neighbours at index -1 and measures gamma
        # from there.
        lo = hi = n - 1
        gamma = virtual + 1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        gamma = virtual - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    if gamma >= 0.5:
        return float(b - diff * (1 - gamma))
    return float(a + diff * gamma)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def p90(values: list[float]) -> float:
    return percentile(values, 90.0)


def p99(values: list[float]) -> float:
    return percentile(values, 99.0)


def mean(values: list[float]) -> float:
    if not values:
        raise ValueError("cannot take the mean of an empty sample")
    return float(np.mean(values))


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), in (0, 1].

    1.0 means everyone got the same value; 1/n means one party got
    everything.  Used here on per-request latencies, where a high index
    means the latency burden is evenly spread rather than concentrated
    on a starved few.
    """
    if not values:
        raise ValueError("cannot take a fairness index of an empty sample")
    arr = np.asarray(values, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("fairness values must be non-negative")
    denom = float(len(arr) * np.sum(arr * arr))
    if denom == 0.0:
        return 1.0  # all-zero sample: perfectly equal
    return float(np.sum(arr)) ** 2 / denom
