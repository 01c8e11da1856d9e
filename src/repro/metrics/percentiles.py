"""Percentile estimation (linear interpolation, numpy-free)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

# The percentile labels the paper reports throughout (Fig 4, Tables 1/4).
STANDARD_LABELS: Tuple[Tuple[str, float], ...] = (
    ("avg", -1.0),  # sentinel: arithmetic mean
    ("P50", 50.0),
    ("P90", 90.0),
    ("P99", 99.0),
    ("P999", 99.9),
    ("P9999", 99.99),
)


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """The q-th percentile of already-sorted data (the core interpolation)."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    value = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
    # Clamp: float interpolation of near-equal neighbours can land a hair
    # outside [lo, hi].
    return min(max(value, ordered[lo]), ordered[hi])


def percentile(data: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear interpolation between ranks."""
    if not data:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q out of range: {q}")
    return _percentile_of_sorted(sorted(data), q)


def percentile_summary(data: Sequence[float]) -> Dict[str, float]:
    """avg/P50/P90/P99/P999/P9999 — the paper's standard row.

    Sorts once and serves every percentile label from the same ordered
    copy (the mean still sums the data in its original order, so results
    are bit-identical to per-label ``percentile`` calls).
    """
    summary: Dict[str, float] = {}
    ordered: List[float] = sorted(data) if data else []
    for label, q in STANDARD_LABELS:
        if q < 0:
            summary[label] = sum(data) / len(data) if data else 0.0
        else:
            summary[label] = _percentile_of_sorted(ordered, q) if data else 0.0
    return summary

