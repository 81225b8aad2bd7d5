"""Percentiles, sample-count rules and failure counting for the benchmark."""

from __future__ import annotations

import math

# A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def min_samples(percentile: float) -> int:
    """Smallest sample count whose `percentile` has TAIL_SAMPLES beyond it."""
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {percentile}")
    return math.ceil(TAIL_SAMPLES * 100 / (100 - percentile) - 1e-9)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% at or below it.

    Raises ValueError when fewer than TAIL_SAMPLES values lie beyond it,
    so a reported p90 always rests on a tail of ten or more samples.
    """
    n = len(values)
    need = min_samples(pct)
    if n < need:
        raise ValueError(
            f"p{pct:g} needs at least {need} samples, got {n}"
        )
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * n - 1e-9)
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class Outcomes:
    """Attempted and failed access counts; a failure is an exception,
    a watchdog timeout or a byte mismatch, each access counted once."""

    def __init__(self):
        self.attempted = 0
        self._failed: set = set()
        self.reasons: list[str] = []

    def attempt(self) -> int:
        """Register one access attempt and return its id."""
        self.attempted += 1
        return self.attempted

    def fail(self, access_id: int, reason: str) -> None:
        if not 1 <= access_id <= self.attempted:
            raise ValueError(f"unknown access id {access_id}")
        if access_id not in self._failed:
            self._failed.add(access_id)
            self.reasons.append(f"access {access_id}: {reason}")

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
