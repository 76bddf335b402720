"""Latency histograms with percentile summaries.

The paper's tables report *distill* numbers (averages, rates); what a
runtime engineer actually debugs with are distributions -- a p99 queue
delay 100x the median is invisible in an average.  :class:`Histogram`
keeps the raw samples (runs here are small and deterministic), computes
interpolated percentiles, and renders a compact ASCII bar view.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from ..errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .tracer import Tracer

__all__ = [
    "Histogram",
    "task_duration_histogram",
    "queue_delay_histogram",
    "parcel_latency_histogram",
    "latency_histograms",
]

#: The percentiles every summary reports.
_SUMMARY_PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """A named sample set with percentile summaries."""

    def __init__(self, name: str, unit: str = "s", values: Iterable[float] = ()) -> None:
        self.name = name
        self.unit = unit
        self.values: list[float] = [float(v) for v in values]

    def add(self, value: float) -> None:
        self.values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValidationError(f"percentile {q} outside [0, 100]")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict:
        """JSON-ready summary: count/min/max/mean plus p50/p95/p99."""
        out = {
            "name": self.name,
            "unit": self.unit,
            "count": self.count,
            "min": min(self.values) if self.values else 0.0,
            "max": max(self.values) if self.values else 0.0,
            "mean": self.mean,
        }
        for q in _SUMMARY_PERCENTILES:
            out[f"p{q:g}"] = self.percentile(q)
        return out

    def render(self, bins: int = 10, width: int = 40) -> str:
        """ASCII bar view: ``bins`` equal-width buckets over [min, max]."""
        if bins < 1:
            raise ValidationError("histogram needs at least one bin")
        if not self.values:
            return f"{self.name}: (no samples)"
        lo, hi = min(self.values), max(self.values)
        if hi == lo:
            return f"{self.name}: {self.count} sample(s), all = {lo:.4g}{self.unit}"
        span = hi - lo
        counts = [0] * bins
        for value in self.values:
            index = min(int((value - lo) / span * bins), bins - 1)
            counts[index] += 1
        peak = max(counts)
        lines = [f"{self.name} ({self.count} samples, {self.unit})"]
        for i, count in enumerate(counts):
            left = lo + span * i / bins
            right = lo + span * (i + 1) / bins
            bar = "#" * (round(count / peak * width) if count else 0)
            lines.append(f"  [{left:.3g}, {right:.3g}) {bar} {count}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3e})"


def task_duration_histogram(tracer: "Tracer") -> Histogram:
    """Virtual duration of every traced task."""
    return Histogram(
        "task-duration", values=(r.duration for r in tracer.records)
    )


def queue_delay_histogram(tracer: "Tracer") -> Histogram:
    """Time each traced task spent runnable but not running."""
    return Histogram(
        "queue-delay", values=(r.queue_delay for r in tracer.records)
    )


def parcel_latency_histogram(tracer: "Tracer") -> Histogram:
    """Send-to-arrival virtual latency of every traced parcel."""
    return Histogram(
        "parcel-latency", values=tracer.parcel_latencies().values()
    )


def latency_histograms(tracer: "Tracer") -> dict[str, Histogram]:
    """The standard latency distributions of one traced run."""
    return {
        "task_duration": task_duration_histogram(tracer),
        "queue_delay": queue_delay_histogram(tracer),
        "parcel_latency": parcel_latency_histogram(tracer),
    }
