"""Process-global metrics: counters, gauges, histograms, sketches.

The registry is the scrape surface the ROADMAP's traffic-serving story
needs: compiled-program cache hits/misses, integrity detections and
retries, the multi-VPU pool's makespan/utilization, SRAM/DRAM byte
traffic, and —
for the serving layer — streaming latency quantiles.  All of it is fed
exclusively through the null-safe verbs of :mod:`repro.obs`
(``count`` / ``gauge`` / ``observe_value``), so a disabled registry
costs the model nothing.

Every observed value feeds two summaries: the exact
min/mean/max :class:`Histogram` (what the reports print) and a
:class:`LogHistogram` quantile sketch.  The sketch uses *fixed*
log-spaced bucket boundaries — a pure function of the value, never of
the data seen so far — which is what makes sketches from different
workers, windows, or hosts mergeable by plain bucket-count addition
(the property SLO burn-rate windows and the snapshot ring rely on).

Metric names are dotted, lower-case, and stable —
``layer.component.what`` — and documented in DESIGN.md's Observability
section.  Snapshots serialize deterministically (sorted keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Histogram:
    """Streaming summary of an observed value (no buckets: the model's
    populations are small and min/mean/max is what the reports print)."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": None,
                    "min": None, "max": None}
        return {"count": self.count, "total": self.total,
                "mean": self.total / self.count,
                "min": self.min, "max": self.max}


class LogHistogram:
    """Streaming quantile sketch over fixed log-spaced buckets.

    Bucket ``i`` covers ``[2^(i/k), 2^((i+1)/k))`` with
    ``k = buckets_per_octave`` (default 8: every bucket spans ~9%, so a
    reported quantile is within ~4.5% of the true value — ample for
    latency SLOs).  Boundaries depend only on the value, so two
    sketches — from different workers, different time windows, or
    different hosts — merge exactly by adding bucket counts
    (:meth:`merge`).  Non-positive values land in a dedicated zero
    bucket (quantiles treat them as 0).

    Storage is a sparse ``dict`` of bucket index -> count; real
    workloads touch a few dozen buckets.
    """

    __slots__ = ("buckets_per_octave", "buckets", "zero_count",
                 "count", "total", "min", "max")

    def __init__(self, buckets_per_octave: int = 8):
        self.buckets_per_octave = buckets_per_octave
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def _index(self, value: float) -> int:
        return math.floor(math.log2(value) * self.buckets_per_octave)

    def _midpoint(self, index: int) -> float:
        return 2.0 ** ((index + 0.5) / self.buckets_per_octave)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this sketch (exact: fixed boundaries)."""
        if other.buckets_per_octave != self.buckets_per_octave:
            raise ValueError(
                f"cannot merge sketches with different resolutions "
                f"({self.buckets_per_octave} vs {other.buckets_per_octave})")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def quantile(self, q: float) -> float | None:
        """Approximate ``q``-quantile (bucket geometric midpoint), or
        None when empty."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * (self.count - 1) + 1  # 1-based target rank
        seen = self.zero_count
        if rank <= seen:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                return self._midpoint(index)
        return self.max  # pragma: no cover - float-rounding backstop

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": None, "min": None,
                    "max": None, "p50": None, "p90": None, "p99": None}
        return {"count": self.count, "total": self.total,
                "mean": self.total / self.count,
                "min": self.min, "max": self.max,
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}


class MetricsRegistry:
    """Named counters (monotonic), gauges (last value), histograms,
    and quantile sketches (one per observed series, same name)."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.sketches: dict[str, LogHistogram] = {}

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = LogHistogram()
        sketch.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def sketch(self, name: str) -> "LogHistogram | None":
        return self.sketches.get(name)

    def zero_gauges(self, prefix: str) -> int:
        """Zero every **existing** gauge whose name starts with
        ``prefix`` (no new gauges are created) and drop matching
        sketch/histogram state; returns how many series were reset.
        Cache-reset paths call this so a snapshot taken after
        ``clear_caches()`` does not report the dropped cache's stale
        hit/miss figures."""
        matched = [name for name in self.gauges if name.startswith(prefix)]
        for name in matched:
            self.gauges[name] = 0
        for store in (self.histograms, self.sketches):
            stale = [name for name in store if name.startswith(prefix)]
            matched.extend(name for name in stale if name not in matched)
            for name in stale:
                del store[name]
        return len(matched)

    def snapshot(self) -> dict:
        """A plain-dict view, deterministic key order."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: hist.to_dict() for name, hist
                           in sorted(self.histograms.items())},
            "sketches": {name: sketch.to_dict() for name, sketch
                         in sorted(self.sketches.items())},
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.sketches.clear()
