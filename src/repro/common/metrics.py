"""A small metrics registry.

Benchmarks and protocol simulations record counters (messages sent,
bytes on the wire, constraint checks), timers, and histograms.  The
registry is explicit — components receive one rather than writing to a
global — so parallel experiments never interfere.

Snapshots are emitted with sorted keys so JSON artifacts written from
two runs of the same experiment diff cleanly (see
:mod:`repro.obs.export` for the Prometheus/JSON exporters).
"""

import math
import statistics
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.common.clock import WallClock


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over ``samples``: the smallest sample
    such that at least ``pct`` percent of samples are <= it (so p50 of
    ``[1, 2, 3, 4]`` is 2, not 3), and 0.0 for an empty sequence.

    This is the one percentile definition the codebase uses —
    :meth:`Timer.percentile`, the consensus cluster stats, and the
    benchmark reports all delegate here, so latency quantiles are
    comparable across every artifact.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class Counter:
    """A monotonically increasing count with an optional value sum."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, value: float = 1.0) -> None:
        self.count += 1
        self.total += value

    def to_dict(self) -> dict:
        return {"name": self.name, "count": self.count, "total": self.total}


class Gauge:
    """A point-in-time value that can move both ways (queue depths,
    committed lag, pool sizes) — unlike :class:`Counter`, ``set`` is
    the primary write and the latest value is the whole story."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, delta: float = 1.0) -> None:
        """Move the current value by ``delta`` (may be negative)."""
        self.value += delta

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value}


class Timer:
    """Collects durations; reports mean / p50 / p95 / p99 / max."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)
        self.total += seconds

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples) if self.samples else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile: the smallest sample such that at
        least ``pct`` percent of samples are <= it (so p50 of
        ``[1, 2, 3, 4]`` is 2, not 3)."""
        return nearest_rank(self.samples, pct)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": len(self.samples),
            "mean": self.mean,
            "total": self.total,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self.samples) if self.samples else 0.0,
        }

    def summary(self) -> dict:
        """Alias for :meth:`to_dict` — the reporting-side name."""
        return self.to_dict()


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    Each bucket counts observations ``<= upper_bound``; an implicit
    ``+inf`` bucket catches the rest, so ``counts[-1] == count``.
    Default buckets suit sub-second latencies in seconds.
    """

    DEFAULT_BUCKETS = (
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    )

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        bounds = tuple(sorted(buckets if buckets is not None
                              else self.DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # One slot per finite bound plus the +inf overflow slot.
        self._bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[i] += 1
                return
        self._bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[tuple]:
        """``[(upper_bound, cumulative_count), ...]`` ending at +inf."""
        out = []
        running = 0
        for bound, n in zip(self.bounds, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "buckets": [
                {"le": bound, "count": n}
                for bound, n in self.cumulative_buckets()
            ],
        }


class MetricsRegistry:
    """Holds named counters, gauges, timers, and histograms for one run."""

    def __init__(self, clock=None):
        self._clock = clock or WallClock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def timer(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, buckets)
        return self._histograms[name]

    def counter_value(self, name: str) -> int:
        """Current count for ``name`` without creating the counter —
        the read-side accessor for reporting code, so reads never
        pollute snapshots with zero-valued entries."""
        counter = self._counters.get(name)
        return counter.count if counter is not None else 0

    def counter_total(self, name: str) -> float:
        """Summed value for ``name`` (0.0 when it never fired) — the
        read-side accessor for value-carrying counters like byte
        counts, where ``count`` is just the number of ``add`` calls."""
        counter = self._counters.get(name)
        return counter.total if counter is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value for gauge ``name`` without creating it (0.0
        when it was never set) — the read-side accessor."""
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else 0.0

    def timer_total(self, name: str) -> float:
        """Total recorded seconds for ``name`` without creating the
        timer (0.0 when it never fired) — the read-side accessor."""
        timer = self._timers.get(name)
        return timer.total if timer is not None else 0.0

    @contextmanager
    def timed(self, name: str):
        """Context manager recording wall time into ``timer(name)``."""
        start = self._clock.now()
        try:
            yield
        finally:
            self.timer(name).record(self._clock.now() - start)

    def snapshot(self) -> dict:
        # Sorted keys: snapshots feed JSON artifacts that should diff
        # cleanly run-to-run regardless of registration order.
        return {
            "counters": {n: self._counters[n].to_dict()
                         for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].to_dict()
                       for n in sorted(self._gauges)},
            "timers": {n: self._timers[n].to_dict()
                       for n in sorted(self._timers)},
            "histograms": {n: self._histograms[n].to_dict()
                           for n in sorted(self._histograms)},
        }

    def throughput_report(
        self,
        updates_counter: str = "pipeline.updates",
        stage_prefix: str = "pipeline.stage.",
    ) -> dict:
        """Summarize the instrumented pipeline: per-stage totals plus
        end-to-end updates/sec, for batched-vs-sequential comparisons.

        Each stage's ``per_sec`` is computed from that stage's own
        recorded wall time (``n / total``), *not* from the summed
        elapsed across stages: under the parallel executor stages
        overlap batch-prepared work, so dividing by the sum would
        understate every stage's true rate.  ``updates_per_sec``
        remains the conservative end-to-end figure over summed stage
        time (an overlap-free lower bound).
        """
        updates = self._counters.get(updates_counter)
        count = updates.count if updates is not None else 0
        stages = {}
        total_seconds = 0.0
        for name in sorted(self._timers):
            timer = self._timers[name]
            if not name.startswith(stage_prefix):
                continue
            stage = name[len(stage_prefix):]
            n = len(timer.samples)
            stages[stage] = {
                "n": n,
                "mean": timer.mean,
                "total": timer.total,
                "p50": timer.percentile(50),
                "p95": timer.percentile(95),
                "p99": timer.percentile(99),
                "per_sec": (n / timer.total) if timer.total else 0.0,
            }
            total_seconds += timer.total
        return {
            "updates": count,
            "stages": stages,
            "total_seconds": total_seconds,
            "updates_per_sec": (count / total_seconds) if total_seconds else 0.0,
        }
