"""A small metrics registry.

Benchmarks and protocol simulations record counters (messages sent,
bytes on the wire, constraint checks), gauges, and latency sketches.  The
registry is explicit — components receive one rather than writing to a
global — so parallel experiments never interfere.

Snapshots are emitted with sorted keys so JSON artifacts written from
two runs of the same experiment diff cleanly (see
:mod:`repro.obs.export` for the Prometheus/JSON exporters).
"""

import math
from contextlib import contextmanager
from typing import Dict, List, Sequence

from repro.common.clock import WallClock


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over ``samples``: the smallest sample
    such that at least ``pct`` percent of samples are <= it (so p50 of
    ``[1, 2, 3, 4]`` is 2, not 3), and 0.0 for an empty sequence.

    The exact reference :meth:`Timer.percentile` approximates (the
    tests hold it to 1 % of this), and the statistic the consensus
    cluster stats compute over their own latency list.
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


#: The one bucket for values <= 0; below every ``frexp`` exponent * 64.
_ZERO_KEY = -1 << 20


class Timer:
    """A bounded, mergeable log-linear latency sketch (HDR-style).

    ``count``, ``total``, ``min`` and ``max`` are exact; each value
    also lands in a bucket keyed by its ``math.frexp`` exponent and a
    64-way mantissa sub-bucket (values <= 0 share one zero bucket), so
    memory grows with the spread of values, never with their number.
    A bucket spans 1/128 of its power of two: its midpoint is within
    0.8 % of any value it holds.
    :meth:`percentile` is nearest-rank over the buckets: within 1 %
    of :func:`nearest_rank` over the raw samples, and exact at p0
    (``min``), p100 (``max``) and for a single sample.
    """

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        # The bucket goes last: a reader that sees it sees min and max.
        if seconds > 0.0:
            mantissa, exponent = math.frexp(seconds)
            key = exponent * 64 + int((mantissa - 0.5) * 128)
        else:
            key = _ZERO_KEY
        buckets = self.buckets
        buckets[key] = buckets.get(key, 0) + 1

    def merge(self, count: int, total: float, low: float, high: float,
              buckets: Dict[int, int]) -> None:
        """Fold in another sketch's ``state()`` (or a diff of two)."""
        self.count += count
        self.total += total
        self.min = min(self.min, low)
        self.max = max(self.max, high)
        mine = self.buckets
        for key, n in buckets.items():
            mine[key] = mine.get(key, 0) + n

    def state(self) -> tuple:
        """``(count, total, min, max, buckets)``, counted from one
        bucket copy so the two agree while another thread records."""
        buckets = self.buckets.copy()
        return (sum(buckets.values()), self.total, self.min, self.max,
                buckets)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        return self.quantiles(pct)[0]

    def quantiles(self, *pcts: float) -> List[float]:
        """Nearest-rank percentiles for each of ``pcts`` in one pass
        over the sorted buckets: the midpoint of the bucket holding the
        rank, clamped to ``[min, max]``; 0.0 when empty."""
        # Sort a copy: a dict copy is one C call that a concurrent
        # record cannot interleave with, while iterating is not.
        items = sorted(self.buckets.copy().items())
        n = sum(count for _, count in items)
        out = []
        for pct in pcts:
            if not n:
                out.append(0.0)
            elif pct <= 0:
                out.append(self.min)
            elif pct >= 100:
                out.append(self.max)
            else:
                rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
                seen = 0
                for key, count in items:
                    seen += count
                    if seen >= rank:
                        break
                mid = 0.0 if key == _ZERO_KEY else math.ldexp(
                    0.5 + (key % 64 + 0.5) / 128, key // 64)
                out.append(min(self.max, max(self.min, mid)))
        return out

    def to_dict(self) -> dict:
        p50, p95, p99 = self.quantiles(50, 95, 99)
        return {
            "name": self.name,
            "n": self.count,
            "mean": self.mean,
            "total": self.total,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """Holds named counters, gauges, timers, and histograms for one run.

    Timers and histograms are the same :class:`Timer` sketch; the two
    families differ only in name — a histogram holds unitless values
    (batch sizes), so its export carries no ``_seconds`` suffix.
    """

    def __init__(self, clock=None):
        self._clock = clock or WallClock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Timer] = {}

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

    def histogram(self, name: str) -> Timer:
        if name not in self._histograms:
            self._histograms[name] = Timer(name)
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
            p50, p95, p99 = timer.quantiles(50, 95, 99)
            stages[stage] = {
                "n": timer.count,
                "mean": timer.mean,
                "total": timer.total,
                "p50": p50,
                "p95": p95,
                "p99": p99,
                "per_sec": (timer.count / timer.total) if timer.total else 0.0,
            }
            total_seconds += timer.total
        return {
            "updates": count,
            "stages": stages,
            "total_seconds": total_seconds,
            "updates_per_sec": (count / total_seconds) if total_seconds else 0.0,
        }
