"""Cross-registry telemetry aggregation.

:class:`~repro.parallel.executors.ParallelExecutor` workers count and
time in their own process, and every shard of a
:class:`~repro.core.sharded.ShardedPReVer` in its own framework's
registry; the coordinator's registry would only ever see
coordinator-side work.  This module closes the gap with three
picklable pieces:

* :class:`TelemetryDelta` — a serializable increment of one registry's
  counters / gauges / timer and histogram sketches plus any finished
  span dicts, cheap enough to ride back alongside results;
* :class:`DeltaTracker` — computes successive deltas against a live
  registry (and optionally a recording tracer), so long-lived workers
  ship only what happened since the last capture;
* :func:`merge_delta` — folds a delta into a coordinator registry under
  a per-worker / per-shard label prefix, surfacing worker-side spans as
  ``<label>.span.<name>`` timers so they show up in ``/metrics``.

:func:`instrumented_chunk` is the pool-side entry point: a top-level
(hence picklable) wrapper the parallel executor submits instead of the
raw chunk function when a metrics registry is bound.  It runs the chunk
against the module-level worker registry (:func:`worker_metrics`),
records chunk/item counters and a chunk timer, and returns
``(results, delta, pid)``.
"""

import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro.common.metrics import MetricsRegistry


#: A sketch's plain-data form, :meth:`~repro.common.metrics.Timer.state`:
#: ``(count, total, min, max, {bucket key: count})``.
SketchState = Tuple[int, float, float, float, Dict[int, int]]


@dataclass
class TelemetryDelta:
    """One registry's increment since the previous capture.

    Everything in here is plain picklable data: counter ``(count,
    total)`` pairs, gauge values, per-sketch :data:`SketchState` diffs
    for timers and histograms (count, total and the bucket counts that
    moved, with the source's running ``min`` / ``max``), and
    finished-span dicts.  A merged sketch therefore reads the same
    percentiles, within the sketch's 1 % bound, as one that saw every
    sample itself.
    """

    counters: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, SketchState] = field(default_factory=dict)
    histograms: Dict[str, SketchState] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def empty(self) -> bool:
        """True when nothing moved since the previous capture."""
        return not (self.counters or self.gauges or self.timers
                    or self.histograms or self.spans)


_EMPTY: SketchState = (0, 0.0, math.inf, -math.inf, {})


def _sketch_deltas(sketches: dict, seen: Dict[str, SketchState],
                   out: Dict[str, SketchState]) -> None:
    """Diff every sketch in ``sketches`` against ``seen`` into ``out``,
    advancing ``seen`` to what was shipped.  A sketch whose count has
    not moved keeps its old baseline, so a record in flight during the
    read is shipped whole by a later capture."""
    for name, sketch in sketches.copy().items():
        now = sketch.state()
        then = seen.get(name, _EMPTY)
        if now[0] != then[0]:
            count, total, low, high, buckets = now
            before = then[4]
            out[name] = (count - then[0], total - then[1], low, high,
                         {key: n - before.get(key, 0)
                          for key, n in buckets.items()
                          if n != before.get(key, 0)})
            seen[name] = now


class DeltaTracker:
    """Computes successive :class:`TelemetryDelta`\\ s for a registry.

    ``origin=True`` baselines at zero, so the first capture returns
    everything the registry has ever recorded — what a long-lived shard
    wants.  ``origin=False`` baselines at the registry's current state,
    so a capture covers exactly the activity since construction — what
    a per-call chunk wrapper wants.  Either way, every capture advances
    the baseline to the values it read, so repeated captures never
    double-count, even while another thread records.
    """

    def __init__(self, registry: MetricsRegistry, tracer=None,
                 origin: bool = False):
        self.registry = registry
        self.tracer = tracer
        self._counters: Dict[str, Tuple[int, float]] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, SketchState] = {}
        self._histograms: Dict[str, SketchState] = {}
        self._span_count = 0
        if not origin:
            self._span_count = len(getattr(tracer, "finished_spans", ()))
            self.capture()

    def capture(self) -> TelemetryDelta:
        """The increment since the last capture (or the baseline)."""
        registry = self.registry
        delta = TelemetryDelta()
        for name, counter in registry._counters.copy().items():
            now = (counter.count, counter.total)
            seen = self._counters.get(name, (0, 0.0))
            if now != seen:
                delta.counters[name] = (now[0] - seen[0], now[1] - seen[1])
                self._counters[name] = now
        for name, gauge in registry._gauges.copy().items():
            if gauge.value != self._gauges.get(name, 0.0):
                delta.gauges[name] = self._gauges[name] = gauge.value
        _sketch_deltas(registry._timers, self._timers, delta.timers)
        _sketch_deltas(registry._histograms, self._histograms,
                       delta.histograms)
        if self.tracer is not None:
            finished = getattr(self.tracer, "finished_spans", ())
            count = len(finished)
            if count > self._span_count:
                delta.spans = [span.to_dict()
                               for span in finished[self._span_count:count]]
                self._span_count = count
        return delta


def merge_delta(registry: MetricsRegistry, delta: TelemetryDelta,
                prefix: str = "") -> None:
    """Fold one delta into ``registry`` under a label prefix.

    ``prefix`` is typically ``worker.w0`` or ``shard.accounts``; every
    merged metric lands at ``<prefix>.<name>``.  Counter counts/totals
    add, timer and histogram sketches add bucket-wise, gauges take the
    worker's latest value, and spans surface as one
    ``<prefix>.span.<name>`` timer sample each.
    """
    label = f"{prefix}." if prefix and not prefix.endswith(".") else prefix
    for name, (count, total) in delta.counters.items():
        counter = registry.counter(label + name)
        counter.count += count
        counter.total += total
    for name, value in delta.gauges.items():
        registry.gauge(label + name).set(value)
    for name, state in delta.timers.items():
        registry.timer(label + name).merge(*state)
    for name, state in delta.histograms.items():
        registry.histogram(label + name).merge(*state)
    for span in delta.spans:
        name = span.get("name") or "span"
        duration = span.get("duration") or 0.0
        registry.timer(f"{label}span.{name}").record(duration)


# -- worker-process side ----------------------------------------------------

#: One registry per worker process: chunk wrappers (and any chunk
#: function that wants to record worker-side telemetry) write here, and
#: deltas of it ride back to the coordinator with the results.
_WORKER_METRICS = MetricsRegistry()


def worker_metrics() -> MetricsRegistry:
    """The calling process's worker-side registry (coordinator-merged
    whenever a telemetry-collecting executor ran the current chunk)."""
    return _WORKER_METRICS


def instrumented_chunk(fn, chunk) -> tuple:
    """(worker) Run ``fn(chunk)`` and capture its telemetry delta.

    Top-level so it pickles into pool workers.  Records the chunk's
    wall time plus chunk/item counters into :func:`worker_metrics`,
    then returns ``(results, delta, pid)`` — the delta covering
    exactly this call, the pid letting the coordinator assign a stable
    per-worker label.
    """
    registry = _WORKER_METRICS
    tracker = DeltaTracker(registry)
    start = perf_counter()
    out = list(fn(chunk))
    elapsed = perf_counter() - start
    registry.counter("parallel.worker.chunks").add()
    registry.counter("parallel.worker.items").add(len(chunk))
    registry.timer("parallel.worker.chunk_seconds").record(elapsed)
    return out, tracker.capture(), os.getpid()
