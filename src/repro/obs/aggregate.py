"""Cross-registry telemetry aggregation.

:class:`~repro.parallel.executors.ParallelExecutor` workers count and
time in their own process, and every shard of a
:class:`~repro.core.sharded.ShardedPReVer` in its own framework's
registry; the coordinator's registry would only ever see
coordinator-side work.  This module closes the gap with three
picklable pieces:

* :class:`TelemetryDelta` — a serializable increment of one registry's
  counters / gauges / timers / histograms plus any finished span dicts,
  cheap enough to ride back alongside results;
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

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Tuple

from repro.common.metrics import MetricsRegistry


@dataclass
class TelemetryDelta:
    """One registry's increment since the previous capture.

    Everything in here is plain picklable data: counter ``(count,
    total)`` pairs, gauge values, the *new* timer samples (samples, not
    summaries, so coordinator-side percentiles stay exact after a
    merge), histogram bucket increments, and finished-span dicts.
    """

    counters: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, List[float]] = field(default_factory=dict)
    histograms: Dict[str, dict] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)

    def empty(self) -> bool:
        """True when nothing moved since the previous capture."""
        return not (self.counters or self.gauges or self.timers
                    or self.histograms or self.spans)


class DeltaTracker:
    """Computes successive :class:`TelemetryDelta`\\ s for a registry.

    ``origin=True`` baselines at zero, so the first capture returns
    everything the registry has ever recorded — what a long-lived shard
    wants.  ``origin=False`` baselines at the registry's current state,
    so a capture covers exactly the activity since construction — what
    a per-call chunk wrapper wants.  Either way, every capture advances
    the baseline, so repeated captures never double-count.
    """

    def __init__(self, registry: MetricsRegistry, tracer=None,
                 origin: bool = False):
        self.registry = registry
        self.tracer = tracer
        self._counters: Dict[str, Tuple[int, float]] = {}
        self._gauges: Dict[str, float] = {}
        self._timer_counts: Dict[str, int] = {}
        self._hist_counts: Dict[str, List[int]] = {}
        self._hist_totals: Dict[str, float] = {}
        self._span_count = 0
        if not origin:
            self._rebase()

    def _rebase(self) -> None:
        registry = self.registry
        self._counters = {n: (c.count, c.total)
                         for n, c in registry._counters.items()}
        self._gauges = {n: g.value for n, g in registry._gauges.items()}
        self._timer_counts = {n: len(t.samples)
                              for n, t in registry._timers.items()}
        self._hist_counts = {n: list(h._bucket_counts)
                             for n, h in registry._histograms.items()}
        self._hist_totals = {n: h.total
                             for n, h in registry._histograms.items()}
        if self.tracer is not None:
            self._span_count = len(
                getattr(self.tracer, "finished_spans", ())
            )

    def capture(self) -> TelemetryDelta:
        """The increment since the last capture (or the baseline)."""
        registry = self.registry
        delta = TelemetryDelta()
        for name, counter in registry._counters.items():
            seen_count, seen_total = self._counters.get(name, (0, 0.0))
            if counter.count != seen_count or counter.total != seen_total:
                delta.counters[name] = (counter.count - seen_count,
                                        counter.total - seen_total)
        for name, gauge in registry._gauges.items():
            if gauge.value != self._gauges.get(name, 0.0):
                delta.gauges[name] = gauge.value
        for name, timer in registry._timers.items():
            seen = self._timer_counts.get(name, 0)
            if len(timer.samples) > seen:
                delta.timers[name] = list(timer.samples[seen:])
        for name, hist in registry._histograms.items():
            seen_buckets = self._hist_counts.get(
                name, [0] * len(hist._bucket_counts)
            )
            if hist._bucket_counts != seen_buckets:
                delta.histograms[name] = {
                    "bounds": list(hist.bounds),
                    "counts": [now - then for now, then
                               in zip(hist._bucket_counts, seen_buckets)],
                    "count": sum(hist._bucket_counts) - sum(seen_buckets),
                    "total": hist.total - self._hist_totals.get(name, 0.0),
                }
        if self.tracer is not None:
            finished = getattr(self.tracer, "finished_spans", ())
            if len(finished) > self._span_count:
                delta.spans = [span.to_dict()
                               for span in finished[self._span_count:]]
        self._rebase()
        return delta


def merge_delta(registry: MetricsRegistry, delta: TelemetryDelta,
                prefix: str = "") -> None:
    """Fold one delta into ``registry`` under a label prefix.

    ``prefix`` is typically ``worker.w0`` or ``shard.accounts``; every
    merged metric lands at ``<prefix>.<name>``.  Counter counts/totals
    add, timer samples extend (percentiles stay exact), histogram
    buckets add bucket-wise, gauges take the worker's latest value, and
    spans surface as one ``<prefix>.span.<name>`` timer sample each.
    """
    label = f"{prefix}." if prefix and not prefix.endswith(".") else prefix
    for name, (count, total) in delta.counters.items():
        counter = registry.counter(label + name)
        counter.count += count
        counter.total += total
    for name, value in delta.gauges.items():
        registry.gauge(label + name).set(value)
    for name, samples in delta.timers.items():
        timer = registry.timer(label + name)
        for sample in samples:
            timer.record(sample)
    for name, hist_delta in delta.histograms.items():
        hist = registry.histogram(label + name,
                                  buckets=hist_delta["bounds"])
        for index, count in enumerate(hist_delta["counts"]):
            hist._bucket_counts[index] += count
        hist.count += hist_delta["count"]
        hist.total += hist_delta["total"]
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
