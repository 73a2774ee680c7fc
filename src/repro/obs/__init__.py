"""Observability: tracing, events, exporters, aggregation, ops server.

The pipeline (``repro.core.framework``), the simulated network, both
consensus protocols, the ledger, and the crypto hot paths all accept a
:class:`~repro.obs.tracing.Tracer`.  The default is the shared no-op
tracer :data:`NOOP_TRACER`, which costs one attribute check on the hot
path, so instrumented code runs at full speed unless a recording tracer
is attached.

* :mod:`repro.obs.tracing` — trace/span IDs (deterministic, counter
  based), nested spans with attributes/events/status;
* :mod:`repro.obs.events` — a structured JSONL event log that doubles
  as a span sink, correlating spans, constraint verdicts, rejections,
  and ledger anchors by ``trace_id``;
* :mod:`repro.obs.export` — Prometheus text format and a stable JSON
  schema for :class:`~repro.common.metrics.MetricsRegistry`;
* :mod:`repro.obs.aggregate` — picklable :class:`TelemetryDelta`
  snapshots merging worker-process and shard-child telemetry into the
  coordinator registry;
* :mod:`repro.obs.server` — the live ops endpoint (``/metrics``,
  ``/metrics.json``, ``/healthz``, ``/readyz``, ``/trace/<id>``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.aggregate import (
        DeltaTracker,
        TelemetryDelta,
        merge_delta,
        worker_metrics,
    )
    from repro.obs.events import EventLog
    from repro.obs.export import (
        METRICS_SCHEMA_VERSION,
        metrics_to_json,
        to_prometheus,
        write_metrics_json,
    )
    from repro.obs.server import OpsServer, start_ops_server
    from repro.obs.tracing import NOOP_TRACER, NullTracer, Span, Tracer

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.aggregate": (
        "DeltaTracker", "TelemetryDelta", "merge_delta", "worker_metrics",
    ),
    "repro.obs.events": ("EventLog",),
    "repro.obs.export": (
        "METRICS_SCHEMA_VERSION", "metrics_to_json", "to_prometheus",
        "write_metrics_json",
    ),
    "repro.obs.server": ("OpsServer", "start_ops_server"),
    "repro.obs.tracing": ("NOOP_TRACER", "NullTracer", "Span", "Tracer"),
})

__all__ = [
    "DeltaTracker",
    "EventLog",
    "METRICS_SCHEMA_VERSION",
    "NOOP_TRACER",
    "NullTracer",
    "OpsServer",
    "Span",
    "TelemetryDelta",
    "Tracer",
    "merge_delta",
    "metrics_to_json",
    "start_ops_server",
    "to_prometheus",
    "worker_metrics",
    "write_metrics_json",
]
