"""Metric exporters: Prometheus text format and a stable JSON schema.

Both exporters read a :class:`~repro.common.metrics.MetricsRegistry`
snapshot and emit metrics in sorted-name order, so two runs of the same
experiment produce byte-identical artifacts modulo the measured values
— the property
``tests/test_obs_events_export.py::test_metrics_json_artifact_is_stable_across_runs``
holds for the documents CI archives.

The JSON schema is versioned (:data:`METRICS_SCHEMA_VERSION`); any
field rename or semantic change must bump it so downstream consumers
(CI artifact diffing, the benchmark) can detect the break.  Version
history:

* 1 — counters / timers (n, mean, total, p50, p95, max) / histograms.
* 2 — a ``gauges`` section, ``p99`` on every timer, and non-finite
  values serialized as the strings ``"NaN"`` / ``"+Inf"`` / ``"-Inf"``
  (strict JSON has no literal for any of them).
* 3 — ``histograms`` entries carry the timer keys (n, mean, total,
  p50, p95, p99, max) in place of ``count`` / ``total`` / ``buckets``:
  both families are the same log-linear sketch, whose quantiles are
  within 1 % of the nearest-rank sample quantile.
"""

import json
import math
import re
from typing import Optional

from repro.common.metrics import MetricsRegistry

METRICS_SCHEMA_VERSION = 3

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")

#: Sketch summary fields exported to JSON, in schema order.
_TIMER_KEYS = ("n", "mean", "total", "p50", "p95", "p99", "max")

#: ``quantile`` label → snapshot key for the Prometheus summary rows.
_SUMMARY_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _prom_name(name: str, namespace: Optional[str]) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = _PROM_NAME.sub("_", name.replace(".", "_"))
    return f"{namespace}_{flat}" if namespace else flat


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _json_safe(value):
    """Non-finite floats as strings — strict JSON has no literal for
    them, and ``json.dumps`` would otherwise emit invalid output."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    return value


class _TypeLines:
    """Emit each ``# TYPE`` header at most once per exposition.

    Distinct dotted names can sanitize to the same Prometheus
    identifier (``a.b`` and ``a_b`` both become ``a_b``); their sample
    lines all render, but a repeated TYPE header for the same metric
    family is invalid exposition text.
    """

    def __init__(self, lines):
        self._lines = lines
        self._seen = set()

    def declare(self, metric: str, kind: str) -> None:
        if metric not in self._seen:
            self._seen.add(metric)
            self._lines.append(f"# TYPE {metric} {kind}")


def to_prometheus(registry: MetricsRegistry,
                  namespace: Optional[str] = "repro") -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters become ``<name>_total``; gauges keep their name; timers
    (as ``<name>_seconds``) and histograms (unitless, as ``<name>``)
    become summaries with ``quantile`` labels plus ``_sum``/``_count``.
    """
    snapshot = registry.snapshot()
    lines = []
    types = _TypeLines(lines)

    for name in sorted(snapshot["counters"]):
        counter = snapshot["counters"][name]
        metric = _prom_name(name, namespace) + "_total"
        types.declare(metric, "counter")
        lines.append(f"{metric} {_prom_value(counter['count'])}")

    for name in sorted(snapshot.get("gauges", {})):
        gauge = snapshot["gauges"][name]
        metric = _prom_name(name, namespace)
        types.declare(metric, "gauge")
        lines.append(f"{metric} {_prom_value(gauge['value'])}")

    for section, suffix in (("timers", "_seconds"), ("histograms", "")):
        for name in sorted(snapshot[section]):
            sketch = snapshot[section][name]
            metric = _prom_name(name, namespace) + suffix
            types.declare(metric, "summary")
            for label, key in _SUMMARY_QUANTILES:
                lines.append(f'{metric}{{quantile="{label}"}} '
                             f'{_prom_value(sketch[key])}')
            lines.append(f"{metric}_sum {_prom_value(sketch['total'])}")
            lines.append(f"{metric}_count {_prom_value(sketch['n'])}")

    return "\n".join(lines) + "\n"


def metrics_to_json(registry: MetricsRegistry) -> dict:
    """A stable, versioned JSON document for one registry.

    Layout::

        {"schema_version": 3,
         "counters":   {name: {"count": int, "total": float}},
         "gauges":     {name: {"value": float}},
         "timers":     {name: {"n", "mean", "total",
                               "p50", "p95", "p99", "max"}},
         "histograms": {name: <the timer keys>}}

    Names are sorted; any non-finite value serializes as the strings
    ``"+Inf"`` / ``"-Inf"`` / ``"NaN"`` (JSON has no literals for them).
    """
    snapshot = registry.snapshot()
    counters = {
        name: {"count": c["count"], "total": _json_safe(c["total"])}
        for name, c in snapshot["counters"].items()
    }
    gauges = {
        name: {"value": _json_safe(g["value"])}
        for name, g in snapshot.get("gauges", {}).items()
    }
    timers, histograms = (
        {name: {key: _json_safe(t[key]) for key in _TIMER_KEYS}
         for name, t in snapshot[section].items()}
        for section in ("timers", "histograms")
    )
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": counters,
        "gauges": gauges,
        "timers": timers,
        "histograms": histograms,
    }


def write_metrics_json(registry: MetricsRegistry, path: str) -> dict:
    """Serialize :func:`metrics_to_json` to ``path``; returns the doc."""
    document = metrics_to_json(registry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document
