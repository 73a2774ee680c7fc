"""The structured event log and the metric exporters."""

import json

import pytest

from repro.common.metrics import MetricsRegistry, Timer, nearest_rank
from repro.obs.events import EventLog
from repro.obs.export import (
    METRICS_SCHEMA_VERSION,
    metrics_to_json,
    to_prometheus,
    write_metrics_json,
)


# -- event log ------------------------------------------------------------


def test_event_log_records_and_queries():
    log = EventLog()
    log.emit("rejection", timestamp=1.0, trace_id="t-1", reason="cap")
    log.emit("ledger_anchor", timestamp=2.0, trace_id="t-1", sequence=0)
    log.emit("ledger_anchor", timestamp=3.0, trace_id="t-2", sequence=1)
    assert len(log) == 3
    assert [e["seq"] for e in log.events()] == [0, 1, 2]
    assert log.kinds() == ["ledger_anchor", "rejection"]
    assert [e["kind"] for e in log.for_trace("t-1")] == [
        "rejection", "ledger_anchor",
    ]
    assert log.trace_ids() == ["t-1", "t-2"]


def test_event_log_jsonl_roundtrip(tmp_path):
    log = EventLog()
    log.emit("anchor", timestamp=1.5, digest=b"\x00\xff", sequence=7)
    path = tmp_path / "events.jsonl"
    assert log.write(str(path)) == 1
    records = EventLog.read_jsonl(str(path))
    assert records[0]["kind"] == "anchor"
    assert records[0]["digest"] == "00ff"  # bytes serialized as hex
    rebuilt = EventLog.from_records(records)
    assert rebuilt.events("anchor")[0]["sequence"] == 7


def test_event_log_jsonl_is_one_object_per_line():
    log = EventLog()
    for i in range(3):
        log.emit("tick", timestamp=float(i))
    lines = log.to_jsonl().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["kind"] == "tick" for line in lines)


# -- histograms (the unitless timer family) -------------------------------


def test_histogram_via_registry_and_snapshot():
    metrics = MetricsRegistry()
    histogram = metrics.histogram("h")
    assert metrics.histogram("h") is histogram
    assert type(histogram) is Timer  # one distribution type
    for value in (0.05, 0.5, 0.7, 5.0):
        histogram.record(value)
    assert histogram.count == 4
    assert histogram.total == 6.25
    snap = metrics.snapshot()
    assert snap["histograms"]["h"]["n"] == 4
    assert snap["histograms"]["h"]["max"] == 5.0
    assert "h" not in snap["timers"]


def test_counter_value_reads_without_creating():
    metrics = MetricsRegistry()
    assert metrics.counter_value("never.touched") == 0
    assert "never.touched" not in metrics.snapshot()["counters"]
    metrics.counter("hits").add()
    assert metrics.counter_value("hits") == 1


# -- satellite regressions: percentile + sorted snapshots -----------------


def test_percentile_nearest_rank_regression():
    timer = MetricsRegistry().timer("t")
    samples = (1.0, 2.0, 3.0, 4.0)
    for value in samples:
        timer.record(value)
    assert timer.percentile(50) == pytest.approx(2.0, rel=0.01)  # not 3.0
    for pct in (25, 50, 75):
        assert timer.percentile(pct) == pytest.approx(
            nearest_rank(samples, pct), rel=0.01)
    assert timer.percentile(100) == 4.0
    assert timer.percentile(0) == 1.0
    assert (timer.count, timer.total, timer.min, timer.max) == (4, 10.0, 1.0, 4.0)


def test_snapshot_keys_are_sorted():
    metrics = MetricsRegistry()
    for name in ("zulu", "alpha", "mike"):
        metrics.counter(name).add()
        metrics.timer(name).record(0.1)
        metrics.histogram(name).record(0.1)
    snap = metrics.snapshot()
    for section in ("counters", "timers", "histograms"):
        assert list(snap[section]) == ["alpha", "mike", "zulu"]


def test_throughput_report_stages_are_sorted():
    metrics = MetricsRegistry()
    metrics.counter("pipeline.updates").add()
    for stage in ("verify", "anchor", "apply", "authenticate"):
        metrics.timer(f"pipeline.stage.{stage}").record(0.1)
    report = metrics.throughput_report()
    assert list(report["stages"]) == [
        "anchor", "apply", "authenticate", "verify",
    ]


# -- exporters ------------------------------------------------------------


def populated_registry():
    metrics = MetricsRegistry()
    metrics.counter("net.messages").add()
    metrics.counter("net.messages").add()
    metrics.timer("pipeline.stage.verify").record(0.25)
    metrics.histogram("batch.size").record(8)
    return metrics


def test_metrics_to_json_schema():
    doc = metrics_to_json(populated_registry())
    assert doc["schema_version"] == METRICS_SCHEMA_VERSION == 3
    assert doc["counters"]["net.messages"]["count"] == 2
    timer = doc["timers"]["pipeline.stage.verify"]
    assert set(timer) == {"n", "mean", "total", "p50", "p95", "p99", "max"}
    # Schema v3: histograms carry the timer keys, not le buckets.
    assert doc["histograms"]["batch.size"] == {
        "n": 1, "mean": 8.0, "total": 8.0,
        "p50": 8.0, "p95": 8.0, "p99": 8.0, "max": 8.0,
    }
    assert "gauges" in doc  # new in schema v2 (empty here)
    # The document must be JSON-serializable as-is (no inf, no bytes).
    json.dumps(doc)


def test_metrics_json_artifact_is_stable_across_runs(tmp_path):
    def run():
        metrics = MetricsRegistry()
        # Register in different orders; artifacts must still match.
        for name in ("b", "a", "c"):
            metrics.counter(name).add()
        return metrics

    path_one, path_two = tmp_path / "one.json", tmp_path / "two.json"
    write_metrics_json(run(), str(path_one))
    write_metrics_json(run(), str(path_two))
    assert path_one.read_text() == path_two.read_text()
    assert list(json.loads(path_one.read_text())["counters"]) == ["a", "b", "c"]


def test_prometheus_exposition_format():
    text = to_prometheus(populated_registry())
    assert "# TYPE repro_net_messages_total counter" in text
    assert "repro_net_messages_total 2.0" in text
    assert "# TYPE repro_pipeline_stage_verify_seconds summary" in text
    assert 'repro_pipeline_stage_verify_seconds{quantile="0.5"} 0.25' in text
    assert "repro_pipeline_stage_verify_seconds_count 1.0" in text
    # Histograms are unitless summaries: no _seconds, no _bucket rows.
    assert "# TYPE repro_batch_size summary" in text
    assert 'repro_batch_size{quantile="0.99"} 8.0' in text
    assert "repro_batch_size_sum 8.0" in text
    assert "repro_batch_size_count 1.0" in text
    assert "_bucket" not in text and "histogram" not in text
    assert text.endswith("\n")


def test_prometheus_namespace_and_sanitization():
    metrics = MetricsRegistry()
    metrics.counter("weird name-with.bits").add()
    text = to_prometheus(metrics, namespace=None)
    assert "weird_name_with_bits_total 1.0" in text


# -- exporter edge cases (schema v2 and later) ----------------------------


def test_prometheus_p99_quantile_row():
    metrics = MetricsRegistry()
    timer = metrics.timer("stage")
    for i in range(100):
        timer.record(float(i + 1))
    text = to_prometheus(metrics)
    rows = dict(line.rsplit(" ", 1) for line in text.splitlines()
                if not line.startswith("#"))
    assert float(rows['repro_stage_seconds{quantile="0.99"}']) \
        == pytest.approx(99.0, rel=0.01)
    assert float(rows['repro_stage_seconds{quantile="0.5"}']) \
        == pytest.approx(50.0, rel=0.01)
    assert rows["repro_stage_seconds_count"] == "100.0"
    assert rows["repro_stage_seconds_sum"] == "5050.0"


def test_prometheus_gauge_section():
    metrics = MetricsRegistry()
    metrics.gauge("queue.depth").set(3)
    text = to_prometheus(metrics)
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_queue_depth 3.0" in text


def test_empty_registry_exports():
    metrics = MetricsRegistry()
    text = to_prometheus(metrics)
    assert text == "\n" or text.strip() == ""  # no metrics, valid scrape
    doc = metrics_to_json(metrics)
    assert doc["schema_version"] == METRICS_SCHEMA_VERSION
    assert doc["counters"] == {}
    assert doc["gauges"] == {}
    assert doc["timers"] == {}
    assert doc["histograms"] == {}
    json.dumps(doc)


def test_non_finite_values_export_without_breaking_json():
    nan, inf = float("nan"), float("inf")
    metrics = MetricsRegistry()
    metrics.gauge("g.nan").set(nan)
    metrics.gauge("g.pos").set(inf)
    metrics.gauge("g.neg").set(-inf)
    text = to_prometheus(metrics)
    # Prometheus text format spells non-finite values literally.
    assert "repro_g_nan NaN" in text
    assert "repro_g_pos +Inf" in text
    assert "repro_g_neg -Inf" in text
    doc = metrics_to_json(metrics)
    assert doc["gauges"]["g.nan"]["value"] == "NaN"
    assert doc["gauges"]["g.pos"]["value"] == "+Inf"
    assert doc["gauges"]["g.neg"]["value"] == "-Inf"
    # Strict JSON (no Infinity/NaN literals) must accept the document.
    json.loads(json.dumps(doc, allow_nan=False))


def test_sanitization_collision_emits_type_header_once():
    metrics = MetricsRegistry()
    metrics.counter("net.messages").add()
    metrics.counter("net-messages").add()  # sanitizes to the same name
    text = to_prometheus(metrics)
    assert text.count("# TYPE repro_net_messages_total counter") == 1
    # Both samples still exported (they collapse onto one series name).
    assert text.count("repro_net_messages_total 1.0") == 2
