"""Cross-process telemetry aggregation.

The acceptance bar: a sharded run and a parallel-executor run must
both surface shard-side / worker-side counters and spans in the
coordinator's merged ``/metrics`` — no telemetry black holes.  Plus
the delta/merge unit semantics those paths rely on: incremental
captures never double-count, merged timer sketches add bucket-wise,
and merges land under stable per-worker labels.
"""

import pytest

from repro.common.metrics import MetricsRegistry
from repro.core.sharded import ShardedPReVer
from repro.obs.aggregate import DeltaTracker, TelemetryDelta, merge_delta
from repro.obs.export import to_prometheus
from repro.obs.server import start_ops_server
from repro.obs.tracing import Tracer
from repro.parallel.executors import ParallelExecutor

from tests.test_pipeline_stages import build_plaintext, golden_stream
from tests.test_sharded import sharded_stream, two_shard_specs


# -- delta capture semantics ------------------------------------------------


def test_delta_capture_is_incremental():
    registry = MetricsRegistry()
    tracker = DeltaTracker(registry)
    registry.counter("c").add(2.5)
    registry.timer("t").record(0.5)
    registry.gauge("g").set(7)
    registry.histogram("h").record(0.25)
    first = tracker.capture()
    assert first.counters["c"] == (1, 2.5)
    assert first.timers["t"] == registry.timer("t").state()
    assert first.timers["t"][:4] == (1, 0.5, 0.5, 0.5)
    assert first.gauges["g"] == 7.0
    assert first.histograms["h"][:2] == (1, 0.25)
    # Nothing new since -> empty delta (no double counting).
    assert tracker.capture().empty()
    registry.counter("c").add()
    registry.timer("t").record(0.5)
    registry.timer("t").record(1.5)
    second = tracker.capture()
    assert second.counters["c"] == (1, 1.0)
    # Only the new samples ship: their count, sum and bucket increments.
    count, total, low, high, buckets = second.timers["t"]
    assert (count, total, low, high) == (2, 2.0, 0.5, 1.5)
    assert sorted(buckets.values()) == [1, 1]
    assert sum(registry.timer("t").buckets.values()) == 3


def test_origin_tracker_ships_full_history_first():
    registry = MetricsRegistry()
    registry.counter("pre.existing").add(3.0)
    late = DeltaTracker(registry, origin=True)
    fresh = DeltaTracker(registry, origin=False)
    assert late.capture().counters["pre.existing"] == (1, 3.0)
    assert fresh.capture().empty()


def test_tracker_captures_finished_spans():
    registry = MetricsRegistry()
    tracer = Tracer()
    tracker = DeltaTracker(registry, tracer=tracer)
    with tracer.span("work", items=3):
        pass
    delta = tracker.capture()
    assert [span["name"] for span in delta.spans] == ["work"]
    assert tracker.capture().empty()


def test_delta_pickles():
    import pickle

    registry = MetricsRegistry()
    tracker = DeltaTracker(registry)
    registry.counter("c").add()
    registry.timer("t").record(0.1)
    delta = pickle.loads(pickle.dumps(tracker.capture()))
    assert delta.counters["c"] == (1, 1.0)


# -- merge semantics --------------------------------------------------------


def test_merge_delta_labels_and_accumulates():
    source = MetricsRegistry()
    for value in (0.1, 0.3):
        source.timer("verify").record(value)
    source.histogram("lat").record(0.2)
    source.histogram("lat").record(0.2)
    sketches = DeltaTracker(source, origin=True).capture()
    coordinator = MetricsRegistry()
    delta = TelemetryDelta(
        counters={"crypto.ops": (4, 4.0)},
        gauges={"depth": 2.0},
        timers=sketches.timers,
        histograms=sketches.histograms,
        spans=[{"name": "parallel.chunk", "duration": 0.05}],
    )
    merge_delta(coordinator, delta, prefix="worker.w0")
    merge_delta(coordinator, delta, prefix="worker.w0")
    assert coordinator.counter_value("worker.w0.crypto.ops") == 8
    assert coordinator.gauge_value("worker.w0.depth") == 2.0
    timer = coordinator.timer("worker.w0.verify")
    assert (timer.count, timer.min, timer.max) == (4, 0.1, 0.3)
    assert timer.total == pytest.approx(0.8)
    assert timer.percentile(50) == pytest.approx(0.1, rel=0.01)
    assert {k: 2 * n for k, n in source.timer("verify").buckets.items()} \
        == timer.buckets
    hist = coordinator.histogram("worker.w0.lat")
    assert hist.count == 4 and hist.total == pytest.approx(0.8)
    assert "worker.w0.lat" not in coordinator.snapshot()["timers"]
    span_timer = coordinator.timer("worker.w0.span.parallel.chunk")
    assert (span_timer.count, span_timer.min, span_timer.max) == (2, 0.05, 0.05)
    assert span_timer.percentile(99) == 0.05


# -- parallel-executor runs surface worker telemetry ------------------------


def crypto_chunk(chunk):
    """Top-level (picklable) chunk fn that records worker-side metrics."""
    from repro.obs.aggregate import worker_metrics

    registry = worker_metrics()
    out = []
    for item in chunk:
        registry.counter("crypto.modexp").add()
        out.append(item * item)
    return out


def test_parallel_executor_merges_worker_counters():
    coordinator = MetricsRegistry()
    executor = ParallelExecutor(workers=2, min_items=2)
    executor.bind_metrics(coordinator)
    items = list(range(32))
    assert executor.map_chunks(crypto_chunk, items) == [i * i for i in items]
    snap = coordinator.snapshot()
    worker_counters = [n for n in snap["counters"]
                       if n.startswith("worker.w")]
    assert worker_counters, "no worker-side counters merged"
    # The wrapper's own chunk accounting covers every item exactly once.
    chunks = sum(
        coordinator.counter_value(f"worker.w{i}.parallel.worker.chunks")
        for i in range(2)
    )
    items_seen = sum(
        coordinator.counter_total(f"worker.w{i}.parallel.worker.items")
        for i in range(2)
    )
    assert chunks == 2 and items_seen == len(items)
    # Chunk-fn telemetry rides along too.
    modexps = sum(
        coordinator.counter_value(f"worker.w{i}.crypto.modexp")
        for i in range(2)
    )
    assert modexps == len(items)
    # And it all lands in the Prometheus scrape.
    text = to_prometheus(coordinator)
    assert "repro_worker_w0_parallel_worker_chunks_total" in text


def test_unbound_executor_returns_bare_results():
    executor = ParallelExecutor(workers=2, min_items=2)
    items = list(range(16))
    assert executor.map_chunks(crypto_chunk, items) == [i * i for i in items]


def test_framework_run_under_process_executor_surfaces_workers():
    """An end-to-end batch under the process executor: the merged
    /metrics scrape shows per-worker sections (acceptance criterion)."""
    executor = ParallelExecutor(workers=2, min_items=2)
    framework = build_plaintext(executor=executor)
    framework.submit_many(golden_stream())
    # The plaintext engine's parallel stage is batch Schnorr auth,
    # which only fans out for signed batches; drive the executor
    # directly through the framework's registry to model engine work.
    executor.map_chunks(crypto_chunk, list(range(24)))
    with start_ops_server(framework) as server:
        status, _, payload = server.handle("/metrics")
    text = payload.decode("utf-8")
    assert status == 200
    assert "repro_worker_w0_parallel_worker_chunks_total" in text
    assert "repro_pipeline_updates_total" in text


# -- sharded runs surface shard telemetry -----------------------------------


def test_sharded_process_run_surfaces_shard_sections():
    sharded = ShardedPReVer(two_shard_specs())
    try:
        sharded.submit_many(sharded_stream(12))
        registry = sharded.collect_telemetry()
        snap = registry.snapshot()
        for name in ("s0", "s1"):
            updates = registry.counter_value(f"shard.{name}.pipeline.updates")
            assert updates == 6, f"empty worker section for shard {name}"
            assert f"shard.{name}.pipeline.stage.verify" in snap["timers"]
        # Incremental: a second collect with no new work adds nothing.
        before = registry.counter_value("shard.s0.pipeline.updates")
        sharded.collect_telemetry()
        assert registry.counter_value(
            "shard.s0.pipeline.updates"
        ) == before
        # More work -> only the increment merges.
        sharded.submit_many(sharded_stream(4, offset=100, who="carol"))
        sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 8
        # The ops server scrape shows the shard sections end to end.
        with start_ops_server(sharded) as server:
            status, _, body = server.handle("/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_shard_s0_pipeline_updates_total" in text
        assert "repro_shard_s1_pipeline_updates_total" in text
    finally:
        sharded.close()


def test_sharded_process_health_and_readiness():
    sharded = ShardedPReVer(two_shard_specs())
    try:
        sharded.submit_many(sharded_stream(4))
        health = sharded.health_report()
        assert health["ok"]
        assert health["checks"]["shard.s0"]["ok"]
        ready = sharded.readiness_report()
        assert ready["ok"]
        assert ready["checks"]["shard.s1.ready"]["ok"]
    finally:
        sharded.close()
    assert not sharded.health_report()["ok"]  # closed shards are dead


def test_telemetry_survives_a_primary_crash_without_reshipping_history():
    """The handle owns the delta tracker: when a replicated shard's
    primary crashes, the next primary's counters are a baseline, not
    news — it counted the same decided stream."""
    sharded = ShardedPReVer(two_shard_specs(), consensus={"s0": "paxos"})
    try:
        sharded.submit_many(sharded_stream(12))
        registry = sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 6
        shard = sharded.shards[0]
        shard.crash_replica(shard.primary_index)
        sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 6
        sharded.submit_many(sharded_stream(4, offset=100, who="carol"))
        sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 8
        assert registry.counter_value("shard.s1.pipeline.updates") == 8
    finally:
        sharded.close()


def test_sharded_serial_telemetry_and_trail(tmp_path):
    from repro.obs.events import EventLog

    import functools

    # A traced shard: the coordinator finds the trail on whichever
    # shard anchored the update.
    specs = two_shard_specs()
    sharded = ShardedPReVer(specs)
    try:
        results = sharded.submit_many(sharded_stream(8))
        registry = sharded.collect_telemetry()
        assert registry.counter_value("shard.s0.pipeline.updates") == 4
        assert registry.counter_value("shard.s1.pipeline.updates") == 4
        assert sharded.health_report()["ok"]
        assert sharded.readiness_report()["ok"]
        # Untraced shards anchor no trace ids -> no trail anywhere.
        assert sharded.verification_trail("tr-none") is None
        # Attach tracing to one shard and find its trail via the
        # coordinator (trail carries the owning shard's name).
        shard = sharded.shards[0].framework
        shard.tracer = Tracer().add_sink(EventLog())
        result = sharded.submit(sharded_stream(1, offset=50)[0])
        trail = sharded.verification_trail(result.trace_id)
        assert trail is not None and trail["verified"] is True
        assert trail["shard"] == "s0"
    finally:
        sharded.close()
