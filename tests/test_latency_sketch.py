"""The one latency type: a bounded, mergeable log-linear sketch.

Properties the rest of the ops plane relies on: quantiles within 1 %
of the exact nearest-rank statistic, exact extremes, bucket-exact
merges through a pickled telemetry delta, and registry reads that stay
consistent while another thread records.
"""

import math
import pickle
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.common.metrics import MetricsRegistry, Timer, nearest_rank
from repro.obs.aggregate import DeltaTracker, merge_delta
from repro.obs.export import metrics_to_json, to_prometheus

positive = st.floats(min_value=1e-9, max_value=1e4,
                     allow_nan=False, allow_infinity=False)
samples = st.lists(positive, min_size=1, max_size=300)


def sketch_of(values) -> Timer:
    timer = Timer("t")
    for value in values:
        timer.record(value)
    return timer


@settings(max_examples=200, deadline=None)
@given(samples)
def test_quantiles_within_one_percent_of_nearest_rank(values):
    timer = sketch_of(values)
    for pct in (1, 50, 95, 99):
        exact = nearest_rank(values, pct)
        assert abs(timer.percentile(pct) - exact) <= 0.01 * exact
    assert timer.percentile(0) == min(values)
    assert timer.percentile(100) == max(values)
    assert timer.count == len(values)
    assert (timer.min, timer.max) == (min(values), max(values))


@settings(max_examples=100, deadline=None)
@given(samples, samples)
def test_pickled_delta_merge_equals_sketch_of_both(a, b):
    source = MetricsRegistry()
    for value in a:
        source.timer("t").record(value)
    delta = pickle.loads(pickle.dumps(
        DeltaTracker(source, origin=True).capture()))
    target = MetricsRegistry()
    for value in b:
        target.timer("t").record(value)
    merge_delta(target, delta)
    merged, both = target.timer("t"), sketch_of(a + b)
    assert merged.buckets == both.buckets
    assert (merged.count, merged.min, merged.max) == \
        (both.count, both.min, both.max)
    assert math.isclose(merged.total, both.total, rel_tol=1e-9)


def test_single_sample_reads_back_exactly():
    timer = sketch_of([0.0123])
    assert timer.quantiles(0, 1, 50, 99, 100) == [0.0123] * 5
    assert timer.mean == 0.0123


def test_zero_and_nanosecond_durations_are_both_counted():
    timer = sketch_of([0.0, 1e-9])
    assert timer.count == 2 and len(timer.buckets) == 2
    assert timer.percentile(0) == 0.0
    assert timer.percentile(50) == 0.0
    assert timer.percentile(100) == 1e-9


def test_memory_grows_with_spread_not_with_count():
    timer = sketch_of([0.002] * 10_000)
    assert len(timer.buckets) == 1
    # Five decades of latency (1 us .. 100 ms) span 18 octaves of 64.
    wide = sketch_of([1e-6 * 1.001 ** i for i in range(11_600)])
    assert len(wide.buckets) <= 18 * 64


def test_readers_and_a_writer_share_the_registry():
    registry = MetricsRegistry()
    tracker = DeltaTracker(registry, origin=True)
    coordinator = MetricsRegistry()
    records = 20_000
    failures = []

    def write():
        try:
            for i in range(records):
                # Growing values keep opening new bucket keys; fresh
                # names keep growing the registry's timer dict.
                registry.timer("main").record((i + 1) * 1e-6)
                if i % 50 == 0:
                    registry.timer(f"fresh.{i}").record(1e-3)
                    registry.histogram(f"sizes.{i}").record(i)
        except Exception as exc:  # surfaced by the assert below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=write)
    try:
        writer.start()
        last, scrapes = 0, 0
        while writer.is_alive():
            assert to_prometheus(registry).endswith("\n")
            doc = metrics_to_json(registry)
            merge_delta(coordinator, tracker.capture())
            count = doc["timers"].get("main", {"n": 0})["n"]
            assert count >= last
            last, scrapes = count, scrapes + 1
    finally:
        writer.join()
        sys.setswitchinterval(interval)
    assert not failures
    assert scrapes > 1
    merge_delta(coordinator, tracker.capture())
    assert registry.timer("main").count == records
    merged = coordinator.timer("main")
    assert merged.count == records
    assert merged.buckets == registry.timer("main").buckets
    assert len(coordinator.snapshot()["histograms"]) == records // 50
