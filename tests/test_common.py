"""Common infrastructure: serialization, ids, clocks, metrics, rng."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import (
    SimClock,
    WallClock,
    MetricsRegistry,
    canonical_bytes,
    canonical_json,
    make_id,
    short_hash,
)
from repro.common.errors import SerializationError
from repro.common.randomness import (
    DeterministicRandomSource,
    SystemRandomSource,
    deterministic_rng,
)
from repro.common.serialization import from_canonical_json

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(value=json_values)
@settings(max_examples=100)
def test_canonical_roundtrip(value):
    restored = from_canonical_json(canonical_json(value))
    normalized = _tuples_to_lists(value)
    assert restored == normalized


def _tuples_to_lists(value):
    if isinstance(value, (list, tuple)):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _tuples_to_lists(v) for k, v in value.items()}
    return value


def test_canonical_is_key_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_canonical_bytes_stable():
    assert canonical_bytes({"x": [1, b"\x00\xff"]}) == canonical_bytes(
        {"x": [1, b"\x00\xff"]}
    )


def test_non_string_keys_rejected():
    with pytest.raises(SerializationError):
        canonical_json({1: "x"})


def test_unserializable_rejected():
    with pytest.raises(SerializationError):
        canonical_json(object())


def test_to_dict_objects_supported():
    class Thing:
        def to_dict(self):
            return {"kind": "thing"}

    assert canonical_json(Thing()) == '{"kind":"thing"}'


def test_make_id_unique_and_prefixed():
    ids = {make_id("upd") for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith("upd-") for i in ids)


def test_make_id_with_entropy_suffix():
    assert make_id("x", b"payload").count("-") == 2


def test_short_hash_length():
    assert len(short_hash(b"data")) == 8
    assert len(short_hash(b"data", 16)) == 16


def test_sim_clock_monotonic():
    clock = SimClock()
    clock.advance(5)
    assert clock.now() == 5
    clock.advance_to(7.5)
    assert clock.now() == 7.5
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        clock.advance_to(3)


def test_wall_clock_moves():
    clock = WallClock()
    a = clock.now()
    assert clock.now() >= a


def test_metrics_counters_and_timers():
    metrics = MetricsRegistry()
    metrics.counter("ops").add()
    metrics.counter("ops").add(2.5)
    assert metrics.counter("ops").count == 2
    assert metrics.counter("ops").total == 3.5
    timer = metrics.timer("t")
    for v in (0.1, 0.2, 0.3):
        timer.record(v)
    assert (timer.count, timer.min, timer.max) == (3, 0.1, 0.3)
    assert timer.total == 0.1 + 0.2 + 0.3
    assert abs(timer.mean - 0.2) < 1e-9
    assert timer.percentile(50) == pytest.approx(0.2, rel=0.01)
    snap = metrics.snapshot()
    assert snap["counters"]["ops"]["count"] == 2
    assert snap["timers"]["t"]["n"] == 3


def test_metrics_timed_context():
    metrics = MetricsRegistry()
    with metrics.timed("block"):
        pass
    assert metrics.timer("block").count == 1


def test_deterministic_rng_reproducible():
    a = deterministic_rng(9)
    b = deterministic_rng(9)
    assert [a.randbelow(100) for _ in range(10)] == [
        b.randbelow(100) for _ in range(10)
    ]


def test_rng_bounds():
    for source in (SystemRandomSource(), DeterministicRandomSource(1)):
        assert 0 <= source.randbelow(10) < 10
        assert 5 <= source.randrange(5, 8) < 8
        with pytest.raises(ValueError):
            source.randbelow(0)
        with pytest.raises(ValueError):
            source.randrange(5, 5)
