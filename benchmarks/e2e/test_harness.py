"""Checks of the harness itself: ``run.py selftest`` or ``pytest`` on this
file.  They test the measuring instruments — percentiles, the open-loop
scheduler, the oracles, the span recorder, ``compare`` — not the program.
"""

import asyncio
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen
import layers
import loadgen
import run as harness
import stats
import trace
import workloads


def _raises(kind, fn, *args):
    try:
        fn(*args)
    except kind:
        return True
    return False


def test_percentile_nearest_rank_edges():
    assert stats.percentile([7.0], 50) == 7.0
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([4, 1, 3, 2], 50) == 2
    assert stats.percentile([4, 1, 3, 2], 75) == 3
    assert stats.percentile([4, 1, 3, 2], 100) == 4
    assert stats.percentile(list(range(1, 101)), 99) == 99
    assert _raises(ValueError, stats.percentile, [], 50)
    assert _raises(ValueError, stats.percentile, [1], 0)
    # "highest percentile with at least ten samples beyond it"
    assert stats.supported_percentile(10000) == 99.9
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(999) == 95.0
    assert stats.supported_percentile(100) == 90.0
    assert stats.supported_percentile(50) == 50.0
    assert stats.slices([(0.5, 2), (1.5, 4), (2.5, 8), (3.0, 9)], 0.0, 3.0, 3) \
        == [2, 4, 8]


def test_quiet_tail_reads_the_program_not_the_host():
    """400 calls that get slower as state grows (40 -> 80 ms), every tenth
    one ``slow`` ms slower still: that is the program's tail.  A burst of
    the host then adds 30 ms to 60 calls in a row."""
    def calls(slow, burst):
        return [40 + 0.1 * i + (slow if i % 10 == 9 else 0)
                + (30 if burst and 100 <= i < 160 else 0) for i in range(400)]

    def tail_gap(sample):
        return stats.quiet_tail(sample, 95, 8) - stats.percentile(sample, 50)

    quiet, noisy = calls(5, False), calls(5, True)
    # The window's own p95 reads the burst; the quiet tail is the window's
    # median plus a gap that does not.
    assert stats.percentile(noisy, 95) > stats.percentile(quiet, 95) + 5
    assert abs(tail_gap(noisy) - tail_gap(quiet)) < 0.5
    # The gap is a stretch's own tail, whatever the trend across stretches...
    assert 5 <= tail_gap(quiet) < 8
    # ...so a slower tenth call shows, ms for ms.
    assert abs(tail_gap(calls(15, True)) - tail_gap(quiet) - 10) < 0.5
    # Too few samples for two stretches of 20: the plain percentile.
    assert stats.quiet_tail(quiet[:30], 95, 8) == stats.percentile(
        quiet[:30], 95)


def test_open_loop_charges_a_stall_to_later_requests():
    """No coordinated omission: a server stall must show up in the
    latency of the requests that were due while it lasted, and the
    generator must have kept sending on schedule through it."""
    gate = None
    stall_at, stall, service = 5, 0.250, 0.001

    async def fake_server(index):
        async with gate:   # one request at a time, in arrival order
            await asyncio.sleep(stall if index == stall_at else service)
        return index

    async def scenario():
        nonlocal gate
        gate = asyncio.Lock()
        offsets = [0.005 * (i + 1) for i in range(40)]
        return await loadgen.open_loop(fake_server, list(range(40)), offsets)

    report = asyncio.run(scenario())
    by_index = {r.index: r for r in report.requests}
    assert all(r.reply == r.index for r in report.requests)
    # Sent on schedule even while the server was stalled...
    # (50 ms of slack for a busy host; the stall is five times that).
    slack = 0.05
    assert report.lag_p99 < slack, report.lag_p99
    assert all(r.start - r.due < slack for r in report.requests)
    # ...so the requests behind the stall carry it, shrinking as it drains.
    assert by_index[4].latency < slack
    assert by_index[6].latency > stall - slack
    assert by_index[10].latency > stall - 2 * slack
    assert by_index[6].latency > by_index[25].latency > by_index[4].latency
    # A closed loop would have reported ~service time for every one of them.
    assert sum(r.latency > 2 * slack for r in report.requests) >= 10


def test_open_loop_reports_its_own_lag():
    """A generator that falls behind says so, and still charges the
    delay to the request (latency runs from the due time)."""
    async def blocking(index):
        if index == 3:
            time.sleep(0.15)   # blocks the generator's only thread
        return index

    async def scenario():
        offsets = [0.004 * (i + 1) for i in range(20)]
        return await loadgen.open_loop(blocking, list(range(20)), offsets)

    report = asyncio.run(scenario())
    assert report.lag_p99 > 0.05, report.lag_p99
    late = [r for r in report.requests if r.start - r.due > 0.05]
    assert late and all(r.latency >= r.start - r.due for r in late)


def test_oracles_agree_with_prever_on_200_updates():
    cap = gen.TasksStream.CAP
    gen.TasksStream.CAP = 40   # low enough to bite within 200 updates
    try:
        framework = workloads.build_tasks("plaintext", signed=False)
        stream = gen.TasksStream(seed=3)
        wrong = rejected = 0
        for _ in range(4):
            updates, expected = stream.take(50)
            wrong += gen.wrong_decisions(framework.submit_many(updates),
                                         expected)
            rejected += sum(not want.applied for want in expected)
        assert wrong == 0 and rejected > 20, (wrong, rejected)
    finally:
        gen.TasksStream.CAP = cap

    producer = gen.SeededProducer("selftest", seed=3)
    framework = workloads.build_emissions(signed=True)
    stream = gen.EmissionsStream(seed=3, producer=producer)
    updates, expected = stream.take(200, corrupt_at=(7, 99))
    results = framework.submit_many(updates)
    assert gen.wrong_decisions(results, expected) == 0
    assert results[7].update.rejection_reason == "bad signature"
    assert sum(not want.applied for want in expected) > 30
    # The comparison itself must be able to fail.
    expected[0].applied = not expected[0].applied
    assert gen.wrong_decisions(results, expected) == 1


def _stream_digest(seed: int) -> str:
    producer = gen.SeededProducer("selftest", seed)
    tasks, _ = gen.TasksStream(seed, producer).take(50)
    emissions, _ = gen.EmissionsStream(seed, producer).take(50, corrupt_at=(9,))
    import random
    offsets = gen.poisson_schedule(random.Random(seed), 300, 2.0)
    digest = hashlib.sha256()
    for update in tasks + emissions:
        digest.update(update.body_bytes())
        digest.update(repr((update.signature.commitment,
                            update.signature.response)).encode())
    digest.update(json.dumps(offsets).encode())
    return digest.hexdigest()


def test_generators_are_byte_stable_for_a_seed():
    import random

    assert _stream_digest(7) == _stream_digest(7)
    assert _stream_digest(7) != _stream_digest(8)
    zipf = gen.Zipf(256, 0.99)
    rng = random.Random(7)
    ranks = [zipf.sample(rng) for _ in range(2000)]
    assert ranks[:8] == [3, 0, 31, 0, 15, 4, 0, 12], ranks[:8]
    assert 0.13 < ranks.count(0) / len(ranks) < 0.20   # 1 / H(256, 0.99)
    offsets = gen.poisson_schedule(random.Random(7), 300, 2.0)
    assert len(offsets) == 600 and abs(offsets[-1] - 2.0) < 1e-12
    assert offsets == sorted(offsets)


def test_recorder_nests_spans_and_restores_callables():
    class Layer:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            time.sleep(0.001)
            return i

    layer = Layer()
    recorder = trace.Recorder()
    recorder.wrap(layer, "outer", "layer.outer", key=lambda a, r: r)
    recorder.wrap(layer, "inner", "layer.inner")
    assert layer.outer(3) == 3
    assert trace.check_nesting(recorder.spans) == 0
    totals = trace.summarize(recorder.spans)
    assert totals["layer.inner"].count == 3
    outer = totals["layer.outer"]
    assert outer.count == 1 and 0 <= outer.self_time < outer.total
    assert abs(outer.total - outer.self_time
               - totals["layer.inner"].total) < 1e-9
    parents = {s[2]: s[1] for s in recorder.spans}
    outer_id = [s[0] for s in recorder.spans if s[2] == "layer.outer"][0]
    assert parents["layer.inner"] == outer_id and parents["layer.outer"] == 0
    assert [s[5] for s in recorder.spans if s[2] == "layer.outer"] == [3]
    recorder.unwrap_all()
    assert "outer" not in vars(layer)
    # A child that outlives its parent must be reported.
    broken = [(1, 0, "p", 0.0, 1.0, None), (2, 1, "c", 0.5, 1.5, None)]
    assert trace.check_nesting(broken) == 1


def _result(values, failed=0, correct=True):
    import statistics as st
    keys = values[0].keys()
    return {"runs": values,
            "median": {k: st.median(v[k] for v in values) for k in keys},
            "spread": {k: stats.spread([v[k] for v in values]) for k in keys},
            "attempted": 1000, "failed": failed, "correct": correct}


def test_compare_verdicts_on_synthetic_pairs():
    spec = {"end_to_end": [
        {"name": "throughput_ups", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.10}]}
    own = [m["name"] for m in harness.OWN_METRICS["serve_durable"]]
    assert own == ["recover_s", "served_p99_ms"]

    def runs(ups, ms, recover=(2.0, 2.02, 1.98, 2.0, 2.01)):
        return [{"throughput_ups": u, "latency_p50_ms": m, "recover_s": r,
                 "served_p99_ms": 30.0}
                for u, m, r in zip(ups, ms, recover)]

    steady = runs([1000, 1010, 990, 1005, 995], [10, 10.1, 9.9, 10, 10.05])
    a = {"workloads": {"serve_durable": _result(steady)}}

    def verdicts(b_runs, **kw):
        b = {"workloads": {"serve_durable": _result(b_runs, **kw)}}
        return {r["metric"]: r["verdict"]
                for r in harness.compare_results(a, b, spec)}

    assert set(verdicts(steady).values()) == {"ok"}
    slower = runs([850, 860, 845, 855, 850], [10, 10.1, 9.9, 10, 10.05])
    assert verdicts(slower)["throughput_ups"] == "regressed"
    assert verdicts(slower)["latency_p50_ms"] == "ok"
    noisy = runs([1000, 1400, 700, 1200, 800], [10, 10, 10, 10, 10])
    assert verdicts(noisy)["throughput_ups"] == "unresolved"
    # Noisy, but every run better than every run of A: resolved.
    faster = runs([1500, 2500, 1800, 3000, 1600], [10, 10, 10, 10, 10])
    assert verdicts(faster)["throughput_ups"] == "ok"
    # ...and every run worse than every run of A: resolved the other way.
    collapsed = runs([500, 900, 300, 700, 400], [10, 10, 10, 10, 10])
    assert verdicts(collapsed)["throughput_ups"] == "regressed"
    # The workload's own metrics are gated with their own bounds (15 %).
    slow_recovery = runs([1000, 1010, 990, 1005, 995],
                         [10, 10.1, 9.9, 10, 10.05],
                         recover=(2.5, 2.52, 2.48, 2.5, 2.51))
    assert verdicts(slow_recovery)["recover_s"] == "regressed"
    assert verdicts(slow_recovery)["served_p99_ms"] == "ok"
    assert verdicts(steady, failed=5)["failed_share"] == "regressed"
    assert verdicts(steady, failed=0)["failed_share"] == "ok"
    # One failed check among a thousand correct operations still shows.
    run = workloads.Run()
    run.count(1000, 0)
    run.checks.update(cap_holds_in_table=False, spans_nest=True)
    assert (run.attempted, run.failed, run.correct) == (1002, 1, False)
    assert verdicts(steady, failed=run.failed,
                    correct=run.correct)["failed_share"] == "regressed"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_code_measures():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PHASES)
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # The issue's 20 % limit holds except for set-up and the tail (README).
    assert {k for k, b in bounds.items() if b > 0.20} == {
        "setup_s", "latency_p95_ms"}
    assert set(harness.OWN_METRICS) <= set(workloads.PHASES)
    for shares in workloads.PHASES.values():
        assert abs(sum(shares.values()) - 1.0) < 1e-9


def _refusal() -> str:
    try:
        harness.check_environment()
    except harness.Refused as exc:
        return str(exc)
    return ""


def test_refuses_tuned_environments():
    tuned = {key: os.environ.pop(key) for key in list(os.environ)
             if key.startswith("REPRO_")}
    try:
        assert "REPRO_" not in _refusal()
        os.environ["REPRO_EXECUTOR"] = "process"
        assert "REPRO_EXECUTOR" in _refusal()
    finally:
        os.environ.pop("REPRO_EXECUTOR", None)
        os.environ.update(tuned)


def test_smoke_wiring_of_every_workload():
    """Two traced seconds per workload: every phase, check, wrapper and
    per-layer formula runs once.  Prints, never writes a result file."""
    if _refusal():   # ``selftest`` has refused by now; pytest skips
        import pytest

        pytest.skip(_refusal())
    declared = len(_spec()["per_layer"])
    for name in workloads.PHASES:
        document = harness.measure(name, seed=11,
                                   seconds=harness.SMOKE_SECONDS,
                                   traced=True, repeat_setup=False)
        line = harness.report(document, smoke=True)
        assert line["correct"] and line["failed"] == 0, document["checks"]
        assert len(line["metrics"]) == declared
        active = {k for k, v in line["metrics"].items() if v["value"]}
        assert "trace.overhead_share" in active
        assert ("serve.waterfall.residual_share" in active) == (
            name == "serve_durable")
