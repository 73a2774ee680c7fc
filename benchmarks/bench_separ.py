"""E11 (Section 5): Separ end-to-end regulation-enforcement overhead.

Task completions through the full Separ stack — the coordinator's token
check (blind-signed issuance, double-spend registry) and the platform
shard's SharPer-ordered, replicated pipeline — versus an unregulated
baseline that just writes to the platform database.  The report splits
the Separ task time into token issuance, token spending and the rest
(routing, ordering, apply and anchor on the platform shard).
"""

import itertools

import pytest

from repro.core.separ import SeparSystem
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema

from _report import print_table

_ids = itertools.count()


def build_separ(platforms=4):
    system = SeparSystem(
        [f"p{i}" for i in range(platforms)], weekly_hour_cap=10**6
    )
    for w in range(8):
        system.register_worker(f"w{w}")
    return system


def test_separ_task_cost(benchmark):
    system = build_separ()

    def one_task():
        i = next(_ids)
        system.complete_task(f"w{i % 8}", f"p{i % 4}", 2)

    benchmark.pedantic(one_task, rounds=10, iterations=1, warmup_rounds=1)


def test_unregulated_baseline_cost(benchmark):
    db = Database("plain")
    db.create_table(TableSchema.build(
        "tasks",
        [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)],
        primary_key=["task_id"],
    ))

    def one_task():
        i = next(_ids)
        db.insert("tasks", {"task_id": f"t{i}", "worker": f"w{i % 8}",
                            "hours": 2})

    benchmark.pedantic(one_task, rounds=10, iterations=5)


def timed(owner, name, totals):
    """Wrap ``owner.name`` to add its wall time to ``totals[name]``."""
    import time

    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start

    setattr(owner, name, wrapper)


def test_separ_report(benchmark, capsys):
    import time

    rows = []
    split = []

    def sweep():
        rows.clear()
        split.clear()
        system = build_separ()
        totals = {"request_tokens": 0.0, "spend": 0.0}
        for worker in system.workers.values():
            timed(worker.wallet, "request_tokens", totals)
        timed(system.registry, "spend", totals)
        n = 40
        start = time.perf_counter()
        for i in range(n):
            result = system.complete_task(f"w{i % 8}", f"p{i % 4}", 2)
            assert result.accepted
        elapsed = time.perf_counter() - start
        system.settle()
        rows.append([
            "separ (tokens+chain)", f"{n / elapsed:.0f} tasks/s",
            f"{elapsed / n * 1e3:.2f}ms",
            system.registry.total_spent(),
        ])
        rest = elapsed - totals["request_tokens"] - totals["spend"]
        for part, seconds in [
            ("token issuance (blind RSA)", totals["request_tokens"]),
            ("token spend (verify + registry)", totals["spend"]),
            ("pipeline (route, order, apply, anchor)", rest),
        ]:
            split.append([part, f"{seconds / n * 1e3:.2f}ms",
                          f"{seconds / elapsed:.0%}"])
        db = Database("plain2")
        db.create_table(TableSchema.build(
            "tasks",
            [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
             ("hours", ColumnType.INT)],
            primary_key=["task_id"],
        ))
        start = time.perf_counter()
        for i in range(n):
            db.insert("tasks", {"task_id": f"b{i}", "worker": f"w{i % 8}",
                                "hours": 2})
        elapsed = time.perf_counter() - start
        rows.append([
            "unregulated baseline", f"{n / elapsed:,.0f} tasks/s",
            f"{elapsed / n * 1e3:.3f}ms", "-",
        ])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print_table(
            "E11: Separ end-to-end vs unregulated baseline (40 tasks)",
            ["system", "throughput", "latency/task", "tokens spent"],
            rows,
        )
        print_table(
            "E11: where a Separ task's time goes",
            ["part", "per task", "share"],
            split,
        )
