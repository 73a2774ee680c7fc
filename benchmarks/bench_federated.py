"""E5 (RC2): token vs. MPC federated regulation enforcement — a shape.

The paper's centralized/decentralized split: tokens are nearly free per
update but need a trusted authority; MPC removes the authority at a
steep and platform-count-sensitive cost.  The report sweeps the number
of platforms to find the shape (token flat, MPC superlinear), next to
the non-private demarcation baseline.  It is not performance evidence
(see ``benchmarks/e2e/README.md``).

    PYTHONPATH=src python -m pytest benchmarks/bench_federated.py \
        --benchmark-only -s
"""

import itertools
import time

import pytest

from repro.core.federated import MPCVerifier, TokenVerifier
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import upper_bound_regulation
from repro.model.update import Update, UpdateOperation

from _report import print_table

_ids = itertools.count()


def platform_db(name):
    db = Database(name)
    db.create_table(TableSchema.build(
        "tasks",
        [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)],
        primary_key=["task_id"],
    ))
    return db


def flsa(bound=10**6):
    return upper_bound_regulation("flsa", "tasks", "hours", bound, ["worker"])


def task(manager="p0"):
    i = next(_ids)
    return Update(
        table="tasks", operation=UpdateOperation.INSERT,
        payload={"task_id": f"t{i}", "worker": f"w{i % 16}", "hours": 2},
        producers=[f"w{i % 16}"], managers=[manager],
    )


def test_token_verification_cost(benchmark):
    engine = TokenVerifier(flsa())

    benchmark.pedantic(lambda: engine.verify(task(), 0.0), rounds=10,
                       iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("platforms", [2, 4])
def test_mpc_verification_cost(benchmark, platforms):
    dbs = [platform_db(f"p{i}") for i in range(platforms)]
    engine = MPCVerifier(dbs, flsa(bound=1000), width=10)
    benchmark.pedantic(lambda: engine.verify(task(), 0.0), rounds=3,
                       iterations=1)


def test_federated_report(benchmark, capsys):
    rows = []

    def sweep():
        rows.clear()
        # Demarcation (paper ref [19]): the non-private baseline.
        from repro.core.demarcation import DemarcationFederation

        federation = DemarcationFederation(["p0", "p1", "p2", "p3"],
                                           bound=10**6)
        start = time.perf_counter()
        for i in range(200):
            federation.consume(f"p{i % 4}", f"w{i % 16}", 2.0)
        demarcation_cost = (time.perf_counter() - start) / 200
        rows.append([
            "demarcation", 4, f"{demarcation_cost * 1e6:.1f}us",
            "NO privacy", "transfers visible to all peers",
        ])
        # Token: constant cost regardless of platform count.
        engine = TokenVerifier(flsa())
        start = time.perf_counter()
        for _ in range(10):
            engine.verify(task(), 0.0)
        token_cost = (time.perf_counter() - start) / 10
        rows.append(["token", "any", f"{token_cost * 1e3:.2f}ms",
                     "trusted authority", "COUNT/SUM bounds only"])
        for platforms in (2, 4, 6, 8):
            dbs = [platform_db(f"q{platforms}-{i}") for i in range(platforms)]
            engine = MPCVerifier(dbs, flsa(bound=1000), width=10)
            start = time.perf_counter()
            for _ in range(3):
                engine.verify(task(f"q{platforms}-0"), 0.0)
            cost = (time.perf_counter() - start) / 3
            messages = engine.metrics.counter("mpc.messages").total
            rows.append([
                "mpc", platforms, f"{cost * 1e3:.2f}ms",
                "no trusted party", f"{messages / 3:,.0f} msgs/verify",
            ])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print_table(
            "E5: federated regulation enforcement, token vs MPC",
            ["mechanism", "platforms", "cost/update", "trust", "notes"],
            rows,
        )
