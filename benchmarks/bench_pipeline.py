"""E1 (Figure 2): per-update pipeline cost per RC1 engine — a shape.

Runs the full submit() path — authenticate, verify, apply, anchor — on
the sustainability workload across the engine menu.  The series to
observe: plaintext >> enclave > zkp/paillier (crypto dominates), the
overhead ordering the paper predicts for RC1's technique menu, on a
handful of updates over shallow state.  It is not performance
evidence: end-to-end throughput and latency come from
``benchmarks/e2e/run.py`` only (see ``benchmarks/e2e/README.md``).

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline.py \
        --benchmark-only -s
"""

import itertools
import time

import pytest

from repro.core.contexts import single_private_database
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import upper_bound_regulation
from repro.model.update import Update, UpdateOperation

from _report import print_table

ENGINES = ["plaintext", "enclave", "paillier", "zkp"]
_ids = itertools.count()


def build(engine):
    db = Database("mgr")
    db.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    ))
    regulation = upper_bound_regulation(
        "cap", "emissions", "co2", 10**7, ["org"]
    )
    return single_private_database(db, [regulation], engine=engine)


def one_update(framework):
    i = next(_ids)
    framework.submit(Update(
        table="emissions", operation=UpdateOperation.INSERT,
        payload={"id": i, "org": f"org{i % 8}", "co2": 10},
    ))


@pytest.mark.parametrize("engine", ENGINES)
def test_pipeline_update_cost(benchmark, engine):
    framework = build(engine)
    benchmark.pedantic(one_update, args=(framework,), rounds=10,
                       iterations=3, warmup_rounds=1)


def test_pipeline_report(benchmark, capsys):
    """Prints the E1 summary row set (stage timings per engine)."""
    rows = []

    def sweep():
        rows.clear()
        for engine in ENGINES:
            framework = build(engine)
            start = time.perf_counter()
            n = 20
            for _ in range(n):
                one_update(framework)
            elapsed = time.perf_counter() - start
            verify_mean = framework.engine.metrics.timer(
                f"{framework.engine.name}.check"
            ).mean
            rows.append([
                engine,
                f"{n / elapsed:.0f}/s",
                f"{verify_mean * 1e3:.3f}ms",
                f"{framework.acceptance_rate():.2f}",
            ])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print_table(
            "E1: Figure-2 pipeline, per-engine",
            ["engine", "throughput", "verify-mean", "accept-rate"],
            rows,
        )
