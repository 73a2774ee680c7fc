"""E12 (Section 6, TPC): TPC-C with and without the constraint layer.

The NEW-ORDER/PAYMENT mix on the raw substrate versus the same mix with
PReVer's regulated-update layer expressing the TPC-C consistency
conditions.  The delta is the price of regulation enforcement on a
standardized transactional workload.
"""

import pytest

from repro.core.framework import PReVer
from repro.database.engine import Database
from repro.database.expr import lit, update_field
from repro.model.constraints import Constraint, ConstraintKind
from repro.model.update import Update, UpdateOperation
from repro.workloads.tpcc import TPCCWorkload

from _report import print_table

TRANSACTIONS = 150


def run_raw():
    workload = TPCCWorkload(warehouses=2, items=50, seed=33)
    db = Database("tpcc-raw")
    workload.load(db)
    workload.run_mix(db, TRANSACTIONS)
    assert TPCCWorkload.check_consistency(db)
    return workload.stats


def run_regulated():
    """Same mix, but every stock decrement flows through a PReVer
    pipeline carrying the non-negative-stock constraint."""
    workload = TPCCWorkload(warehouses=2, items=50, seed=33)
    db = Database("tpcc-reg")
    workload.load(db)
    framework = PReVer([db])
    framework.register_constraint(Constraint(
        name="stock-non-negative", kind=ConstraintKind.INTERNAL,
        predicate=update_field("s_quantity") >= lit(0),
        tables=("stock",),
    ))
    # Run the mix; route each stock write through the framework.
    original_update = db.update

    def regulated_update(table, key, changes):
        if table == "stock":
            # Route through the pipeline; restore the raw update method
            # while the framework applies so it doesn't recurse back in.
            db.update = original_update
            try:
                result = framework.submit(Update(
                    table="stock", operation=UpdateOperation.MODIFY,
                    payload=changes, key=key,
                ))
            finally:
                db.update = regulated_update
            if not result.applied:
                raise AssertionError("constraint rejected a valid decrement")
            return changes
        return original_update(table, key, changes)

    db.update = regulated_update
    workload.run_mix(db, TRANSACTIONS)
    db.update = original_update
    assert TPCCWorkload.check_consistency(db)
    return workload.stats, framework


def test_tpcc_raw(benchmark):
    benchmark.pedantic(run_raw, rounds=3, iterations=1)


def test_tpcc_regulated(benchmark):
    benchmark.pedantic(run_regulated, rounds=3, iterations=1)


def test_tpcc_report(benchmark, capsys):
    import time

    rows = []

    def sweep():
        rows.clear()
        start = time.perf_counter()
        stats = run_raw()
        raw_time = time.perf_counter() - start
        rows.append(["raw substrate", f"{TRANSACTIONS / raw_time:,.0f} tx/s",
                     stats.new_orders, stats.payments, stats.rollbacks])
        start = time.perf_counter()
        stats, framework = run_regulated()
        reg_time = time.perf_counter() - start
        rows.append([
            "regulated (PReVer)", f"{TRANSACTIONS / reg_time:,.0f} tx/s",
            stats.new_orders, stats.payments, stats.rollbacks,
        ])
        rows.append([
            "overhead", f"{reg_time / raw_time:.2f}x", "-", "-",
            f"{len(framework.ledger)} anchored",
        ])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print_table(
            f"E12: TPC-C mix, raw vs regulated ({TRANSACTIONS} txs)",
            ["configuration", "throughput", "new-orders", "payments",
             "rollbacks"],
            rows,
        )
