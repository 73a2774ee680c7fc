#!/usr/bin/env python3
"""Sharded front-end demo: partition, route, escalate, recover.

Builds a :class:`~repro.core.sharded.ShardedPReVer` that partitions an
orders table and a payments table across two shards, each a full
PReVer instance with its own ledger and write-ahead log.  It then:

1. submits a mixed batch and shows per-shard routing, decisions, and
   the Merkle **root-of-roots** over the per-shard ledger roots;
2. registers a *cross-shard* COUNT budget with an RC2 token verifier —
   no single shard can see enough state to check it — and shows an
   over-budget update being rejected coordinator-side, anchored on the
   escalation ledger, without touching any shard's ledger;
3. restarts: a fresh front-end recovers every shard from its own WAL,
   re-verifies each shard root against its last durable anchor, and
   reproduces the identical root-of-roots.

Run:  PYTHONPATH=src python examples/sharded_pipeline.py [--dir STATE_DIR]
"""

import argparse
import functools
import os
import shutil
import tempfile

from repro import (
    ColumnType,
    Constraint,
    ConstraintKind,
    Database,
    Durability,
    ShardedPReVer,
    ShardSpec,
    TableSchema,
    Update,
    UpdateOperation,
    upper_bound_regulation,
)
from repro.core.federated import TokenVerifier
from repro.core.framework import PReVer
from repro.model.constraints import AggregateSpec, Comparison

SHARD_TABLES = {"orders-shard": "orders", "payments-shard": "payments"}


def build_shard(name, table, state_dir):
    """Builder for one shard: its own database, cap regulation, and WAL."""
    database = Database(name)
    database.create_table(TableSchema.build(
        table,
        [("id", ColumnType.INT), ("who", ColumnType.TEXT),
         ("amount", ColumnType.INT)],
        primary_key=["id"],
    ))
    cap = upper_bound_regulation(
        f"{table}-cap", table, "amount", bound=100, match_columns=["who"]
    )
    cap.constraint_id = f"cst-{table}-cap"  # stable across rebuilds
    framework = PReVer(
        [database], durability=Durability.wal(os.path.join(state_dir, name))
    )
    framework.register_constraint(Constraint(
        name=cap.name, kind=ConstraintKind.INTERNAL,
        aggregate=cap.aggregate, comparison=cap.comparison,
        bound=cap.bound, tables=cap.tables,
        constraint_id=cap.constraint_id,
    ))
    return framework


def build_front_end(state_dir):
    specs = [
        ShardSpec(name, (table,),
                  functools.partial(build_shard, name, table, state_dir))
        for name, table in sorted(SHARD_TABLES.items())
    ]
    return ShardedPReVer(specs)


def mixed_batch(first_id, n):
    tables = sorted(SHARD_TABLES.values())
    return [
        Update(table=tables[i % 2], operation=UpdateOperation.INSERT,
               payload={"id": i, "who": "alice", "amount": 10},
               update_id=f"upd-{i:05d}", producers=["alice"])
        for i in range(first_id, first_id + n)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description="sharded front-end demo")
    parser.add_argument("--dir", default="",
                        help="state directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)
    state_dir = args.dir or tempfile.mkdtemp(prefix="sharded-pipeline-")

    # -- 1. partition and route ---------------------------------------------
    front = build_front_end(state_dir)
    results = front.submit_many(mixed_batch(0, 8))
    digest = front.digest()
    print("== two shards ==")
    for result in results[:4]:
        print(f"  {result.update.update_id} -> shard {result.shard!r} "
              f"(applied={result.applied})")
    print(f"  root-of-roots {digest.root.hex()[:16]}…  "
          f"shard sizes {list(digest.shard_sizes)}")

    # -- 2. a cross-shard budget, enforced fail-closed ----------------------
    # COUNT over orders AND payments: neither shard sees both tables,
    # so the constraint must escalate to an RC2 federated verifier.
    global_budget = Constraint(
        name="global-count", kind=ConstraintKind.INTERNAL,
        aggregate=AggregateSpec(func="COUNT", column=None),
        comparison=Comparison.LE, bound=2,
        tables=tuple(sorted(SHARD_TABLES.values())),
        constraint_id="cst-global-count",
    )
    front.register_cross_shard_constraint(
        global_budget, TokenVerifier(global_budget)
    )
    escalated = front.submit_many(mixed_batch(100, 4))
    accepted = [r for r in escalated if r.applied]
    rejected = [r for r in escalated if not r.applied]
    print("\n== cross-shard COUNT<=2 budget (token escalation) ==")
    print(f"  accepted {len(accepted)}, rejected {len(rejected)} "
          f"(budget exhausted)")
    for result in rejected:
        print(f"  {result.update.update_id} rejected by "
              f"{result.outcome.failed_constraint!r}, anchored on the "
              f"escalation ledger at seq {result.ledger_sequence} "
              f"(shard={result.shard})")
    assert len(front.escalation_ledger) == len(rejected)
    root_before_restart = front.digest().root
    front.close()

    # -- 3. restart: per-shard recovery, same root-of-roots -----------------
    recovered = build_front_end(state_dir)
    reports = recovered.recover()
    print("\n== recovery (per shard) ==")
    for name, report in sorted(reports.items()):
        print(f"  {name}: replayed {report.replayed_updates} updates, "
              f"root verified against anchor: "
              f"{report.verified_against_anchor}")
    assert all(r.verified_against_anchor for r in reports.values())
    assert recovered.digest().root == root_before_restart, \
        "recovery must reproduce the root-of-roots"
    print(f"  root-of-roots reproduced: "
          f"{recovered.digest().root.hex()[:16]}…")

    # -- 4. ...and keeps serving --------------------------------------------
    more = recovered.submit_many(mixed_batch(200, 4))
    print(f"\n  post-recovery batch: applied "
          f"{sum(r.applied for r in more)}/4")
    recovered.close()

    if not args.dir:
        shutil.rmtree(state_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
