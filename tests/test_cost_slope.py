"""Counted costs per decided update, at depth D and at depth 4D.

Wall-clock gates are noisy on small hosts; asymptotic claims ("O(batch),
not O(state)") can be counted instead.  Each of the four benchmark
shapes runs to a ledger depth D, then to 4D, and the next chunk after
each is counted with test-side wrappers only:

* ``node_hash`` calls (Merkle interior nodes) on all four shapes, per
  decided update and per audit inclusion proof;
* table rows examined by constraint evaluation (``Table.scan``) on the
  two per-group-cap shapes;
* simulated-network messages per batch behind Paxos;
* fsyncs per batch on the WAL-durable path.

A flat row must stay flat: its 4D/D ratio stays within ``TOLERANCE``.
A row that grows today is pinned as a characterisation naming its
owner — the change that makes it flat flips its assertion in the same
diff:

* node hashes grow with depth because the ledger re-hashes every leaf
  on every digest and proof (ROADMAP item 3, stored Merkle levels).
  The in-memory single-framework shapes take no digest on the write
  path, so there the per-update row is flat at zero and only the
  audit proof grows;
* rows examined grow with depth on the plaintext per-group cap because
  the engine re-scans the table per batch (ROADMAP item 4, one
  running-aggregate mechanism).

Print the counts with ``PYTHONPATH=src python tests/test_cost_slope.py``.
"""

import os

import pytest

from repro.common.randomness import deterministic_rng
from repro.consensus.driver import PaxosDriver
from repro.core.contexts import single_private_database
from repro.core.replicated import ReplicatedShard, ShardHandle
from repro.crypto import merkle
from repro.crypto.paillier import generate_paillier_keypair
from repro.database.engine import Database
from repro.database.expr import col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation
from repro.parallel.executors import SERIAL_EXECUTOR

DEPTH = 128
CHUNK = 16
#: A flat row's 4D/D ratio stays inside [1/TOLERANCE, TOLERANCE].
TOLERANCE = 1.25
#: A growing row's 4D/D ratio today is about 4 (linear in depth).
GROWS = 3.0
PAILLIER_KEYPAIR = generate_paillier_keypair(256, rng=deterministic_rng(7))


# -- the four shapes ----------------------------------------------------------


def build_emissions(directory=None):
    """Plaintext, one row predicate ``co2 <= 90`` (O(1) verify)."""
    database = Database("manager")
    database.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)], primary_key=["id"]))
    regulation = Constraint(
        name="co2-limit", kind=ConstraintKind.REGULATION,
        predicate=col("co2") <= lit(90), tables=("emissions",),
        constraint_id="cst-cost-co2")
    durability = Durability.serving(directory) if directory else None
    return single_private_database(database, [regulation],
                                   engine="plaintext", durability=durability,
                                   executor=SERIAL_EXECUTOR)


def emissions_updates(start, count):
    return [
        Update(table="emissions", operation=UpdateOperation.INSERT,
               payload={"id": i, "org": f"org-{i % 256:03d}",
                        "co2": (30, 30, 30, 95)[i % 4]},
               update_id=f"e{i:08d}")
        for i in range(start, start + count)
    ]


def build_tasks(engine):
    """The per-worker cap ``SUM(hours) <= 400`` under ``engine``."""
    database = Database("manager")
    database.create_table(TableSchema.build(
        "tasks",
        [("id", ColumnType.INT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)], primary_key=["id"]))
    cap = upper_bound_regulation("flsa", "tasks", "hours", 400, ["worker"])
    cap.constraint_id = "cst-cost-flsa"
    framework = single_private_database(database, [cap], engine=engine,
                                        executor=SERIAL_EXECUTOR)
    if engine == "paillier":
        framework.engine.keypair = PAILLIER_KEYPAIR
    return framework


def task_updates(start, count):
    return [
        Update(table="tasks", operation=UpdateOperation.INSERT,
               payload={"id": i, "worker": f"w{i % 64:03d}",
                        "hours": 1 + i % 8},
               update_id=f"t{i:08d}")
        for i in range(start, start + count)
    ]


class Counts:
    """Test-side counting wrappers, installed for one chunk at a time."""

    def __init__(self, monkeypatch, tables=(), network=None):
        self.monkeypatch = monkeypatch
        self.tables = tables
        self.network = network
        self.node_hashes = self.rows = self.fsyncs = self.messages = 0

    def __enter__(self):
        node_hash, fsync = merkle.node_hash, os.fsync

        def counted_node_hash(left, right):
            self.node_hashes += 1
            return node_hash(left, right)

        def counted_fsync(fd):
            self.fsyncs += 1
            return fsync(fd)

        self.monkeypatch.setattr(merkle, "node_hash", counted_node_hash)
        self.monkeypatch.setattr(os, "fsync", counted_fsync)
        for table in self.tables:
            scan = table.scan

            def counted_scan(predicate=None, _scan=scan):
                for row in _scan(predicate):
                    self.rows += 1
                    yield row

            self.monkeypatch.setattr(table, "scan", counted_scan)
        if self.network is not None:
            self.messages = -self.network.message_count
        return self

    def __exit__(self, *exc):
        if self.network is not None:
            self.messages += self.network.message_count
        self.monkeypatch.undo()


def shape(name, tmp_path):
    """``(shard handle, make_updates, batch, tables, network)``."""
    if name == "serve_durable":
        framework = build_emissions(str(tmp_path / "wal"))
        return ShardHandle(framework), emissions_updates, CHUNK, (), None
    if name in ("group_plain", "group_paillier"):
        engine = {"group_plain": "plaintext", "group_paillier": "paillier"}
        framework = build_tasks(engine[name])
        tables = (framework.databases[0].table("tasks"),)
        return ShardHandle(framework), task_updates, CHUNK, tables, None
    shard = ReplicatedShard(build_emissions, replicas=3, driver=PaxosDriver())
    return shard, emissions_updates, 8, (), shard.driver.cluster.network


def measure(name, tmp_path, monkeypatch):
    """Per decided update (and per batch) in the chunk after depth D
    and after depth 4D, and per inclusion proof at that depth:
    ``{row: (at D, at 4D)}``."""
    handle, make, batch, tables, network = shape(name, tmp_path)
    submit = handle.submit_many
    readings = []
    decided = 0
    for depth in (DEPTH, 4 * DEPTH):
        while decided < depth:
            submit(make(decided, batch))
            decided += batch
        with Counts(monkeypatch, tables, network) as counts:
            for _ in range(CHUNK // batch):
                submit(make(decided, batch))
                decided += batch
        ledger = handle.framework.ledger
        with Counts(monkeypatch) as proof:
            ledger.prove_inclusion(len(ledger) // 2)
        batches = CHUNK // batch
        readings.append({
            "node_hashes_per_update": counts.node_hashes / CHUNK,
            "node_hashes_per_proof": proof.node_hashes,
            "rows_examined_per_update": counts.rows / CHUNK,
            "messages_per_batch": counts.messages / batches,
            "fsyncs_per_batch": counts.fsyncs / batches,
        })
    handle.close()
    return {row: (readings[0][row], readings[1][row]) for row in readings[0]}


def ratio(pair):
    at_d, at_4d = pair
    return at_4d / at_d if at_d else (1.0 if not at_4d else float("inf"))


def flat(pair):
    return 1 / TOLERANCE <= ratio(pair) <= TOLERANCE


SHAPES = ("group_paillier", "group_plain", "replicated_paxos",
          "serve_durable")


@pytest.mark.parametrize("name", SHAPES)
def test_counted_costs_per_decided_update(name, tmp_path, monkeypatch):
    rows = measure(name, tmp_path, monkeypatch)
    # ROADMAP item 3 owns these rows: every digest and every proof
    # re-hashes every leaf, so node hashes grow linearly with depth
    # today.  Stored Merkle levels make them flat; that change flips
    # these assertions.
    assert ratio(rows["node_hashes_per_proof"]) > GROWS, rows
    if name in ("serve_durable", "replicated_paxos"):
        assert ratio(rows["node_hashes_per_update"]) > GROWS, rows
    else:
        # No digest on the in-memory write path (no WAL anchor, no
        # replica root check).
        assert rows["node_hashes_per_update"] == (0, 0), rows
    if name == "group_plain":
        # ROADMAP item 4 owns this row: the plaintext engine re-scans
        # the table for each group a batch sights, so rows examined per
        # update grow with the table today.  Persistent running totals
        # make it flat; that change flips this assertion.
        assert ratio(rows["rows_examined_per_update"]) > GROWS, rows
    else:
        # Paillier keeps running totals; row predicates read no table.
        assert rows["rows_examined_per_update"] == (0, 0), rows
    if name == "replicated_paxos":
        assert rows["messages_per_batch"][0] > 0
        assert flat(rows["messages_per_batch"]), rows
    else:
        assert rows["messages_per_batch"] == (0, 0), rows
    if name == "serve_durable":
        # Group commit: one fsync per batch, however deep the log.
        assert rows["fsyncs_per_batch"] == (1, 1), rows
    else:
        assert rows["fsyncs_per_batch"] == (0, 0), rows


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    from _pytest.monkeypatch import MonkeyPatch

    print(f"{'shape':17s} {'row':26s} {'at D':>10s} {'at 4D':>10s}"
          f" {'4D/D':>6s}   (D = {DEPTH} decided updates)")
    for name in SHAPES:
        with tempfile.TemporaryDirectory() as directory:
            rows = measure(name, Path(directory), MonkeyPatch())
        for row, pair in rows.items():
            print(f"{name:17s} {row:26s} {pair[0]:10.1f} {pair[1]:10.1f}"
                  f" {ratio(pair):6.2f}")
