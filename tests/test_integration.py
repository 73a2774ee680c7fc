"""End-to-end integration: the full Figure-2 pipeline per context, with
integrity auditing on top — the scenarios a PReVer adopter would run.
"""

import pytest

from repro import (
    Authority,
    ColumnType,
    Database,
    DataProducer,
    PReVer,
    TableSchema,
    Update,
    UpdateOperation,
    upper_bound_regulation,
    single_private_database,
    federated_private_databases,
)
from repro.core.separ import SeparSystem
from repro.ledger.audit import LedgerAuditor
from repro.workloads.ycsb import YCSBOperation, YCSBWorkload


def test_single_private_database_full_lifecycle():
    """RC1 + RC4: encrypted verification, application, and audit."""
    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    db = Database("cloud")
    db.create_table(schema)
    regulation = upper_bound_regulation("cap", "emissions", "co2", 500, ["org"])
    framework = single_private_database(db, [regulation], engine="paillier")

    auditor = LedgerAuditor("regulator")
    accepted = rejected = 0
    for i, amount in enumerate([100, 200, 150, 100, 50]):
        update = Update(table="emissions", operation=UpdateOperation.INSERT,
                        payload={"id": i, "org": "acme", "co2": amount})
        result = framework.submit(update)
        accepted += result.applied
        rejected += not result.applied
        assert auditor.audit(framework.ledger).ok

    # 100+200+150 = 450 fits; +100 would be 550 (reject); +50 = 500 fits.
    assert accepted == 4 and rejected == 1
    assert db.aggregate("emissions", "SUM", "co2") == 500
    # The full decision history (including the rejection) is on the ledger.
    statuses = [e["status"] for e in framework.decision_history()]
    assert statuses.count("rejected") == 1


def test_federated_pipeline_with_signed_updates_and_audit():
    """RC2 + provenance + RC4."""
    def platform(name):
        db = Database(name)
        db.create_table(TableSchema.build(
            "tasks",
            [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
             ("hours", ColumnType.INT)],
            primary_key=["task_id"],
        ))
        return db

    dbs = [platform("uber"), platform("lyft")]
    regulation = upper_bound_regulation("flsa", "tasks", "hours", 40, ["worker"])
    framework, verifier = federated_private_databases(dbs, regulation,
                                                      engine="mpc")
    framework.require_signed_updates = True
    worker = DataProducer("dora")

    def submit(hours, manager, sign=True):
        update = Update(
            table="tasks", operation=UpdateOperation.INSERT,
            payload={"task_id": f"t-{manager}-{hours}", "worker": "dora",
                     "hours": hours},
            managers=[manager],
        )
        if sign:
            update.sign_with(worker)
        else:
            update.producers.append("dora")
        return framework.submit(update)

    assert submit(30, "uber").accepted
    assert submit(10, "lyft").accepted
    assert not submit(1, "uber").accepted        # cap
    assert not submit(1, "lyft", sign=False).accepted  # unsigned
    assert dbs[0].aggregate("tasks", "SUM", "hours") == 30
    assert dbs[1].aggregate("tasks", "SUM", "hours") == 10
    assert LedgerAuditor().audit(framework.ledger, spot_check=2).ok


def test_separ_anchored_on_blockchain_with_integrity_check():
    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=20)
    system.register_worker("w")
    for platform, hours in [("uber", 8), ("lyft", 8), ("uber", 4)]:
        assert system.complete_task("w", platform, hours).accepted
    assert not system.complete_task("w", "lyft", 1).accepted
    system.settle()
    counts = system.blockchain.committed_counts()
    # One ordered batch per accepted task on its platform's shard; the
    # rejection is ordered on the coordinator's.
    assert counts == {"uber": 2, "lyft": 1, "coordinator": 1}
    # The spend ledger is auditable and consistent.
    assert LedgerAuditor().audit(system.registry.ledger).ok


def test_ycsb_over_regulated_pipeline_vs_plain_database():
    """The Section-6 comparison in miniature: the same YCSB-A write
    stream through a plain database and through the PReVer pipeline
    must produce identical final states (the privacy layer changes
    cost, never semantics)."""
    workload = YCSBWorkload("A", record_count=50, operation_count=300, seed=9)
    schema = TableSchema.build(
        "kv", [("key", ColumnType.INT), ("value", ColumnType.INT)],
        primary_key=["key"],
    )

    plain = Database("plain")
    plain.create_table(schema)
    regulated_db = Database("regulated")
    regulated_db.create_table(schema)
    framework = PReVer([regulated_db])

    for key, value in workload.initial_records():
        plain.insert("kv", {"key": key, "value": value})
        framework.submit(Update(table="kv", operation=UpdateOperation.INSERT,
                                payload={"key": key, "value": value}))

    for op in workload.operations():
        if op.op is YCSBOperation.UPDATE:
            plain.update("kv", (op.key,), {"value": op.value})
            framework.submit(Update(
                table="kv", operation=UpdateOperation.MODIFY,
                payload={"value": op.value}, key=(op.key,),
            ))

    assert plain.table("kv").rows() == regulated_db.table("kv").rows()
    assert len(framework.ledger) > 0
