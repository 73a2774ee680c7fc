"""Capstone integration: the extension features composed into one
deployment — declarative regulations, a windowed range-indexed store,
distributed token issuance, authenticated reads, auditor gossip, and
PSI cross-platform checks, all in a single scenario.
"""

import pytest

from repro import (
    ColumnType,
    Database,
    TableSchema,
    Update,
    UpdateOperation,
    parse_regulation,
    single_private_database,
)
from repro.core.separ import SeparSystem
from repro.ledger.audit import LedgerAuditor
from repro.ledger.authenticated import (
    AuthenticatedTableView,
    verify_absence,
    verify_row,
)
from repro.privacy.psi import PSIParty, check_max_membership


def test_declarative_windowed_regulation_on_indexed_store():
    """DSL regulation + range index: same behaviour, indexed scan."""
    db = Database("mgr")
    db.create_table(TableSchema.build(
        "tasks",
        [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT), ("completed_at", ColumnType.FLOAT)],
        primary_key=["task_id"],
    ))
    db.table("tasks").create_range_index("completed_at")
    regulation = parse_regulation(
        "SUM(hours) PER worker WITHIN 7d OF completed_at <= 40 ON tasks",
        name="flsa",
    )
    framework = single_private_database(db, [regulation], engine="plaintext")

    day = 86_400.0
    def submit(task_id, hours, at):
        framework.clock.advance_to(at)
        return framework.submit(Update(
            table="tasks", operation=UpdateOperation.INSERT,
            payload={"task_id": task_id, "worker": "w", "hours": hours,
                     "completed_at": at},
        ))

    assert submit("t1", 20, 0.0).accepted
    assert submit("t2", 20, 1 * day).accepted
    assert not submit("t3", 1, 2 * day).accepted       # 41 in-window
    assert submit("t4", 20, 8 * day).accepted          # t1 rolled out

    # Authenticated reads over the same store.
    view = AuthenticatedTableView(db.table("tasks"))
    commitment = view.snapshot()
    proof = view.prove_row(("t2",))
    assert verify_row(commitment, proof)
    assert verify_absence(commitment, view.prove_absent(("t3",)))

    # And the decision ledger audits clean.
    assert LedgerAuditor().audit(framework.ledger, spot_check=2).ok


def test_separ_with_all_extensions():
    """Separ + distributed authority + PSI exclusivity check +
    gossiping auditors over the spend ledger."""
    system = SeparSystem(["uber", "lyft", "grab"], weekly_hour_cap=20,
                         distributed_authority=3)
    for name in ("anne", "bob"):
        system.register_worker(name)

    assert system.complete_task("anne", "uber", 12).accepted
    assert system.complete_task("anne", "lyft", 8).accepted
    assert not system.complete_task("anne", "grab", 1).accepted
    assert system.complete_task("bob", "grab", 20).accepted

    # PSI JOIN-shaped regulation: no pseudonym on more than 2 platforms.
    period = system.current_period()
    parties = [
        PSIParty(name, {
            row["pseudonym"]
            for row in platform.tasks.rows()
        })
        for name, platform in system.platforms.items()
    ]
    assert check_max_membership(parties, limit=2)
    # anne is on exactly 2 platforms; a limit of 1 must trip.
    assert not check_max_membership(parties, limit=1)

    # Two independent auditors gossip over the spend ledger.
    auditor_a, auditor_b = LedgerAuditor("a"), LedgerAuditor("b")
    assert auditor_a.audit(system.registry.ledger).ok
    system.advance_weeks(1)
    system.complete_task("bob", "uber", 3)
    assert auditor_b.audit(system.registry.ledger).ok
    assert auditor_a.cross_check(auditor_b, system.registry.ledger)

    # Distributed-authority invariant: every signer agrees on issuance.
    for worker in ("anne", "bob"):
        counts = {
            signer.issued_count(worker, period)
            for signer in system.authority.signers
        }
        assert len(counts) == 1


def test_zkp_engine_with_parsed_lower_bound_regulation():
    """DSL -> GE regulation -> ZK lower-bound proofs, end to end."""
    db = Database("mgr")
    db.create_table(TableSchema.build(
        "reports",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("amount", ColumnType.INT)],
        primary_key=["id"],
    ))
    regulation = parse_regulation(
        "SUM(amount) PER org >= 10 ON reports", name="minimum"
    )
    framework = single_private_database(db, [regulation], engine="zkp")
    r1 = framework.submit(Update(
        table="reports", operation=UpdateOperation.INSERT,
        payload={"id": 1, "org": "x", "amount": 4},
    ))
    assert not r1.accepted
    r2 = framework.submit(Update(
        table="reports", operation=UpdateOperation.INSERT,
        payload={"id": 2, "org": "x", "amount": 12},
    ))
    assert r2.accepted
    # The manager's transcript holds commitments only.
    values = [v for k, v in framework.engine.manager_transcript
              if k == "commitment"]
    assert values and 12 not in values
