"""The context factories and the Separ instantiation."""

import pytest

from repro.common.errors import PReVerError
from repro.core.contexts import (
    federated_private_databases,
    public_database,
    single_private_database,
)
from repro.core.federated import TokenVerifier
from repro.core.framework import PReVer
from repro.core.separ import ISSUER_UNAVAILABLE, SeparSystem, WEEK_SECONDS
from repro.core.verifiers import EngineError
from repro.database.engine import Database
from repro.database.expr import lit
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    AggregateSpec,
    Comparison,
    Constraint,
    ConstraintKind,
    lower_bound_regulation,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation


def reports_db(name="db"):
    db = Database(name)
    db.create_table(
        TableSchema.build(
            "reports",
            [("id", ColumnType.INT), ("org", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def test_unknown_engines_rejected():
    with pytest.raises(PReVerError):
        single_private_database(reports_db(), [
            upper_bound_regulation("c", "reports", "amount", 1, ["org"])
        ], engine="magic")
    with pytest.raises(PReVerError):
        federated_private_databases(
            [reports_db("a"), reports_db("b")],
            upper_bound_regulation("c", "reports", "amount", 1, ["org"]),
            engine="magic",
        )


def test_federation_needs_two_databases():
    with pytest.raises(PReVerError):
        federated_private_databases(
            [reports_db()],
            upper_bound_regulation("c", "reports", "amount", 1, ["org"]),
        )


@pytest.mark.parametrize("engine", ["plaintext", "paillier", "zkp", "enclave"])
def test_rc1_contexts_enforce_identically(engine):
    db = reports_db()
    framework = single_private_database(
        db, [upper_bound_regulation("cap", "reports", "amount", 50, ["org"])],
        engine=engine,
    )
    decisions = []
    for i, amount in enumerate([30, 20, 1]):
        update = Update(table="reports", operation=UpdateOperation.INSERT,
                        payload={"id": i, "org": "x", "amount": amount})
        decisions.append(framework.submit(update).accepted)
    assert decisions == [True, True, False]


def test_rc1_policy_defaults_to_sustainability_matrix():
    framework = single_private_database(
        reports_db(),
        [upper_bound_regulation("cap", "reports", "amount", 50, ["org"])],
    )
    assert not framework.policy.manager_may_see_data
    assert framework.policy.manager_may_see_constraints


def test_rc3_context_applies_only_eligible_updates():
    db = Database("venue")
    db.create_table(TableSchema.build(
        "attendees", [("name", ColumnType.TEXT)], primary_key=["name"]))
    names = ["a", "b"]
    records = [b"ok", b"deny"]
    constraint = Constraint(name="c", kind=ConstraintKind.INTERNAL,
                            predicate=lit(True), tables=("attendees",))
    framework, verifier = public_database(
        db, constraint, records,
        record_index_of=lambda u: names.index(u.payload["name"]),
        predicate=lambda rec, u: rec.rstrip(b"\0") == b"ok",
        record_size=16,
    )
    ok = framework.submit(Update(table="attendees",
                                 operation=UpdateOperation.INSERT,
                                 payload={"name": "a"}))
    deny = framework.submit(Update(table="attendees",
                                   operation=UpdateOperation.INSERT,
                                   payload={"name": "b"}))
    assert ok.accepted and not deny.accepted
    assert ok.outcome.evidence["credential"] is not None
    assert verifier.check_credential(ok.update, ok.outcome.evidence["credential"])


# -- Separ ------------------------------------------------------------------------

def separ():
    system = SeparSystem(["uber", "lyft", "grab"], weekly_hour_cap=40)
    system.register_worker("w")
    return system


def test_separ_enforces_cross_platform_cap():
    system = separ()
    assert system.complete_task("w", "uber", 25).accepted
    assert system.complete_task("w", "lyft", 15).accepted
    result = system.complete_task("w", "grab", 1)
    assert not result.accepted
    assert result.reason == "weekly hour cap reached"
    assert system.hours_worked("w") == 40


def test_separ_no_platform_sees_worker_identity():
    system = separ()
    system.complete_task("w", "uber", 10)
    system.complete_task("w", "lyft", 10)
    for platform in system.platforms.values():
        rows = platform.tasks.rows()
        assert all(row["pseudonym"] != "w" for row in rows)
        assert "w" not in str(platform.observed_serials)


def test_separ_platform_shards_hold_no_worker_name(tmp_path, monkeypatch):
    """Every platform shard's rows, anchored ledger payloads and WAL
    records carry weekly pseudonyms only — and so does everything
    ordered on the shared blockchain.  The names use letters that no
    hex pseudonym or serial can contain by chance."""
    from repro.common.serialization import canonical_json
    from repro.core import separ as separ_module
    from repro.durability import Durability

    replicas = iter(range(100))

    def durable_platform(databases, **kwargs):
        directory = tmp_path / f"replica-{next(replicas)}"
        return PReVer(databases, durability=Durability.wal(str(directory)),
                      **kwargs)

    monkeypatch.setattr(separ_module, "PReVer", durable_platform)
    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=10)
    names = ["zoltan-qx", "yvonne-kz"]
    for name in names:
        system.register_worker(name)
    for name in names:
        assert system.complete_task(name, "uber", 6).accepted
        assert system.complete_task(name, "lyft", 4).accepted
        assert not system.complete_task(name, "lyft", 1).accepted
    system.coordinator.close()

    held = []
    for platform in system.platforms.values():
        for replica in platform.shard.replicas:
            held.append(canonical_json(replica.databases[0].table(
                platform.table).rows()))
            held.extend(canonical_json(e.payload)
                        for e in replica.ledger.entries())
    wal_files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert len(list(tmp_path.iterdir())) == 4  # 2 platforms x 2 replicas
    held.extend(path.read_bytes().decode("latin-1") for path in wal_files)
    held.extend(canonical_json(e.payload)
                for e in system.coordinator.escalation_ledger.entries())
    for cluster in system.blockchain.shards.values():
        held.extend(canonical_json(value) for value in cluster.committed())
    assert sum("task-" in text for text in held) > 4
    for name in names:
        assert not any(name in text for text in held)


def test_separ_weekly_reset():
    system = separ()
    assert system.complete_task("w", "uber", 40).accepted
    assert not system.complete_task("w", "uber", 1).accepted
    system.advance_weeks(1)
    assert system.complete_task("w", "uber", 40).accepted


def test_separ_pseudonyms_rotate_weekly():
    system = separ()
    system.complete_task("w", "uber", 5)
    first = system.workers["w"].pseudonym(0)
    system.advance_weeks(1)
    system.complete_task("w", "uber", 5)
    second = system.workers["w"].pseudonym(1)
    assert first != second


def test_separ_lower_bound_regulation():
    system = separ()
    system.complete_task("w", "uber", 12)
    assert system.check_lower_bound("w", 10)
    assert not system.check_lower_bound("w", 13)


def test_separ_authority_single_point_of_failure():
    """The paper's acknowledged Separ limitation, reproduced."""
    system = separ()
    system.authority_offline = True
    result = system.complete_task("w", "uber", 5)
    assert not result.accepted
    assert result.reason == "authority unavailable"
    # The rejection is decided and anchored coordinator-side, naming
    # the issuer rather than the cap.
    anchored = system.coordinator.escalation_ledger.entry(0).payload
    assert anchored["decision"]["failed_constraint"] == ISSUER_UNAVAILABLE
    system.authority_offline = False
    assert system.complete_task("w", "uber", 5).accepted


def test_separ_offline_authority_halts_issuance_not_spending():
    """Tokens the worker already holds still pay while the authority
    is down; only a task that needs new tokens is refused."""
    system = separ()
    worker = system.workers["w"]
    worker.wallet.request_tokens(system.authority, 0, 8)
    system.authority_offline = True
    assert system.complete_task("w", "uber", 5).accepted
    result = system.complete_task("w", "lyft", 4)
    assert not result.accepted
    assert result.reason == "authority unavailable"
    assert system.complete_task("w", "lyft", 3).accepted
    assert system.hours_worked("w") == 8


def test_separ_token_mechanism_accepts_only_bound_constraints():
    """The paper's generalization gap: tokens enforce COUNT/SUM upper
    bounds; anything richer is refused before it can be registered."""
    system = separ()
    tables = tuple(p.table for p in system.platforms.values())
    average = Constraint(
        name="mean-task", kind=ConstraintKind.REGULATION,
        aggregate=AggregateSpec(func="AVG", column="hours",
                                match_columns=("pseudonym",)),
        comparison=Comparison.LE, bound=8, tables=tables,
    )
    with pytest.raises(EngineError, match="COUNT/SUM"):
        system.coordinator.register_cross_shard_constraint(
            average, TokenVerifier(average))
    minimum = lower_bound_regulation("minimum", tables[0], "hours", 10,
                                     ["pseudonym"])
    minimum.tables = tables
    with pytest.raises(EngineError, match="upper bounds"):
        system.coordinator.register_cross_shard_constraint(
            minimum, TokenVerifier(minimum))


def test_separ_collusion_view_pools_only_pseudonym_counts():
    system = separ()
    system.complete_task("w", "uber", 10)
    system.complete_task("w", "lyft", 5)
    view = system.collusion_view(["uber", "lyft"])
    pseudonym = system.workers["w"].pseudonym(0)
    # The coalition can total tasks per pseudonym (2 tasks)...
    assert view["pseudonym_counts"][pseudonym] == 2
    # ...but sees 15 unlinkable serials, not who the worker is.
    assert len(view["serials"]) == 15
    assert "w" not in str(view)


def test_separ_blockchain_anchors_spends():
    system = separ()
    system.complete_task("w", "uber", 3)
    system.settle()
    counts = system.blockchain.committed_counts()
    assert sum(counts.values()) >= 1


def test_separ_rejects_nonpositive_hours():
    system = separ()
    assert not system.complete_task("w", "uber", 0).accepted


def test_separ_needs_multiple_platforms():
    with pytest.raises(PReVerError):
        SeparSystem(["solo"])


def test_separ_regulation_signed_by_authority():
    system = separ()
    assert system.authority_participant.verifier().verify(
        system.regulation.body_bytes(), system.regulation.signature
    )
