"""The Figure-2 pipeline: authorities, signed updates, apply, anchor."""

import pytest

from repro.common.errors import IntegrityError, PReVerError
from repro.core.framework import PReVer
from repro.database.engine import Database
from repro.database.expr import lit, update_field
from repro.database.schema import ColumnType, TableSchema
from repro.ledger.audit import LedgerAuditor
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.participants import Authority, DataProducer
from repro.model.update import Update, UpdateOperation, UpdateStatus


def make_db(name="db"):
    db = Database(name)
    db.create_table(
        TableSchema.build(
            "events",
            [("id", ColumnType.INT), ("who", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def make_update(i, who="w", amount=10, operation=UpdateOperation.INSERT,
                key=None):
    payload = {"id": i, "who": who, "amount": amount}
    if operation is not UpdateOperation.INSERT:
        payload = {"amount": amount}
    return Update(table="events", operation=operation, payload=payload, key=key)


def test_pipeline_accept_apply_anchor():
    framework = PReVer([make_db()])
    framework.register_constraint(
        Constraint(name="positive", kind=ConstraintKind.INTERNAL,
                   predicate=update_field("amount") > lit(0))
    )
    result = framework.submit(make_update(1, amount=5))
    assert result.accepted and result.applied
    assert result.update.status is UpdateStatus.APPLIED
    assert result.ledger_sequence == 0
    assert framework.databases[0].table("events").get((1,)) is not None
    assert set(result.stage_timings) == {"authenticate", "verify", "apply",
                                         "anchor"}


def test_pipeline_reject_does_not_apply_but_still_anchors():
    framework = PReVer([make_db()])
    framework.register_constraint(
        Constraint(name="positive", kind=ConstraintKind.INTERNAL,
                   predicate=update_field("amount") > lit(0))
    )
    result = framework.submit(make_update(1, amount=-1))
    assert not result.accepted
    assert framework.databases[0].table("events").get((1,)) is None
    # Rejections are part of the audit trail.
    assert len(framework.ledger) == 1
    assert framework.decision_history()[0]["status"] == "rejected"


def test_modify_and_delete_operations():
    framework = PReVer([make_db()])
    framework.submit(make_update(1, amount=5))
    modify = make_update(1, operation=UpdateOperation.MODIFY, key=(1,),
                         amount=7)
    assert framework.submit(modify).applied
    assert framework.databases[0].table("events").get((1,))["amount"] == 7
    delete = Update(table="events", operation=UpdateOperation.DELETE,
                    payload={}, key=(1,))
    assert framework.submit(delete).applied
    assert framework.databases[0].table("events").get((1,)) is None


def test_signed_update_requirement():
    framework = PReVer([make_db()], require_signed_updates=True)
    unsigned = make_update(1)
    result = framework.submit(unsigned)
    assert not result.accepted
    assert result.outcome.failed_constraint == "unsigned update"

    producer = DataProducer("alice")
    signed = make_update(2).sign_with(producer)
    assert framework.submit(signed).accepted


def test_tampered_signature_rejected():
    framework = PReVer([make_db()], require_signed_updates=True)
    producer = DataProducer("alice")
    update = make_update(1).sign_with(producer)
    update.payload["amount"] = 999  # tamper after signing
    result = framework.submit(update)
    assert not result.accepted
    assert result.outcome.failed_constraint == "bad signature"


def test_regulation_requires_authority_signature():
    framework = PReVer([make_db()])
    regulation = upper_bound_regulation("cap", "events", "amount", 100, ["who"])
    with pytest.raises(IntegrityError):
        framework.register_constraint(regulation)
    authority = Authority("gov", external=True)
    framework.register_constraint(regulation, authority)
    assert framework.verify_constraint_provenance(regulation)


def test_internal_authority_cannot_issue_regulations():
    framework = PReVer([make_db()])
    regulation = upper_bound_regulation("cap", "events", "amount", 100, ["who"])
    internal = Authority("self", external=False)
    with pytest.raises(IntegrityError):
        framework.register_constraint(regulation, internal)


def test_provenance_check_fails_for_forged_regulation():
    framework = PReVer([make_db()])
    authority = Authority("gov", external=True)
    regulation = upper_bound_regulation("cap", "events", "amount", 100, ["who"])
    framework.register_constraint(regulation, authority)
    regulation.bound = 200  # tamper with the registered regulation
    assert not framework.verify_constraint_provenance(regulation)


def test_routing_to_named_manager_database():
    db1, db2 = make_db("uber"), make_db("lyft")
    framework = PReVer([db1, db2])
    update = make_update(1)
    update.managers.append("lyft")
    framework.submit(update)
    assert db2.table("events").get((1,)) is not None
    assert db1.table("events").get((1,)) is None


def test_acceptance_rate_and_metrics():
    framework = PReVer([make_db()])
    framework.register_constraint(
        Constraint(name="positive", kind=ConstraintKind.INTERNAL,
                   predicate=update_field("amount") > lit(0))
    )
    framework.submit(make_update(1, amount=5))
    framework.submit(make_update(2, amount=-5))
    assert framework.acceptance_rate() == 0.5
    assert framework.metrics.counter("pipeline.accepted").count == 1
    assert framework.metrics.counter("pipeline.rejected").count == 1


def test_ledger_auditable_by_external_auditor():
    framework = PReVer([make_db()])
    for i in range(5):
        framework.submit(make_update(i))
    auditor = LedgerAuditor()
    assert auditor.audit(framework.ledger, spot_check=3).ok
    framework.submit(make_update(9))
    assert auditor.audit(framework.ledger).ok
    framework.ledger.tamper_rewrite(0, {"forged": True})
    assert not auditor.audit(framework.ledger).ok


def test_needs_a_database():
    with pytest.raises(PReVerError):
        PReVer([])


def test_constraint_table_scoping():
    framework = PReVer([make_db()])
    scoped = Constraint(
        name="other-table-only", kind=ConstraintKind.INTERNAL,
        predicate=lit(False), tables=("other",),
    )
    framework.register_constraint(scoped)
    # The constraint targets another table, so this update passes.
    assert framework.submit(make_update(1)).accepted


def test_anchored_payload_does_not_alias_returned_results():
    """The ledger keeps bytes, so nothing a caller does to a returned
    result can move what the ledger reports: the payload, a snapshot of
    it, and the proofs of a ledger restored from that snapshot."""
    from repro.core.contexts import single_private_database
    from repro.ledger.central import CentralLedger

    cap = upper_bound_regulation("cap", "events", "amount", 25, ["who"])
    framework = single_private_database(make_db(), [cap], engine="plaintext")
    results = framework.submit_many([make_update(i) for i in range(4)])
    assert [r.applied for r in results] == [True, True, False, False]
    before = framework.decision_history()

    for result in results:
        with pytest.raises(AttributeError):  # the engine's shared tuple
            result.outcome.constraint_ids.append("forged")
        result.outcome.constraint_ids = ("forged",)
        result.outcome.failed_constraint = "forged"
        result.outcome.accepted = not result.outcome.accepted
        result.update.update_id = "forged"
        result.update.table = "forged"
        result.update.payload["amount"] = 999
    before[0]["decision"]["constraint_ids"].append("forged")

    ledger = framework.ledger
    assert before[0] != ledger.entry(0).payload  # history is the caller's copy
    before[0]["decision"]["constraint_ids"].pop()
    assert framework.decision_history() == before
    assert [entry.payload for entry in ledger.entries()] == before
    assert ledger.entry(2).payload["decision"] == {
        "accepted": False, "engine": "plaintext",
        "constraint_ids": [cap.constraint_id],
        "failed_constraint": cap.constraint_id,
    }

    restored = CentralLedger(name="restored")
    restored.restore_state(ledger.snapshot_state())
    digest = restored.digest()
    assert digest == ledger.digest()
    for index in range(len(restored)):
        assert restored.entry(index).payload == before[index]
        assert CentralLedger.verify_entry(
            digest, restored.entry(index), restored.prove_inclusion(index)
        )


def test_result_records_are_slotted_and_survive_pickling():
    """The slotted records must round-trip through pickle, and an
    evidence-free outcome must still point at the one shared mapping."""
    import pickle

    from repro.core.contexts import single_private_database
    from repro.core.outcome import NO_EVIDENCE

    cap = upper_bound_regulation("cap", "events", "amount", 25, ["who"])
    framework = single_private_database(make_db(), [cap], engine="plaintext")
    results = framework.submit_many([make_update(i) for i in range(3)])
    for result in results:
        for record in (result, result.outcome, result.update):
            assert not hasattr(record, "__dict__")
        assert result.outcome.constraint_ids is results[0].outcome.constraint_ids
        assert result.outcome.evidence is NO_EVIDENCE
        assert result.outcome.evidence == {} and not result.outcome.evidence
    rejected = results[2]
    assert set(rejected.stage_timings) == {"authenticate", "verify", "anchor"}
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clones = pickle.loads(pickle.dumps(results, protocol))
        assert clones == results
        assert [c.stage_timings for c in clones] == [
            r.stage_timings for r in results
        ]
        assert all(c.outcome.evidence is NO_EVIDENCE for c in clones)


# -- results: a read-only view of the decisions on the ledger -----------------


def _pinned_cap():
    cap = upper_bound_regulation("cap", "events", "amount", 25, ["who"])
    cap.constraint_id = "cst-view-cap"  # replicas anchor the same id
    return cap


def _plaintext_framework():
    from repro.core.contexts import single_private_database

    return single_private_database(make_db(), [_pinned_cap()],
                                   engine="plaintext")


def _deployment(kind):
    """``(submit_many, every framework holding a copy of the ledger)``;
    the first framework is the one whose ``results`` is read."""
    if kind == "paxos-primary":
        from repro.consensus.driver import PaxosDriver
        from repro.core.replicated import ReplicatedShard

        shard = ReplicatedShard(_plaintext_framework, replicas=3,
                                driver=PaxosDriver())
        assert shard.primary is shard.replicas[0]
        return shard.submit_many, shard.replicas
    if kind == "plaintext":
        framework = _plaintext_framework()
    else:
        from repro.core.contexts import single_private_database

        framework = single_private_database(make_db(), [_pinned_cap()],
                                            engine="paillier")
        framework.require_signed_updates = True
    return framework.submit_many, [framework]


@pytest.mark.parametrize("kind", ["plaintext", "paillier-signed",
                                  "paxos-primary"])
def test_results_is_a_read_only_view_of_this_frameworks_decisions(kind):
    """``results`` indexes this framework's decisions on its ledger:
    entries other writers append there are not decisions, the records
    decode what was anchored, and nothing about it can be written."""
    from dataclasses import FrozenInstanceError

    submit_many, frameworks = _deployment(kind)
    framework = frameworks[0]
    producer = DataProducer("alice")
    stream = [make_update(i, who=f"w{i % 2}").sign_with(producer)
              for i in range(12)]
    returned = submit_many(stream[:5])
    for copy in frameworks:  # ledger sequence 5: not a decision
        copy.ledger.append({"note": "operator entry"})
    returned += submit_many(stream[5:9])
    for copy in frameworks:  # ledger sequence 10: a state commitment
        copy.publish_state("events")
    returned += submit_many(stream[9:])

    view = framework.results
    expected = [(r.ledger_sequence, r.update.update_id, r.applied)
                for r in returned]
    assert [(r.ledger_sequence, r.update_id, r.applied) for r in view] \
        == expected
    assert len(view) == len(stream) == len(framework.ledger) - 2
    sequences = [sequence for sequence, _, _ in expected]
    assert 5 not in sequences and 10 not in sequences
    assert 0 < sum(applied for _, _, applied in expected) < len(stream)
    assert framework.acceptance_rate() == \
        sum(r.applied for r in view) / len(view)

    def at(records):
        return [record.ledger_sequence for record in records]

    assert view[0].ledger_sequence == sequences[0]
    assert view[-4].ledger_sequence == sequences[-4]
    assert at(view[2:7]) == sequences[2:7]
    assert at(view[::-3]) == sequences[::-3]
    assert at(reversed(view)) == sequences[::-1]
    with pytest.raises(IndexError):
        view[len(stream)]
    first = view[0]
    assert first.payload == framework.ledger.entry(0).payload
    assert first.status == ("applied" if first.applied else "rejected")

    assert not hasattr(view, "append")
    with pytest.raises(TypeError):
        view[0] = first
    for name in ("ledger_sequence", "update_id", "status", "applied",
                 "payload"):
        with pytest.raises(FrozenInstanceError):
            setattr(first, name, None)
