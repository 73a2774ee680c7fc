"""Batch/sequential equivalence for the high-throughput pipeline.

``submit_many`` must be indistinguishable from submitting the same
update stream one-by-one: identical decisions, identical applied rows,
identical ledger roots, and inclusion proofs that verify against either
history — including rejection and apply-failure paths.
"""

import pytest

from repro.core.contexts import single_private_database
from repro.core.framework import PReVer
from repro.core.verifiers import PlaintextVerifier
from repro.database.engine import Database
from repro.database.expr import lit, update_field
from repro.database.schema import ColumnType, TableSchema
from repro.ledger.central import CentralLedger
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation


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
                key=None, update_id=None):
    if operation is UpdateOperation.INSERT:
        payload = {"id": i, "who": who, "amount": amount}
    else:
        payload = {"amount": amount}
    return Update(
        table="events", operation=operation, payload=payload, key=key,
        update_id=update_id or f"upd-{i:05d}",
    )


def cap_constraint(bound=50):
    template = upper_bound_regulation("cap", "events", "amount", bound, ["who"])
    return Constraint(
        name="cap", kind=ConstraintKind.INTERNAL,
        aggregate=template.aggregate, comparison=template.comparison,
        bound=bound, tables=("events",), constraint_id="cst-cap",
    )


def positive_constraint():
    return Constraint(name="positive", kind=ConstraintKind.INTERNAL,
                      predicate=update_field("amount") > lit(0),
                      constraint_id="cst-positive")


def mixed_stream():
    """Accepts, aggregate rejections, predicate rejections, two groups."""
    stream = []
    for i in range(12):
        who = "alice" if i % 2 == 0 else "bob"
        amount = 20 if i < 8 else -5  # later ones fail the predicate
        stream.append(make_update(i, who=who, amount=amount))
    return stream


def build_framework():
    framework = PReVer([make_db()])
    framework.register_constraint(positive_constraint())
    framework.register_constraint(cap_constraint(bound=50))
    return framework


def assert_equivalent(seq_fw, bat_fw, seq_results, bat_results):
    assert len(seq_results) == len(bat_results)
    for s, b in zip(seq_results, bat_results):
        assert s.accepted == b.accepted
        assert s.applied == b.applied
        assert s.ledger_sequence == b.ledger_sequence
        assert s.outcome.failed_constraint == b.outcome.failed_constraint
        assert s.update.status == b.update.status
    # Same database end state.
    seq_rows = sorted(r["id"] for r in seq_fw.databases[0].table("events").scan())
    bat_rows = sorted(r["id"] for r in bat_fw.databases[0].table("events").scan())
    assert seq_rows == bat_rows
    # Same ledger digest, and proofs interchange between the histories.
    seq_digest, bat_digest = seq_fw.ledger.digest(), bat_fw.ledger.digest()
    assert seq_digest.size == bat_digest.size
    assert seq_digest.root == bat_digest.root
    for sequence in range(len(bat_fw.ledger)):
        proof = bat_fw.ledger.prove_inclusion(sequence)
        entry = bat_fw.ledger.entry(sequence)
        assert CentralLedger.verify_entry(seq_digest, entry, proof)


def test_submit_many_matches_sequential_with_rejections():
    seq_fw, bat_fw = build_framework(), build_framework()
    seq_results = [seq_fw.submit(u) for u in mixed_stream()]
    bat_results = bat_fw.submit_many(mixed_stream())
    assert_equivalent(seq_fw, bat_fw, seq_results, bat_results)
    # The stream exercises both paths.
    assert any(r.applied for r in bat_results)
    assert any(not r.accepted for r in bat_results)


def test_submit_many_apply_failure_path():
    """Duplicate primary keys fail at apply; the rejection is anchored
    identically to the sequential pipeline."""
    def stream():
        return [make_update(1, update_id="upd-a"),
                make_update(1, update_id="upd-b"),  # duplicate key
                make_update(2, update_id="upd-c")]

    seq_fw, bat_fw = build_framework(), build_framework()
    seq_results = [seq_fw.submit(u) for u in stream()]
    bat_results = bat_fw.submit_many(stream())
    assert not bat_results[1].applied
    assert bat_results[1].outcome.failed_constraint == "apply-failure"
    assert_equivalent(seq_fw, bat_fw, seq_results, bat_results)


def test_submit_many_with_modify_invalidates_cache():
    """A MODIFY mid-batch changes a row an earlier cached aggregate
    counted; decisions must still match the sequential reference."""
    def stream():
        updates = [make_update(i, who="w", amount=10, update_id=f"m-{i}")
                   for i in range(3)]
        updates.append(Update(
            table="events", operation=UpdateOperation.MODIFY,
            payload={"amount": 1}, key=(0,), update_id="m-mod",
        ))
        updates.extend(make_update(i, who="w", amount=10, update_id=f"m-{i}")
                       for i in range(3, 7))
        return updates

    seq_fw, bat_fw = build_framework(), build_framework()
    seq_results = [seq_fw.submit(u) for u in stream()]
    bat_results = bat_fw.submit_many(stream())
    assert_equivalent(seq_fw, bat_fw, seq_results, bat_results)


def test_submit_many_signed_updates():
    producer = DataProducer("alice")

    def stream():
        good = make_update(1, update_id="s-1").sign_with(producer)
        tampered = make_update(2, update_id="s-2").sign_with(producer)
        tampered.payload["amount"] = 999
        unsigned = make_update(3, update_id="s-3")
        return [good, tampered, unsigned]

    seq_fw = PReVer([make_db()], require_signed_updates=True)
    bat_fw = PReVer([make_db()], require_signed_updates=True)
    seq_results = [seq_fw.submit(u) for u in stream()]
    bat_results = bat_fw.submit_many(stream())
    assert [r.accepted for r in bat_results] == [True, False, False]
    assert bat_results[1].outcome.failed_constraint == "bad signature"
    assert bat_results[2].outcome.failed_constraint == "unsigned update"
    assert_equivalent(seq_fw, bat_fw, seq_results, bat_results)


@pytest.mark.parametrize("engine", ["plaintext", "paillier", "zkp"])
def test_submit_many_engines_match_sequential(engine):
    def build():
        db = make_db("mgr")
        regulation = upper_bound_regulation("cap", "events", "amount", 55, ["who"])
        return single_private_database(db, [regulation], engine=engine)

    def stream():
        # alice exceeds the 55 cap on her 6th update of 10.
        return [make_update(i, who=("alice" if i % 2 == 0 else "bob"),
                            update_id=f"e-{i:03d}")
                for i in range(14)]

    seq_fw, bat_fw = build(), build()
    if engine == "paillier":
        # Offline randomness bank for the batched run (fast-path check).
        bat_fw.engine.precompute(len(stream()))
    seq_results = [seq_fw.submit(u) for u in stream()]
    bat_results = bat_fw.submit_many(stream())
    assert any(not r.accepted for r in seq_results)
    for s, b in zip(seq_results, bat_results):
        assert (s.accepted, s.applied) == (b.accepted, b.applied)
    assert seq_fw.ledger.digest().size == bat_fw.ledger.digest().size


EXACT_ENGINES = ["plaintext", "paillier", "zkp", "enclave"]


@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_engine_totals_count_only_applied_updates(engine):
    """An update the database refuses (duplicate key) leaves no trace in
    a private engine's running total: every engine decides the stream
    like the plaintext reference, which re-reads the table."""
    db = make_db("mgr")
    regulation = upper_bound_regulation("cap", "events", "amount", 10, ["who"])
    framework = single_private_database(db, [regulation], engine=engine)
    results = framework.submit_many([
        make_update(i, amount=4, update_id=f"d-{n}")
        for n, i in enumerate([1, 1, 1, 2])
    ])
    # Ids 1 and 2 apply (4 + 4 <= 10); the duplicates fail at apply and
    # must not count towards the cap that decides id 2.
    assert [(r.applied, r.outcome.failed_constraint) for r in results] == [
        (True, None), (False, "apply-failure"), (False, "apply-failure"),
        (True, None),
    ]


@pytest.mark.parametrize("engine", EXACT_ENGINES)
def test_engine_totals_ignore_updates_a_later_constraint_rejects(engine):
    """Two routed constraints: the per-``who`` cap accepts an update the
    table-wide cap then rejects; the first cap's total must not keep it."""
    db = make_db("mgr")
    per_who = upper_bound_regulation("per-who", "events", "amount", 9, ["who"])
    overall = upper_bound_regulation("overall", "events", "amount", 10, [])
    framework = single_private_database(db, [per_who, overall], engine=engine)
    results = framework.submit_many([
        make_update(0, who="a", amount=8, update_id="t-0"),
        # per-who: b = 8 <= 9 accepts; overall: 16 > 10 rejects.
        make_update(1, who="b", amount=8, update_id="t-1"),
        # per-who: b = 2 (not 10) accepts; overall: 10 <= 10 accepts.
        make_update(2, who="b", amount=2, update_id="t-2"),
    ])
    assert [r.applied for r in results] == [True, False, True]


def test_plaintext_engine_batch_uses_shared_databases_correctly():
    """PlaintextVerifier's batch cache tracks rows the framework
    applies to the shared database objects."""
    db = make_db("mgr")
    regulation = upper_bound_regulation("cap", "events", "amount", 35, ["who"])
    framework = single_private_database(db, [regulation], engine="plaintext")
    results = framework.submit_many(
        [make_update(i, who="w", update_id=f"p-{i}") for i in range(5)]
    )
    # 10+10+10 accepted (30 <= 35), 4th would reach 40 > 35.
    assert [r.applied for r in results] == [True, True, True, False, False]
    assert isinstance(framework.engine, PlaintextVerifier)
    # Batch state must not leak outside the batch.
    assert framework.engine._batch_cache is None


def test_ledger_append_batch_equals_sequential_appends():
    one, many = CentralLedger("a"), CentralLedger("b")
    payloads = [{"i": i} for i in range(9)]
    for p in payloads:
        one.append(p)
    entries = many.append_batch(payloads)
    assert [e.sequence for e in entries] == list(range(9))
    assert one.digest().root == many.digest().root
    proof = many.prove_inclusion(4)
    assert CentralLedger.verify_entry(one.digest(), many.entry(4), proof)
    # Consistency across a batch boundary still proves append-only.
    old = many.digest()
    many.append_batch([{"i": 9}, {"i": 10}])
    assert CentralLedger.verify_extension(
        old, many.digest(), many.prove_consistency(old.size)
    )


def test_throughput_report_shape():
    framework = build_framework()
    framework.submit_many([make_update(i) for i in range(4)])
    report = framework.throughput_report()
    assert report["updates"] == 4
    assert {"authenticate", "verify", "apply", "anchor"} <= set(report["stages"])
    assert report["updates_per_sec"] > 0


def test_empty_batch():
    framework = build_framework()
    assert framework.submit_many([]) == []
    assert len(framework.ledger) == 0


# -- constraint router staleness (regression) --------------------------------
#
# The router index used to be rebuilt only when len(framework.constraints)
# changed, so replacing a constraint in place (same count) or mutating a
# constraint's table scope kept routing the stale version.  The router now
# fingerprints (identity, tables) per constraint and rebuilds on any drift.


def test_router_detects_in_place_constraint_replacement():
    framework = build_framework()
    assert framework.submit(make_update(0, amount=20)).applied

    strict = Constraint(name="positive", kind=ConstraintKind.INTERNAL,
                        predicate=update_field("amount") > lit(100),
                        constraint_id="cst-positive-strict")
    index = next(i for i, c in enumerate(framework.constraints)
                 if c.constraint_id == "cst-positive")
    framework.constraints[index] = strict

    result = framework.submit(make_update(1, amount=20))
    assert not result.applied
    assert result.outcome.failed_constraint == "cst-positive-strict"


def test_router_detects_table_scope_mutation():
    framework = PReVer([make_db()])
    elsewhere = Constraint(name="blocker", kind=ConstraintKind.INTERNAL,
                           predicate=update_field("amount") > lit(100),
                           tables=("other_table",),
                           constraint_id="cst-blocker")
    framework.register_constraint(elsewhere)
    # Scoped away from "events": it must not fire here.
    assert framework.submit(make_update(0, amount=20)).applied

    # Widen the scope in place — no add/remove, same object identity.
    elsewhere.tables = ("events",)
    result = framework.submit(make_update(1, amount=20))
    assert not result.applied
    assert result.outcome.failed_constraint == "cst-blocker"
