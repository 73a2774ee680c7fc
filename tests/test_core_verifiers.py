"""RC1 verification engines.

The central property: every privacy engine must agree with the
plaintext reference semantics on every input (dp-index excepted — it
is explicitly approximate and gets an accuracy bound instead).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verifiers import (
    DPIndexVerifier,
    EnclaveVerifier,
    EngineError,
    PaillierVerifier,
    PlaintextVerifier,
    TRANSCRIPT_WINDOW,
    ZKPVerifier,
)
from repro.database.engine import Database
from repro.database.expr import col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    Comparison,
    Constraint,
    ConstraintKind,
    lower_bound_regulation,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation
from repro.privacy.dp import DPIndex, PrivacyAccountant


def fresh_db():
    db = Database("mgr")
    db.create_table(
        TableSchema.build(
            "reports",
            [("id", ColumnType.INT), ("org", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def regulation(bound=100):
    return upper_bound_regulation("cap", "reports", "amount", bound, ["org"])


def make_update(i, org, amount):
    return Update(
        table="reports", operation=UpdateOperation.INSERT,
        payload={"id": i, "org": org, "amount": amount},
    )


def run_sequence(engine_factory, amounts, bound=100):
    """Feed a sequence of updates; returns the accept/reject pattern.

    The engines are *stateful* (they track accepted contributions), so
    the pattern over a sequence is the meaningful comparison unit.
    """
    db = fresh_db()
    engine = engine_factory(db, regulation(bound))
    decisions = []
    for i, amount in enumerate(amounts):
        update = make_update(i, "acme", amount)
        outcome = engine.verify(update, now=0.0)
        decisions.append(outcome.accepted)
        if outcome.accepted:
            db.insert("reports", update.payload)
    return decisions


def plaintext_factory(db, constraint):
    return PlaintextVerifier([db], [constraint])


def paillier_factory(db, constraint):
    return PaillierVerifier([constraint])


def zkp_factory(db, constraint):
    return ZKPVerifier([constraint], bits=10)


def enclave_factory(db, constraint):
    return EnclaveVerifier([db], [constraint])


EXACT_FACTORIES = [plaintext_factory, paillier_factory, zkp_factory,
                   enclave_factory]


@given(amounts=st.lists(st.integers(0, 60), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_every_exact_engine_agrees_with_reference(amounts):
    reference = run_sequence(plaintext_factory, amounts)
    for factory in EXACT_FACTORIES[1:]:
        assert run_sequence(factory, amounts) == reference, factory.__name__


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
def test_boundary_exact(factory):
    # 60 + 40 == 100 <= 100 accepted; the next 1 is rejected.
    assert run_sequence(factory, [60, 40, 1]) == [True, True, False]


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
def test_groups_are_independent(factory):
    db = fresh_db()
    engine = factory(db, regulation(50))
    assert engine.verify(make_update(1, "a", 50), 0.0).accepted
    assert engine.verify(make_update(2, "b", 50), 0.0).accepted


def test_paillier_manager_transcript_has_no_plaintext():
    db = fresh_db()
    engine = paillier_factory(db, regulation(1000))
    engine.verify(make_update(1, "acme", 777), 0.0)
    ciphertext_items = [v for k, v in engine.manager_transcript
                        if k == "ciphertext"]
    assert ciphertext_items
    assert all(item != 777 for item in ciphertext_items)
    # Ciphertexts are huge group elements, never small plaintexts.
    assert all(item > 2**100 for item in ciphertext_items)


def test_transcript_keeps_the_newest_window_of_observations():
    engine = plaintext_factory(fresh_db(), regulation(10**9))
    for i in range(3 * TRANSCRIPT_WINDOW):
        engine.verify(make_update(i, "acme", 1), 0.0)
    assert len(engine.manager_transcript) == TRANSCRIPT_WINDOW
    assert [payload["id"] for payload in engine.manager_transcript] == list(
        range(2 * TRANSCRIPT_WINDOW, 3 * TRANSCRIPT_WINDOW))


def test_paillier_rejects_nonlinear_constraints():
    nonlinear = Constraint(
        name="nl", kind=ConstraintKind.INTERNAL,
        predicate=(col("a") * col("b")) <= lit(3),
    )
    with pytest.raises(EngineError):
        PaillierVerifier([nonlinear])


def test_paillier_supports_ge_bounds():
    constraint = lower_bound_regulation("min", "reports", "amount", 10, ["org"])
    engine = PaillierVerifier([constraint])
    assert not engine.verify(make_update(1, "a", 5), 0.0).accepted
    assert engine.verify(make_update(2, "a", 15), 0.0).accepted


def test_zkp_verifier_emits_commitments_only():
    db = fresh_db()
    engine = zkp_factory(db, regulation(1000))
    engine.verify(make_update(1, "acme", 777), 0.0)
    values = [v for k, v in engine.manager_transcript if k == "commitment"]
    assert values and all(v != 777 for v in values)


def test_zkp_verifier_supports_lower_bounds():
    constraint = lower_bound_regulation("min", "reports", "amount", 10, ["org"])
    engine = ZKPVerifier([constraint], bits=8)
    assert not engine.verify(make_update(1, "a", 5), 0.0).accepted
    assert engine.verify(make_update(2, "a", 15), 0.0).accepted


def test_zkp_verifier_rejects_predicate_constraints():
    predicate = Constraint(
        name="p", kind=ConstraintKind.INTERNAL,
        predicate=(col("a") + lit(1)) <= lit(3),
    )
    with pytest.raises(EngineError):
        ZKPVerifier([predicate])


def test_zkp_counts_proof_verifications():
    db = fresh_db()
    engine = zkp_factory(db, regulation(100))
    engine.verify(make_update(1, "a", 10), 0.0)
    assert engine.metrics.counter("zkp.proofs_verified").count == 1


def test_enclave_attestation_in_evidence():
    db = fresh_db()
    engine = enclave_factory(db, regulation(100))
    outcome = engine.verify(make_update(1, "a", 10), 0.0)
    assert outcome.evidence["attestation"] == engine.expected_measurement


def test_dp_index_verifier_is_approximately_correct():
    """With a generous epsilon the DP engine matches the reference on
    inputs far from the boundary, and may flip near it."""
    db = fresh_db()
    accountant = PrivacyAccountant(1000.0)
    index = DPIndex(0, 1e6, 16, accountant, epsilon_per_refresh=5.0)
    constraint = regulation(100)
    engine = DPIndexVerifier([db], [constraint], index, refresh_every=100)
    # Far below the cap: must accept.
    assert engine.verify(make_update(1, "a", 5), 0.0).accepted
    # Far above the cap: must reject.
    assert not engine.verify(make_update(2, "b", 500), 0.0).accepted


def test_dp_index_verifier_budget_exhaustion_halts():
    from repro.common.errors import BudgetExhausted

    db = fresh_db()
    accountant = PrivacyAccountant(0.5)
    index = DPIndex(0, 1e6, 16, accountant, epsilon_per_refresh=0.3)
    engine = DPIndexVerifier([db], [regulation(100)], index, refresh_every=1)
    engine.verify(make_update(1, "a", 5), 0.0)
    with pytest.raises(BudgetExhausted):
        engine.verify(make_update(2, "a", 5), 0.0)


def test_dp_index_verifier_single_constraint_only():
    with pytest.raises(EngineError):
        DPIndexVerifier(
            [fresh_db()],
            [regulation(1), regulation(2)],
            DPIndex(0, 10, 2, PrivacyAccountant(1.0), 0.5),
        )
