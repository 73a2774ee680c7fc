"""RC2 federated engines: token-based and MPC."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.federated import MPCVerifier, TokenVerifier
from repro.core.verifiers import EngineError, PlaintextVerifier
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

_counter = itertools.count()


def platform_db(name):
    db = Database(name)
    db.create_table(
        TableSchema.build(
            "tasks",
            [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
             ("hours", ColumnType.INT)],
            primary_key=["task_id"],
        )
    )
    return db


def task_update(worker, hours, manager):
    return Update(
        table="tasks", operation=UpdateOperation.INSERT,
        payload={"task_id": f"t{next(_counter)}", "worker": worker,
                 "hours": hours},
        producers=[worker], managers=[manager],
    )


def flsa(bound=40):
    return upper_bound_regulation("flsa", "tasks", "hours", bound, ["worker"])


def run_federated(engine_name, per_platform_hours, incoming, bound=40):
    """Pre-load two platforms, then verify one incoming update."""
    dbs = [platform_db("uber"), platform_db("lyft")]
    for db, hours in zip(dbs, per_platform_hours):
        if hours:
            db.insert("tasks", {"task_id": f"pre-{db.name}-{next(_counter)}",
                                "worker": "w", "hours": hours})
    constraint = flsa(bound)
    if engine_name == "mpc":
        engine = MPCVerifier(dbs, constraint, width=8)
    else:
        engine = PlaintextVerifier(dbs, [constraint])
    update = task_update("w", incoming, "uber")
    return engine.verify(update, now=0.0).accepted


@given(a=st.integers(0, 25), b=st.integers(0, 25), inc=st.integers(0, 25))
@settings(max_examples=10, deadline=None)
def test_mpc_agrees_with_plaintext_reference(a, b, inc):
    assert run_federated("mpc", (a, b), inc) == run_federated(
        "plaintext", (a, b), inc
    )


def test_mpc_boundary():
    assert run_federated("mpc", (20, 20), 0)
    assert not run_federated("mpc", (20, 20), 1)


def test_mpc_ge_regulation():
    dbs = [platform_db("a"), platform_db("b")]
    constraint = lower_bound_regulation("min", "tasks", "hours", 10, ["worker"])
    engine = MPCVerifier(dbs, constraint, width=8)
    assert not engine.verify(task_update("w", 5, "a"), 0.0).accepted
    assert engine.verify(task_update("w", 12, "a"), 0.0).accepted


def test_mpc_needs_two_platforms():
    with pytest.raises(EngineError):
        MPCVerifier([platform_db("solo")], flsa())


def test_mpc_rejects_nonlinear():
    bad = Constraint(
        name="nl", kind=ConstraintKind.REGULATION,
        predicate=(col("a") * col("b")) <= lit(1),
    )
    with pytest.raises(EngineError):
        MPCVerifier([platform_db("a"), platform_db("b")], bad)


def test_mpc_decision_is_only_public_output():
    dbs = [platform_db("a"), platform_db("b")]
    engine = MPCVerifier(dbs, flsa(), width=8)
    engine.verify(task_update("w", 10, "a"), 0.0)
    assert list(engine.manager_transcript) == [("decision", True)]


# -- token engine ---------------------------------------------------------------

def token_engine(bound=10):
    return TokenVerifier(flsa(bound))


def test_token_engine_enforces_budget():
    engine = token_engine(bound=10)
    assert engine.verify(task_update("w", 6, "uber"), 0.0).accepted
    assert engine.verify(task_update("w", 4, "lyft"), 0.0).accepted
    assert not engine.verify(task_update("w", 1, "uber"), 0.0).accepted


def test_token_budgets_are_per_worker():
    engine = token_engine(bound=5)
    assert engine.verify(task_update("w1", 5, "uber"), 0.0).accepted
    assert engine.verify(task_update("w2", 5, "uber"), 0.0).accepted


def test_token_budget_resets_per_period():
    engine = token_engine(bound=5)
    week = 7 * 24 * 3600.0
    assert engine.verify(task_update("w", 5, "uber"), now=0.0).accepted
    assert not engine.verify(task_update("w", 1, "uber"), now=1.0).accepted
    assert engine.verify(task_update("w", 5, "uber"), now=week + 1).accepted


def test_token_engine_observes_serials_not_identity():
    engine = token_engine()
    engine.verify(task_update("worker-anne", 2, "uber"), 0.0)
    transcript = str(engine.manager_transcript)
    assert "worker-anne" not in transcript
    serials = [v for k, v in engine.manager_transcript if k == "serial"]
    assert len(serials) == 2


def test_token_engine_rejects_fractional_units():
    engine = TokenVerifier(
        upper_bound_regulation("cap", "tasks", "hours", 10, ["worker"])
    )
    update = Update(
        table="tasks", operation=UpdateOperation.INSERT,
        payload={"task_id": "t", "worker": "w", "hours": 1},
        producers=["w"],
    )
    update.payload["hours"] = 1  # integer fine
    assert engine.units_of(update) == 1


def test_token_engine_requires_le_aggregate():
    ge = lower_bound_regulation("min", "tasks", "hours", 10, ["worker"])
    with pytest.raises(EngineError):
        TokenVerifier(ge)
    predicate_constraint = Constraint(
        name="p", kind=ConstraintKind.INTERNAL, predicate=lit(True),
    )
    with pytest.raises(EngineError):
        TokenVerifier(predicate_constraint)


def test_token_lower_bound_checked_at_period_close():
    engine = token_engine(bound=10)
    engine.verify(task_update("w", 7, "uber"), 0.0)
    assert engine.check_lower_bound("w", period=0, minimum=5)
    assert not engine.check_lower_bound("w", period=0, minimum=8)


def test_token_vs_mpc_same_decisions_on_upper_bounds():
    """The two RC2 mechanisms must enforce identical policies."""
    sequences = [[6, 4, 1], [10, 1], [3, 3, 3, 2]]
    for seq in sequences:
        token = TokenVerifier(flsa(10))
        token_decisions = [
            token.verify(task_update("w", h, "uber"), 0.0).accepted
            for h in seq
        ]
        dbs = [platform_db(f"a{next(_counter)}"), platform_db(f"b{next(_counter)}")]
        mpc = MPCVerifier(dbs, flsa(10), width=8)
        mpc_decisions = []
        for h in seq:
            update = task_update("w", h, dbs[0].name)
            outcome = mpc.verify(update, 0.0)
            mpc_decisions.append(outcome.accepted)
            if outcome.accepted:
                dbs[0].insert("tasks", update.payload)
        assert token_decisions == mpc_decisions, seq
