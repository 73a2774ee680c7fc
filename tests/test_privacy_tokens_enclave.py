"""Tokens (blind-signed budgets, double-spend) and the enclave simulator."""

import pytest

from repro.common.errors import PrivacyError
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import upper_bound_regulation
from repro.model.update import Update, UpdateOperation
from repro.privacy.enclave import TrustedEnclaveSimulator
from repro.privacy.tokens import (
    DoubleSpendError,
    SpendRegistry,
    Token,
    TokenAuthority,
    TokenError,
    TokenWallet,
)


@pytest.fixture(scope="module")
def authority():
    return TokenAuthority(budget_per_period=10, rsa_bits=512)


def wallet(authority, owner="w"):
    return TokenWallet(owner, authority.public_key)


def test_issue_within_budget(authority):
    w = wallet(authority, "alice")
    assert w.request_tokens(authority, period=1, count=10) == 10
    assert w.balance(1) == 10


def test_budget_enforced_across_requests(authority):
    w = wallet(authority, "bob")
    w.request_tokens(authority, period=2, count=6)
    with pytest.raises(TokenError):
        w.request_tokens(authority, period=2, count=5)
    assert authority.issued_count("bob", 2) == 6


def test_budget_is_per_period(authority):
    w = wallet(authority, "carol")
    w.request_tokens(authority, period=3, count=10)
    w.request_tokens(authority, period=4, count=10)  # fresh period, fine
    assert w.balance(3) == 10 and w.balance(4) == 10


def test_take_fails_when_short(authority):
    w = wallet(authority, "dave")
    w.request_tokens(authority, period=5, count=2)
    with pytest.raises(TokenError):
        w.take(5, 3)


def test_spend_and_double_spend(authority):
    w = wallet(authority, "erin")
    w.request_tokens(authority, period=6, count=3)
    registry = SpendRegistry(authority.public_key)
    tokens = w.take(6, 2)
    registry.spend(tokens, "uber")
    with pytest.raises(DoubleSpendError):
        registry.spend(tokens[:1], "lyft")
    assert registry.total_spent(6) == 2
    assert len(registry.ledger) == 2


def test_forged_token_rejected(authority):
    registry = SpendRegistry(authority.public_key)
    forged = Token(serial="00" * 32, period=1, pseudonym="p", signature=12345)
    with pytest.raises(TokenError):
        registry.spend([forged], "uber")


def test_pseudonym_stable_within_period_rotates_across(authority):
    w = wallet(authority, "fred")
    assert w.pseudonym_for(1) == w.pseudonym_for(1)
    assert w.pseudonym_for(1) != w.pseudonym_for(2)


def test_pseudonyms_unlinkable_across_workers(authority):
    a, b = wallet(authority, "gina"), wallet(authority, "hank")
    assert a.pseudonym_for(1) != b.pseudonym_for(1)


def test_lower_bound_counting(authority):
    w = wallet(authority, "ivy")
    w.request_tokens(authority, period=7, count=5)
    registry = SpendRegistry(authority.public_key)
    registry.spend(w.take(7, 4), "uber")
    pseudonym = w.pseudonym_for(7)
    assert registry.spend_count(7, pseudonym) == 4
    assert registry.check_lower_bound(7, pseudonym, 4)
    assert not registry.check_lower_bound(7, pseudonym, 5)


def test_token_unlinkability_serial_not_seen_by_authority(authority):
    """The authority blind-signs: it never sees serials, so the spend
    registry's serials cannot be correlated with issuance events."""
    w = wallet(authority, "judy")
    w.request_tokens(authority, period=8, count=1)
    token = w.take(8, 1)[0]
    # The authority's entire issuance record is (participant, count).
    assert authority.issued_count("judy", 8) == 1
    # Nothing in the authority object contains the serial.
    assert token.serial not in str(authority.__dict__)


# -- enclave --------------------------------------------------------------------

def enclave_setup(capacity=100):
    schema = TableSchema.build(
        "tasks",
        [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)],
        primary_key=["task_id"],
    )
    db = Database("d")
    db.create_table(schema)
    regulation = upper_bound_regulation("cap", "tasks", "hours", 40, ["worker"])
    enclave = TrustedEnclaveSimulator([regulation], epc_capacity=capacity)
    return db, enclave


def make_update(worker, hours, i=0):
    return Update(
        table="tasks", operation=UpdateOperation.INSERT,
        payload={"task_id": f"t{i}", "worker": worker, "hours": hours},
    )


def test_enclave_decisions_match_reference():
    db, enclave = enclave_setup()
    ok, _ = enclave.verify_update([db], make_update("w", 30), now=0.0)
    assert ok
    db.insert("tasks", {"task_id": "t0", "worker": "w", "hours": 30})
    bad, _ = enclave.verify_update([db], make_update("w", 11, i=1), now=0.0)
    assert not bad


def test_enclave_attestation_is_stable_and_binding():
    db, enclave = enclave_setup()
    _, measurement = enclave.verify_update([db], make_update("w", 1), now=0.0)
    assert measurement == enclave.attest()
    # A different constraint set yields a different measurement.
    other = TrustedEnclaveSimulator(
        [upper_bound_regulation("cap", "tasks", "hours", 41, ["worker"])]
    )
    assert other.attest() != enclave.attest()


def test_enclave_memory_is_sealed():
    _, enclave = enclave_setup()
    with pytest.raises(PrivacyError):
        enclave.read_sealed(("tasks", None))


def test_enclave_paging_penalty_models_scalability_limit():
    db, small = enclave_setup(capacity=2)
    db2, large = enclave_setup(capacity=1000)
    for i in range(20):
        small.verify_update([db], make_update(f"w{i}", 1, i=i), now=0.0)
        large.verify_update([db2], make_update(f"w{i}", 1, i=i), now=0.0)
    assert small.page_faults >= large.page_faults
    assert small.clock.now() >= large.clock.now()


def test_enclave_host_view_has_no_contents():
    db, enclave = enclave_setup()
    enclave.verify_update([db], make_update("secret-worker", 39), now=0.0)
    view = enclave.host_view()
    assert set(view) == {"ecalls", "page_faults", "elapsed", "measurement"}
    assert "secret-worker" not in str(view)
    # The measurement is a content-independent hash of the constraint
    # set — identical regardless of what updates were verified.
    db2, enclave2 = enclave_setup()
    enclave2.verify_update([db2], make_update("other", 7), now=0.0)
    # (constraint ids differ per instance, so compare structure only)
    assert set(enclave2.host_view()) == set(view)
