"""Future-work features: distributed token issuance and PSI-based
JOIN-shaped regulations."""

import pytest

from repro.core.separ import SeparSystem
from repro.privacy.psi import (
    PSICoordinator,
    PSIParty,
    check_max_membership,
    check_no_overlap,
)
from repro.privacy.threshold_tokens import DistributedTokenAuthority
from repro.privacy.tokens import SpendRegistry, TokenError, TokenWallet
from repro.common.errors import PReVerError, ProtocolError


@pytest.fixture(scope="module")
def authority():
    return DistributedTokenAuthority(signers=3, budget_per_period=10,
                                     rsa_bits=512)


# -- distributed issuance ------------------------------------------------------

def test_combined_signature_verifies_under_public_key(authority):
    wallet = TokenWallet("alice", authority.public_key)
    assert wallet.request_tokens(authority, period=1, count=3) == 3
    token = wallet.take(1, 1)[0]
    assert authority.public_key.verify(token.message(), token.signature)


def test_tokens_spend_normally(authority):
    wallet = TokenWallet("bob", authority.public_key)
    wallet.request_tokens(authority, period=2, count=2)
    registry = SpendRegistry(authority.public_key)
    registry.spend(wallet.take(2, 2), "uber")
    assert registry.total_spent(2) == 2


def test_budget_enforced_by_every_signer(authority):
    wallet = TokenWallet("carol", authority.public_key)
    wallet.request_tokens(authority, period=3, count=10)
    with pytest.raises(TokenError):
        wallet.request_tokens(authority, period=3, count=1)
    for signer in authority.signers:
        assert signer.issued_count("carol", 3) == 10


def test_single_compromised_signer_cannot_forge(authority):
    """A partial signature is not a valid signature."""
    from repro.crypto.blind import BlindClient

    client = BlindClient(authority.public_key)
    blinded = client.blind(b"forged-token")
    partial = authority.signers[0].partial_sign("mallory", 4, blinded)
    # Unblinding a single partial fails verification inside unblind().
    from repro.crypto.blind import BlindSignatureError

    with pytest.raises(BlindSignatureError):
        client.unblind(partial)


def test_offline_signer_halts_issuance_n_of_n(authority_=None):
    authority = DistributedTokenAuthority(signers=3, budget_per_period=5,
                                          rsa_bits=512)
    authority.take_offline(1)
    wallet = TokenWallet("dave", authority.public_key)
    with pytest.raises(TokenError):
        wallet.request_tokens(authority, period=1, count=1)


def test_compromise_view_never_contains_full_key(authority):
    view = authority.compromise_view([0, 1])
    assert view["shares_held"] == 2
    assert view["shares_needed"] == 3


def test_mid_batch_budget_refusal_is_atomic():
    authority = DistributedTokenAuthority(signers=2, budget_per_period=3,
                                          rsa_bits=512)
    wallet = TokenWallet("erin", authority.public_key)
    wallet.request_tokens(authority, period=1, count=2)
    with pytest.raises(TokenError):
        wallet.request_tokens(authority, period=1, count=2)  # 2+2 > 3
    # The failed batch consumed nothing.
    assert authority.issued_count("erin", 1) == 2
    wallet.request_tokens(authority, period=1, count=1)
    assert wallet.balance(1) == 3


def test_minimum_signers():
    with pytest.raises(PReVerError):
        DistributedTokenAuthority(signers=1, budget_per_period=1)


def test_separ_with_distributed_authority_end_to_end():
    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=10,
                         distributed_authority=3)
    system.register_worker("w")
    assert system.complete_task("w", "uber", 6).accepted
    assert system.complete_task("w", "lyft", 4).accepted
    assert not system.complete_task("w", "uber", 1).accepted
    assert system.hours_worked("w") == 10
    # Taking one share-signer offline halts further issuance but does
    # not break already-issued tokens.
    system.authority.take_offline(0)
    system.advance_weeks(1)
    result = system.complete_task("w", "uber", 1)
    assert not result.accepted


# -- PSI -------------------------------------------------------------------------

def parties(*sets):
    return [PSIParty(f"p{i}", s) for i, s in enumerate(sets)]


def test_intersection_cardinality():
    coordinator = PSICoordinator(parties({"a", "b", "c"}, {"b", "c", "d"}))
    assert coordinator.intersection_cardinality() == 2


def test_three_way_intersection():
    coordinator = PSICoordinator(
        parties({"a", "b"}, {"b", "c"}, {"b", "d"})
    )
    assert coordinator.intersection_cardinality() == 1  # only "b"
    assert coordinator.max_multiplicity() == 3


def test_no_overlap_regulation():
    assert check_no_overlap(parties({"a"}, {"b"}, {"c"}))
    assert not check_no_overlap(parties({"a"}, {"a"}))


def test_max_membership_regulation():
    # A worker pseudonym registered on 3 platforms, limit 2 -> violation.
    platform_sets = [{"w1", "w2"}, {"w1"}, {"w1", "w3"}]
    assert not check_max_membership(parties(*platform_sets), limit=2)
    assert check_max_membership(parties(*platform_sets), limit=3)


def test_coordinator_view_is_masked():
    coordinator = PSICoordinator(
        parties({"secret-worker-anne"}, {"secret-worker-anne"})
    )
    counts = coordinator.membership_counts()
    for masked in counts:
        assert b"anne" not in masked
        assert len(masked) == 32  # PRF output, fixed length
    # Transcript records only (party, set size).
    assert coordinator.transcript == [("p0", 1), ("p1", 1)]


def test_masking_is_session_specific():
    """The same element masks differently across sessions (fresh keys),
    so coordinators cannot link elements between runs."""
    first = PSICoordinator(parties({"x"}, {"y"}))
    second = PSICoordinator(
        [PSIParty("q0", {"x"}), PSIParty("q1", {"y"})]
    )
    assert set(first.membership_counts()) != set(second.membership_counts())


def test_psi_needs_two_parties():
    with pytest.raises(ProtocolError):
        PSICoordinator(parties({"a"}))
