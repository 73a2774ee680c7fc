"""The Schnorr group (prime-order subgroup of Z_p*)."""

import pytest

from repro.crypto.group import SchnorrGroup
from repro.crypto.numbers import is_probable_prime


def test_default_group_is_safe_prime(group):
    assert group.p == 2 * group.q + 1
    assert is_probable_prime(group.p)
    assert is_probable_prime(group.q)


def test_generator_has_order_q(group):
    assert group.is_member(group.g)
    assert group.power(group.g, group.q) == 1


def test_membership_rejects_non_members(group):
    assert not group.is_member(0)
    assert not group.is_member(group.p)
    # A quadratic non-residue is not in the order-q subgroup.
    for candidate in range(2, 50):
        if pow(candidate, group.q, group.p) != 1:
            assert not group.is_member(candidate)
            break


def test_membership_edge_inputs(group):
    """Range policing: membership is defined on [1, p) only — zero,
    negatives, p itself, and out-of-range values are all non-members
    (never an exception, never a wrapped-around residue check)."""
    assert not group.is_member(-1)
    assert not group.is_member(-group.g)  # -g ≡ p-g, a non-residue
    assert not group.is_member(group.p + group.g)  # no implicit mod p
    assert group.is_member(1)  # the identity is in every subgroup
    assert not group.is_member(group.p - 1)  # order 2, not in ⟨g⟩


def test_membership_boundary_of_subgroup(group):
    """Squares land in the order-q subgroup; their 'square roots' with
    Jacobi symbol -1 sit exactly outside it."""
    for x in range(2, 12):
        assert group.is_member(x * x % group.p)
    # g generates the subgroup: every power is a member.
    for e in (1, 2, group.q - 1, group.q):
        assert group.is_member(group.power(group.g, e))


def test_membership_generic_path_matches_jacobi_path(group):
    """A non-safe-prime group (direct construction) takes the generic
    e^q check; on a safe-prime modulus both paths must agree."""
    for candidate in range(1, 40):
        jacobi_path = group.is_member(candidate)
        euler_path = pow(candidate, group.q, group.p) == 1
        assert jacobi_path == euler_path
    # A directly-constructed non-safe-prime group falls back to the
    # generic e^q check: with the wrong order q-1, the order-q
    # generator must be rejected.
    generic = SchnorrGroup(p=group.p, q=group.q - 1, g=group.g)
    assert not generic.is_member(group.g)


def test_independent_generator_differs_and_is_member(group):
    h = group.independent_generator(b"test")
    assert group.is_member(h)
    assert h != group.g
    h2 = group.independent_generator(b"test")
    assert h2 == h  # deterministic
    assert group.independent_generator(b"other") != h


def test_from_safe_prime_validates():
    with pytest.raises(ValueError):
        SchnorrGroup.from_safe_prime(23, 10)


def test_generate_small_group():
    small = SchnorrGroup.generate(bits=32)
    assert small.is_member(small.g)
    assert small.power(small.g, small.q) == 1

