"""A Schnorr group: the prime-order subgroup of Z_p* for p = 2q + 1.

Pedersen commitments, Schnorr signatures and the sigma protocols all
operate in this group.  A group object carries (p, q, g) plus helpers
for sampling exponents and finding independent generators (for
Pedersen's second base ``h``).
"""

from dataclasses import dataclass

from repro.common.randomness import SystemRandomSource
from repro.crypto.backend import fixed_base, powmod
from repro.crypto.numbers import generate_safe_prime, jacobi
from repro.crypto.hashing import hash_to_int
from repro.crypto.numbers import int_to_bytes

# A precomputed 256-bit safe-prime group so tests and examples don't pay
# safe-prime generation cost on every run.  p = 2q + 1, g generates the
# order-q subgroup.
_DEFAULT_P = int(
    "f9e844c492ec33833e3da2a37d60d4ae233b69d4613449d30c996bb220d133db", 16
)
_DEFAULT_Q = (_DEFAULT_P - 1) // 2
_DEFAULT_GROUP = None


@dataclass(frozen=True)
class SchnorrGroup:
    """Immutable description of a prime-order subgroup of Z_p*."""

    p: int
    q: int
    g: int

    @classmethod
    def default(cls) -> "SchnorrGroup":
        """The precomputed 256-bit group (fast; fine for a simulator).

        Memoized: the hot update-authentication path asks for it once
        per update, and generator search need not repeat.
        """
        global _DEFAULT_GROUP
        if _DEFAULT_GROUP is None:
            _DEFAULT_GROUP = cls.from_safe_prime(_DEFAULT_P, _DEFAULT_Q)
        return _DEFAULT_GROUP

    @classmethod
    def from_safe_prime(cls, p: int, q: int) -> "SchnorrGroup":
        if p != 2 * q + 1:
            raise ValueError("p must equal 2q + 1")
        g = cls._find_generator(p, q)
        return cls(p=p, q=q, g=g)

    @classmethod
    def generate(cls, bits: int = 256, rng=None) -> "SchnorrGroup":
        """Generate a fresh safe-prime group (slow for large bits)."""
        p, q = generate_safe_prime(bits, rng=rng)
        return cls.from_safe_prime(p, q)

    @staticmethod
    def _find_generator(p: int, q: int) -> int:
        # Squaring any element lands in the order-q subgroup; take the
        # smallest square that is not 1.
        for candidate in range(2, 1000):
            g = pow(candidate, 2, p)
            if g != 1:
                return g
        raise ValueError("no generator found (degenerate group)")

    def random_exponent(self, rng=None) -> int:
        """Uniform exponent in [1, q)."""
        rng = rng or SystemRandomSource()
        return rng.randrange(1, self.q)

    def power(self, base: int, exponent: int) -> int:
        return powmod(base, exponent % self.q, self.p)

    def power_of_g(self, exponent: int) -> int:
        """``g ** (exponent mod q) mod p`` via a warm fixed-base table.

        The generator is the hottest base in the system (every
        signature and commitment raises it), so its table is built
        eagerly and shared per process through the
        :func:`repro.crypto.backend.fixed_base` cache — value-identical
        to :meth:`power` with ``base=g``.
        """
        return fixed_base(self.g, self.p, self.q.bit_length(),
                          warm=True).pow(exponent % self.q)

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def is_member(self, element: int) -> bool:
        """Check membership in the order-q subgroup.

        For a safe-prime group (p = 2q + 1, the only kind this module
        constructs) the order-q subgroup is exactly the quadratic
        residues, so Euler's criterion ``e^q == 1`` is equivalent to
        Legendre symbol 1 — computable by quadratic reciprocity without
        a full-size modular exponentiation.  Non-safe moduli (possible
        via direct dataclass construction) keep the generic check.
        """
        if not 1 <= element < self.p:
            return False
        if self.p == 2 * self.q + 1:
            return jacobi(element, self.p) == 1
        return powmod(element, self.q, self.p) == 1

    def independent_generator(self, label: bytes) -> int:
        """Derive a second generator with unknown discrete log w.r.t. g.

        Hashes the label into the group ("nothing up my sleeve"), so no
        party knows log_g(h) — required for Pedersen binding.
        """
        seed = label + int_to_bytes(self.p)
        x = hash_to_int(seed, self.p, domain=b"gen")
        h = pow(x, 2, self.p)  # force into the subgroup
        if h in (0, 1):
            return self.independent_generator(label + b"'")
        return h
