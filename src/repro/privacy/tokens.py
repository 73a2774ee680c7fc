"""The token-based regulation mechanism (RC2, centralized path; Separ).

An external authority enforces a per-participant, per-period budget by
issuing exactly ``budget`` single-use tokens per participant per
period.  Tokens are **blind-signed** (Chaum), so when a platform later
sees a token being spent it cannot link it to the issuance — and hence
cannot learn how much the worker has worked elsewhere.  Spent token
serials are recorded on a shared ledger; a serial appearing twice is a
double spend.  Upper-bound regulations hold because no participant can
obtain more than ``budget`` valid tokens per period; lower-bound
regulations (Separ supports these too) are checked at period close by
counting spends carrying a per-period pseudonym (a PRF of the worker
identity and the period, consistent within a period, unlinkable
across periods).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.common.errors import ConstraintViolation, PReVerError, PrivacyError
from repro.common.ids import make_id
from repro.common.randomness import SystemRandomSource
from repro.crypto.blind import BlindClient, BlindSigner
from repro.crypto.hashing import prf
from repro.crypto.rsa import RSAPublicKey
from repro.ledger.central import CentralLedger


class TokenError(PReVerError):
    pass


class IssuerUnavailable(TokenError):
    """The issuing authority (or one of its share signers) is offline."""


class DoubleSpendError(ConstraintViolation):
    def __init__(self, serial: str):
        super().__init__("token-double-spend", f"serial {serial[:12]}… already spent")
        self.serial = serial


@dataclass(frozen=True)
class Token:
    """A single-use token: serial + period + pseudonym + signature.

    ``pseudonym`` is PRF(worker_secret, period) — stable within the
    period (enabling lower-bound counting) but unlinkable to the
    worker identity and across periods.
    """

    serial: str
    period: int
    pseudonym: str
    signature: int

    def message(self) -> bytes:
        return token_message(self.serial, self.period, self.pseudonym)


def token_message(serial: str, period: int, pseudonym: str) -> bytes:
    return f"{serial}|{period}|{pseudonym}".encode()


class TokenAuthority:
    """The trusted third party: issues blind-signed token budgets.

    It learns *who* requested *how many* tokens per period (that is its
    job: enforcing the budget) but never the serials it signed — so it
    cannot trace spends either.
    """

    def __init__(self, budget_per_period: int, rsa_bits: int = 768):
        self.budget_per_period = budget_per_period
        self._signer = BlindSigner(bits=rsa_bits)
        self._issued: Dict[tuple, int] = {}  # (participant, period) -> count

    @property
    def public_key(self) -> RSAPublicKey:
        return self._signer.public_key

    def issued_count(self, participant: str, period: int) -> int:
        return self._issued.get((participant, period), 0)

    def issue(self, participant: str, period: int, blinded_tokens: List) -> List[int]:
        """Blind-sign up to the remaining budget; over-asking raises."""
        already = self.issued_count(participant, period)
        if already + len(blinded_tokens) > self.budget_per_period:
            raise TokenError(
                f"{participant!r} exceeded the period-{period} budget "
                f"({already} + {len(blinded_tokens)} > {self.budget_per_period})"
            )
        self._issued[(participant, period)] = already + len(blinded_tokens)
        return [self._signer.sign_blinded(t) for t in blinded_tokens]


class TokenWallet:
    """A worker's client-side token store."""

    def __init__(self, owner: str, authority_key: RSAPublicKey, rng=None):
        self.owner = owner
        self.authority_key = authority_key
        self._rng = rng or SystemRandomSource()
        self._secret = self._rng.randbits(256).to_bytes(32, "big")
        self._tokens: Dict[int, List[Token]] = {}

    def pseudonym_for(self, period: int) -> str:
        return prf(self._secret, f"period:{period}".encode()).hex()

    def request_tokens(self, authority: TokenAuthority, period: int, count: int) -> int:
        """Run the blind-issuance protocol; returns tokens obtained."""
        pseudonym = self.pseudonym_for(period)
        pending = []
        blinded = []
        for _ in range(count):
            serial = self._rng.randbits(256).to_bytes(32, "big").hex()
            message = token_message(serial, period, pseudonym)
            client = BlindClient(self.authority_key, rng=self._rng)
            blinded.append(client.blind(message))
            pending.append((serial, client))
        signatures = authority.issue(self.owner, period, blinded)
        bucket = self._tokens.setdefault(period, [])
        for (serial, client), blind_signature in zip(pending, signatures):
            signature = client.unblind(blind_signature)
            bucket.append(
                Token(
                    serial=serial,
                    period=period,
                    pseudonym=pseudonym,
                    signature=signature,
                )
            )
        return len(signatures)

    def balance(self, period: int) -> int:
        return len(self._tokens.get(period, []))

    def take(self, period: int, count: int) -> List[Token]:
        bucket = self._tokens.get(period, [])
        if len(bucket) < count:
            raise TokenError(
                f"wallet has {len(bucket)} tokens for period {period}, "
                f"needs {count}"
            )
        taken, self._tokens[period] = bucket[:count], bucket[count:]
        return taken


class SpendRegistry:
    """The shared spent-token state (on a ledger for integrity).

    Platforms hand over one update's tokens at a time; the registry
    records them all or none, and a repeated serial raises
    :class:`DoubleSpendError`.  In the federated deployment this ledger
    is the replicated blockchain state (see ``repro.core.separ``); here
    it wraps a :class:`CentralLedger` so every spend is auditable.
    """

    def __init__(self, authority_key: RSAPublicKey,
                 ledger: Optional[CentralLedger] = None):
        self.authority_key = authority_key
        self.ledger = ledger or CentralLedger(name="token-spends")
        self._spent: Set[str] = set()
        self._spends_by_period: Dict[int, List[str]] = {}

    def spend(self, tokens: Sequence[Token], platform: str) -> None:
        """Record ``tokens`` as spent, all or none: every signature, and
        every serial against the registry and the rest of the set, is
        checked before the first one is recorded."""
        serials: Set[str] = set()
        for token in tokens:
            if not self.authority_key.verify(token.message(), token.signature):
                raise TokenError("invalid token signature")
            if token.serial in self._spent or token.serial in serials:
                raise DoubleSpendError(token.serial)
            serials.add(token.serial)
        for token in tokens:
            self._spent.add(token.serial)
            self._spends_by_period.setdefault(token.period, []).append(
                token.pseudonym
            )
            self.ledger.append(
                {
                    "serial": token.serial,
                    "period": token.period,
                    "pseudonym": token.pseudonym,
                    "platform": platform,
                }
            )

    def spend_count(self, period: int, pseudonym: str) -> int:
        return sum(
            1 for p in self._spends_by_period.get(period, []) if p == pseudonym
        )

    def check_lower_bound(self, period: int, pseudonym: str, minimum: int) -> bool:
        """Period-close lower-bound regulation check."""
        return self.spend_count(period, pseudonym) >= minimum

    def total_spent(self, period: Optional[int] = None) -> int:
        if period is None:
            return len(self._spent)
        return len(self._spends_by_period.get(period, []))
