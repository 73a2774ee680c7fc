"""Ledger auditing — "enable any participant to verify the integrity
of stored data" (Research Challenge 4).

An auditor is a lightweight client that keeps only the latest digest it
has verified.  Each audit round it requests a fresh digest plus a
consistency proof from the (untrusted) ledger holder and checks that
history only grew.  Optionally it spot-checks entries with inclusion
proofs.  The auditor never needs plaintext access to payloads, so
auditing is privacy-preserving by construction: for private data,
PReVer appends commitments/ciphertexts, and the auditor checks those.
"""

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.ledger.central import CentralLedger, LedgerDigest
from repro.obs.tracing import NOOP_TRACER


class AuditOutcome(enum.Enum):
    CONSISTENT = "consistent"
    TAMPERED = "tampered"
    FIRST_CONTACT = "first_contact"


@dataclass
class AuditReport:
    outcome: AuditOutcome
    old_digest: Optional[LedgerDigest]
    new_digest: LedgerDigest
    checked_entries: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.outcome is not AuditOutcome.TAMPERED


class LedgerAuditor:
    """A participant that periodically verifies a ledger's integrity."""

    def __init__(self, name: str = "auditor", tracer=None):
        self.name = name
        self.trusted_digest: Optional[LedgerDigest] = None
        self.audit_count = 0
        self.tracer = tracer or NOOP_TRACER

    def audit(
        self,
        ledger: CentralLedger,
        spot_check: int = 0,
        rng=None,
    ) -> AuditReport:
        """One audit round against a possibly-malicious ledger holder."""
        self.audit_count += 1
        span = None
        if self.tracer.enabled:
            span = self.tracer.start_trace(
                "audit.round",
                attributes={"auditor": self.name, "ledger": ledger.name,
                            "round": self.audit_count},
            )
        new_digest = ledger.digest()
        failures: List[str] = []
        checked: List[int] = []

        if self.trusted_digest is None:
            outcome = AuditOutcome.FIRST_CONTACT
        else:
            old = self.trusted_digest
            if new_digest.size < old.size:
                failures.append("history shrank")
                outcome = AuditOutcome.TAMPERED
            else:
                proof = ledger.prove_consistency(old.size, new_digest.size)
                if CentralLedger.verify_extension(old, new_digest, proof):
                    outcome = AuditOutcome.CONSISTENT
                else:
                    failures.append("consistency proof failed")
                    outcome = AuditOutcome.TAMPERED

        if outcome is not AuditOutcome.TAMPERED and spot_check and len(ledger):
            indices = self._choose_indices(len(ledger), spot_check, rng)
            for index in indices:
                entry = ledger.entry(index)
                proof = ledger.prove_inclusion(index, new_digest.size)
                ok = CentralLedger.verify_entry(new_digest, entry, proof)
                if not ok:
                    failures.append(f"inclusion failed for entry {index}")
                    outcome = AuditOutcome.TAMPERED
                checked.append(index)
                if span is not None:
                    # Anchored pipeline decisions carry the update's
                    # trace_id, so spot checks correlate with the
                    # pipeline's event log entry for the same update.
                    payload = entry.payload
                    if not isinstance(payload, dict):
                        payload = {}
                    self.tracer.event(
                        "audit.entry_check",
                        trace_id=payload.get("trace_id"),
                        auditor=self.name,
                        sequence=index,
                        ok=ok,
                    )

        report = AuditReport(
            outcome=outcome,
            old_digest=self.trusted_digest,
            new_digest=new_digest,
            checked_entries=checked,
            failures=failures,
        )
        if report.ok:
            self.trusted_digest = new_digest
        if span is not None:
            span.set_attribute("outcome", outcome.value)
            span.set_attribute("checked_entries", len(checked))
            if failures:
                span.set_status("error")
                span.set_attribute("failures", list(failures))
            span.end()
        return report

    def cross_check(self, other: "LedgerAuditor", ledger: CentralLedger) -> bool:
        """Gossip defense against split-view attacks.

        A malicious ledger holder can serve two auditors different,
        individually-consistent histories (a fork); neither auditor
        alone can notice.  When auditors gossip their trusted digests,
        the holder must produce a consistency proof between them —
        impossible across a fork.  Returns True when the two views are
        provably on one history.
        """
        mine, theirs = self.trusted_digest, other.trusted_digest
        if mine is None or theirs is None:
            return True  # nothing to compare yet
        older, newer = (mine, theirs) if mine.size <= theirs.size else (theirs, mine)
        if older.size == newer.size:
            return older.root == newer.root
        try:
            proof = ledger.prove_consistency(older.size, newer.size)
        except Exception:
            return False
        return CentralLedger.verify_extension(older, newer, proof)

    @staticmethod
    def _choose_indices(size: int, count: int, rng=None) -> List[int]:
        if rng is None:
            # Deterministic spread: evenly spaced spot checks.
            step = max(1, size // max(1, count))
            return list(range(0, size, step))[:count]
        return sorted({rng.randbelow(size) for _ in range(count)})
