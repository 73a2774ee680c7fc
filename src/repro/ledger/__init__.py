"""Append-only ledgers (Research Challenge 4, single-database setting).

A centralized ledger database in the style of Amazon QLDB / Alibaba
LedgerDB: an append-only journal whose entries are anchored in a Merkle
tree, exposing digests, inclusion proofs, consistency proofs, and an
auditor that any participant can run against an untrusted copy.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.ledger.central import CentralLedger, LedgerEntry, LedgerDigest
    from repro.ledger.audit import LedgerAuditor, AuditReport

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ledger.central": ("CentralLedger", "LedgerEntry", "LedgerDigest"),
    "repro.ledger.audit": ("LedgerAuditor", "AuditReport"),
})

__all__ = [
    "CentralLedger",
    "LedgerEntry",
    "LedgerDigest",
    "LedgerAuditor",
    "AuditReport",
]
