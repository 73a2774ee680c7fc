"""Qanaat-style confidential multi-enterprise collaborations.

Qanaat (cited by the paper as the fix for Fabric's confidentiality
overhead) lets *every subset* of enterprises form a confidential
collaboration: data within a collaboration is replicated only to its
members, while a global hash anchor chain preserves integrity across
collaborations.  PReVer leverages exactly two properties, both
implemented here:

* **confidentiality** — an enterprise outside a collaboration can never
  read its records (enforced, tested);
* **verifiability** — any enterprise can verify that a collaboration's
  history it *is* allowed to see matches the global anchors.

Each collaboration keeps an internal :class:`CentralLedger`; after
every append, the collaboration's latest digest is anchored onto a
shared integrity chain (a public ledger of (collaboration, digest)
pairs), so members can detect fork/rollback by comparing against the
anchor trail without revealing contents to outsiders.
"""

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.common.errors import IntegrityError, PrivacyError
from repro.ledger.central import CentralLedger, LedgerDigest


@dataclass
class Collaboration:
    """A confidential data collection shared by a set of enterprises."""

    name: str
    members: FrozenSet[str]
    ledger: CentralLedger

    def involves(self, enterprise: str) -> bool:
        return enterprise in self.members


class QanaatNetwork:
    """Enterprises + collaborations + the shared anchor chain."""

    def __init__(self, enterprises: Set[str]):
        self.enterprises = set(enterprises)
        self._collaborations: Dict[str, Collaboration] = {}
        self.anchor_chain = CentralLedger(name="qanaat-anchors")

    # -- collaboration management ------------------------------------------

    def form_collaboration(self, name: str, members: Set[str]) -> Collaboration:
        unknown = set(members) - self.enterprises
        if unknown:
            raise IntegrityError(f"unknown enterprises {sorted(unknown)}")
        if name in self._collaborations:
            raise IntegrityError(f"collaboration {name!r} already exists")
        collaboration = Collaboration(
            name=name,
            members=frozenset(members),
            ledger=CentralLedger(name=f"collab-{name}"),
        )
        self._collaborations[name] = collaboration
        return collaboration

    def collaboration(self, name: str) -> Collaboration:
        try:
            return self._collaborations[name]
        except KeyError:
            raise IntegrityError(f"no collaboration {name!r}") from None

    # -- writes ----------------------------------------------------------------

    def append(self, enterprise: str, collaboration_name: str, record: Any) -> None:
        collaboration = self.collaboration(collaboration_name)
        if not collaboration.involves(enterprise):
            raise PrivacyError(
                f"{enterprise!r} is not a member of {collaboration_name!r}"
            )
        collaboration.ledger.append(record)
        digest = collaboration.ledger.digest()
        self.anchor_chain.append(
            {
                "collaboration": collaboration_name,
                "size": digest.size,
                "root": digest.root,
            }
        )

    # -- reads ------------------------------------------------------------------

    def read(self, enterprise: str, collaboration_name: str) -> List[Any]:
        collaboration = self.collaboration(collaboration_name)
        if not collaboration.involves(enterprise):
            raise PrivacyError(
                f"{enterprise!r} may not read {collaboration_name!r}"
            )
        return [entry.payload for entry in collaboration.ledger.entries()]

    def visible_collaborations(self, enterprise: str) -> List[str]:
        return sorted(
            name
            for name, collab in self._collaborations.items()
            if collab.involves(enterprise)
        )

    # -- integrity -----------------------------------------------------------------

    def latest_anchor(self, collaboration_name: str) -> Optional[LedgerDigest]:
        latest = None
        for entry in self.anchor_chain.entries():
            payload = entry.payload
            if payload["collaboration"] == collaboration_name:
                latest = LedgerDigest(
                    size=payload["size"], root=payload["root"]
                )
        return latest

    def verify_collaboration(self, enterprise: str, collaboration_name: str) -> bool:
        """A member checks its collaboration's ledger against the last
        public anchor — catches rollback/fork by a dishonest member."""
        collaboration = self.collaboration(collaboration_name)
        if not collaboration.involves(enterprise):
            raise PrivacyError(
                f"{enterprise!r} may not verify {collaboration_name!r}"
            )
        anchor = self.latest_anchor(collaboration_name)
        if anchor is None:
            return len(collaboration.ledger) == 0
        if anchor.size > len(collaboration.ledger):
            return False  # local copy is behind / rolled back
        return collaboration.ledger.digest(anchor.size).root == anchor.root
