"""Updates (Section 3.2).

An update involves at least a data producer and a data manager and may
originate from a collaboration of several producers/managers (e.g. a
crowdworking task completion involves a worker, a requester, and a
platform).  Updates are signed by their initiating producer and carry a
privacy label.
"""

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.ids import make_id
from repro.common.serialization import canonical_bytes
from repro.model.policy import Visibility


class UpdateOperation(enum.Enum):
    """The three mutation kinds an update can request (Section 3.2)."""

    INSERT = "insert"
    MODIFY = "modify"
    DELETE = "delete"


class UpdateStatus(enum.Enum):
    """Lifecycle of an update as the Figure-2 pipeline advances it."""

    PENDING = "pending"
    VERIFIED = "verified"
    APPLIED = "applied"
    REJECTED = "rejected"


@dataclass(slots=True)
class Update:
    """One incoming update.

    ``payload`` holds the new field values; ``key`` identifies the
    target row for MODIFY/DELETE.  ``producers`` and ``managers`` list
    the collaborating participants' names (provenance).
    """

    table: str
    operation: UpdateOperation
    payload: Dict[str, Any]
    key: Optional[Tuple] = None
    visibility: Visibility = Visibility.PRIVATE
    producers: List[str] = field(default_factory=list)
    managers: List[str] = field(default_factory=list)
    update_id: str = field(default_factory=lambda: make_id("upd"))
    status: UpdateStatus = UpdateStatus.PENDING
    rejection_reason: Optional[str] = None
    signature: Optional[object] = None
    signer_public_key: Optional[int] = None

    def body_bytes(self) -> bytes:
        """Canonical bytes of the signed portion (everything except the
        mutable status fields and the signature itself)."""
        return canonical_bytes(
            {
                "table": self.table,
                "operation": self.operation.value,
                "payload": self.payload,
                "key": list(self.key) if self.key is not None else None,
                "visibility": self.visibility.value,
                "producers": self.producers,
                "managers": self.managers,
                "update_id": self.update_id,
            }
        )

    def sign_with(self, producer) -> "Update":
        """Producer signs the update body; returns self for chaining.

        The producer is added to the provenance list *before* signing
        so the signature covers it.
        """
        if producer.name not in self.producers:
            self.producers.append(producer.name)
        self.signature = producer.sign(self.body_bytes())
        self.signer_public_key = producer.public_key
        return self

    def mark_verified(self) -> None:
        """Advance the lifecycle: the update passed verification."""
        self.status = UpdateStatus.VERIFIED

    def mark_applied(self) -> None:
        """Advance the lifecycle: the update was incorporated."""
        self.status = UpdateStatus.APPLIED

    def mark_rejected(self, reason: str) -> None:
        """Terminate the lifecycle with a rejection and its reason."""
        self.status = UpdateStatus.REJECTED
        self.rejection_reason = reason

    def to_dict(self) -> dict:
        """Summary dict for logs and reports (not the signed body)."""
        return {
            "table": self.table,
            "operation": self.operation.value,
            "payload": self.payload,
            "key": list(self.key) if self.key is not None else None,
            "visibility": self.visibility.value,
            "update_id": self.update_id,
            "status": self.status.value,
        }

    # -- the wire representation (repro.serve) ----------------------------

    def to_wire(self) -> dict:
        """The update's signed fields as a JSON-safe dict.

        Exactly the fields :meth:`body_bytes` covers, in wire-transport
        form — a producer-signed update reconstructed from this dict
        (plus its signature, carried separately by
        :func:`repro.serve.protocol.update_to_wire`) re-serializes to
        the same signing bytes, so provenance survives the network.
        """
        return {
            "table": self.table,
            "operation": self.operation.value,
            "payload": self.payload,
            "key": list(self.key) if self.key is not None else None,
            "visibility": self.visibility.value,
            "producers": list(self.producers),
            "managers": list(self.managers),
            "update_id": self.update_id,
        }

    @staticmethod
    def operation_from_wire(value) -> "UpdateOperation":
        """Parse a wire operation string, with a serve-friendly error.

        Raises :class:`ValueError` naming the valid operations rather
        than ``KeyError``/``ValueError`` internals, so the serving tier
        can surface it verbatim as a BAD_MESSAGE response.
        """
        try:
            return UpdateOperation(value)
        except ValueError:
            valid = sorted(op.value for op in UpdateOperation)
            raise ValueError(
                f"unknown update operation {value!r}; expected one of {valid}"
            ) from None
