"""The centralized ledger database (QLDB/LedgerDB substitute).

The ledger stores opaque entry payloads (PReVer appends update records
and constraint-verification attestations).  Every append extends a
Merkle tree; a *digest* (root + size) can be published out-of-band, and
the ledger produces:

* inclusion proofs — "entry i is in the history with digest D";
* consistency proofs — "digest D2 extends digest D1 append-only".

Tamper-evidence, not tamper-prevention: a malicious manager can rewrite
its local journal, but any participant holding an old digest will catch
it (see :mod:`repro.ledger.audit` and the tamper tests).
"""

from dataclasses import FrozenInstanceError, dataclass
from typing import Any, List, Optional, Sequence

from repro.common.encoding import RawJson, encode_canonical_bytes
from repro.common.errors import IntegrityError
from repro.common.serialization import canonical_json, from_canonical_json
from repro.crypto.merkle import (
    ConsistencyProof,
    InclusionProof,
    MerkleTree,
    verify_consistency,
    verify_inclusion,
)
from repro.obs.tracing import NOOP_TRACER

# Canonical JSON sorts keys, so every leaf is
# ``{"payload":<fragment>,"sequence":<n>}`` and the payload's own
# canonical encoding can be sliced back out without parsing.
_LEAF_PREFIX = b'{"payload":'


class LedgerEntry:
    """One journal entry: a sequence number plus an opaque payload.

    The entry holds exactly what the Merkle tree hashed — its canonical
    leaf bytes — and nothing else: no payload object, no memo.  It is
    immutable (assignment raises :class:`~dataclasses.FrozenInstanceError`)
    and compares, hashes and prints by ``(sequence, payload)``, which
    the leaf bytes determine.
    """

    __slots__ = ("sequence", "_leaf")

    def __init__(self, sequence: int, payload: Any):
        _set = object.__setattr__
        _set(self, "sequence", sequence)
        _set(self, "_leaf", encode_canonical_bytes(
            {"sequence": sequence, "payload": payload}
        ))

    @classmethod
    def with_encoded_payload(cls, sequence: int,
                             encoded_payload: str) -> "LedgerEntry":
        """Build an entry whose payload was already canonically encoded
        (``encoded_payload`` must be ``canonical_json(payload)``); the
        leaf bytes splice the fragment instead of re-encoding, and the
        result is byte-identical to the re-encoding path."""
        return cls(sequence, RawJson(encoded_payload))

    @property
    def payload(self) -> Any:
        """The payload, decoded from the leaf bytes on every read —
        nothing is memoised, so bind it to a local when reading more
        than one field.  Tuples come back as lists and ``to_dict``
        objects as dicts: what was anchored, not what was passed."""
        return from_canonical_json(self.encoded_payload())

    def encoded_payload(self) -> str:
        """The payload's canonical JSON, sliced out of the leaf bytes
        (splice it with :class:`~repro.common.encoding.RawJson`
        instead of decoding and re-encoding)."""
        suffix = len(b',"sequence":%d}' % self.sequence)
        return self._leaf[len(_LEAF_PREFIX):-suffix].decode("utf-8")

    def leaf_bytes(self) -> bytes:
        """Canonical bytes hashed into the Merkle tree for this entry."""
        return self._leaf

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LedgerEntry:
            return NotImplemented
        return self._leaf == other._leaf

    def __hash__(self) -> int:
        return hash(self._leaf)

    def __repr__(self) -> str:
        return (f"LedgerEntry(sequence={self.sequence!r}, "
                f"payload={self.payload!r})")

    def __reduce__(self):
        # Slots plus a refusing __setattr__ defeat the default pickle
        # protocol; rebuild from the same spliced fragment instead.
        return (LedgerEntry.with_encoded_payload,
                (self.sequence, self.encoded_payload()))


@dataclass(frozen=True)
class LedgerDigest:
    """A published commitment to the first ``size`` entries."""

    size: int
    root: bytes

    def to_dict(self) -> dict:
        """Serializable form (``root`` stays raw bytes; the canonical
        JSON encoder hex-tags it)."""
        return {"size": self.size, "root": self.root}


class CentralLedger:
    """Append-only journal with Merkle anchoring."""

    def __init__(self, name: str = "ledger", tracer=None):
        self.name = name
        self._entries: List[LedgerEntry] = []
        self._tree = MerkleTree()
        self._tracer = tracer or NOOP_TRACER

    def bind_tracer(self, tracer) -> None:
        """Attach a tracer after construction (the framework does this
        so Merkle-extension spans appear in pipeline traces)."""
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, payload: Any,
               encoded_payload: Optional[str] = None) -> LedgerEntry:
        """Append one opaque payload; returns the new journal entry
        (its ``sequence`` doubles as the Merkle leaf index).

        ``encoded_payload``, when given, must be the payload's
        canonical JSON; the leaf bytes then splice it instead of
        re-encoding (the anchor stage shares one encoding between the
        Merkle leaf and the WAL anchor frame).
        """
        sequence = len(self._entries)
        if encoded_payload is None:
            entry = LedgerEntry(sequence, payload)
        else:
            entry = LedgerEntry.with_encoded_payload(sequence, encoded_payload)
        self._entries.append(entry)
        self._tree.append(entry.leaf_bytes())
        return entry

    def append_batch(self, payloads: Sequence[Any],
                     encoded_payloads: Optional[Sequence[str]] = None,
                     ) -> List[LedgerEntry]:
        """Append many payloads under one amortized Merkle extension.

        Entries get the same consecutive sequence numbers (and hence
        the same leaf bytes, digests, inclusion and consistency proofs)
        as if each payload had been :meth:`append`-ed individually —
        the tree is simply extended in bulk instead of leaf-by-leaf.
        ``encoded_payloads`` (parallel to ``payloads``) carries each
        payload's canonical JSON when the caller already encoded it;
        leaf bytes are then assembled by fragment splicing — zero
        payload re-serialization — with byte-identical output.  Either
        way the ledger keeps the leaf bytes and drops the payload
        objects.
        """
        start = len(self._entries)
        if encoded_payloads is None:
            entries = [
                LedgerEntry(start + offset, payload)
                for offset, payload in enumerate(payloads)
            ]
        else:
            if len(encoded_payloads) != len(payloads):
                raise IntegrityError(
                    "encoded_payloads must parallel payloads"
                )
            entries = [
                LedgerEntry.with_encoded_payload(start + offset, encoded)
                for offset, encoded in enumerate(encoded_payloads)
            ]
        self._entries.extend(entries)
        leaf_data = [entry.leaf_bytes() for entry in entries]
        if self._tracer.enabled:
            with self._tracer.span("merkle.extend", ledger=self.name,
                                   leaves=len(entries), start=start):
                self._tree.extend(leaf_data)
        else:
            self._tree.extend(leaf_data)
        return entries

    def entry(self, sequence: int) -> LedgerEntry:
        """The entry at ``sequence``; :class:`IntegrityError` if absent."""
        try:
            return self._entries[sequence]
        except IndexError:
            raise IntegrityError(f"no entry {sequence} in {self.name!r}") from None

    def entries(self, since: int = 0) -> List[LedgerEntry]:
        """All entries from sequence ``since`` onward (a shallow copy).
        Entries hold bytes: each ``entry.payload`` read is a decode."""
        return list(self._entries[since:])

    def digest(self, size: Optional[int] = None) -> LedgerDigest:
        """The commitment to the first ``size`` entries (default: all)."""
        size = len(self._entries) if size is None else size
        return LedgerDigest(size=size, root=self._tree.root(size))

    def prove_inclusion(self, sequence: int, size: Optional[int] = None) -> InclusionProof:
        """Audit path showing entry ``sequence`` is under the size-``size``
        digest (default: the current one)."""
        return self._tree.inclusion_proof(sequence, size)

    def prove_consistency(self, old_size: int, new_size: Optional[int] = None) -> ConsistencyProof:
        """Proof that the ``old_size``-entry history is an untouched
        prefix of the ``new_size``-entry history (default: current)."""
        return self._tree.consistency_proof(old_size, new_size)

    # -- static verification (no ledger access needed) -------------------

    @staticmethod
    def verify_entry(
        digest: LedgerDigest, entry: LedgerEntry, proof: InclusionProof
    ) -> bool:
        """Check an inclusion proof against a published digest."""
        if proof.tree_size != digest.size:
            return False
        return verify_inclusion(digest.root, entry.leaf_bytes(), proof)

    @staticmethod
    def verify_extension(
        old: LedgerDigest, new: LedgerDigest, proof: ConsistencyProof
    ) -> bool:
        """Check a consistency proof between two published digests."""
        if proof.old_size != old.size or proof.new_size != new.size:
            return False
        return verify_consistency(old.root, new.root, proof)

    # -- durability hooks --------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serializable ledger state for the durability snapshotter.

        Includes the leaf-hash vector so :meth:`restore_state` can
        rebuild the Merkle tree without rehashing, plus the root as a
        self-check, and the raw payloads so audits keep working after
        recovery.
        """
        digest = self.digest()
        return {
            "name": self.name,
            "size": digest.size,
            "root": digest.root.hex(),
            "leaf_hashes": [h.hex() for h in self._tree.leaf_hashes()],
            # Spliced, not decoded: the snapshot file's bytes are the
            # stored fragments (restore_state accepts them as they are).
            "entries": [RawJson(entry.encoded_payload())
                        for entry in self._entries],
        }

    def restore_state(self, state: dict) -> None:
        """Restore from :meth:`snapshot_state` output into an empty
        ledger, verifying the rebuilt tree's root against the stored
        one (fail-closed: :class:`IntegrityError` on any mismatch)."""
        if self._entries:
            raise IntegrityError(
                f"refusing to restore into non-empty ledger {self.name!r}"
            )
        entries = state["entries"]
        leaf_hashes = [bytes.fromhex(h) for h in state["leaf_hashes"]]
        if len(entries) != len(leaf_hashes) or len(entries) != state["size"]:
            raise IntegrityError("ledger snapshot size mismatch")
        self._entries = [
            LedgerEntry(index, payload)
            for index, payload in enumerate(entries)
        ]
        self._tree = MerkleTree.from_leaf_hashes(leaf_hashes)
        root = self._tree.root()
        if root.hex() != state["root"]:
            raise IntegrityError(
                "ledger snapshot root mismatch: snapshot tampered or corrupt"
            )

    # -- persistence -------------------------------------------------------

    def dump(self, path: str) -> None:
        """Persist the journal as canonical JSON lines: a header with
        the current digest, then one line per entry.  The digest lets
        :meth:`load` detect a file tampered at rest."""
        digest = self.digest()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json({
                "ledger": self.name,
                "size": digest.size,
                "root": digest.root,
            }) + "\n")
            for entry in self._entries:
                # A dump line is the entry's canonical leaf, verbatim.
                handle.write(entry.leaf_bytes().decode("utf-8") + "\n")

    @classmethod
    def load(cls, path: str) -> "CentralLedger":
        """Rebuild a ledger from :meth:`dump` output, verifying every
        entry against the stored digest (fail-closed on tampering)."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
        if not lines:
            raise IntegrityError("empty ledger file")
        header = from_canonical_json(lines[0])
        ledger = cls(name=header.get("ledger", "ledger"))
        for index, line in enumerate(lines[1:]):
            record = from_canonical_json(line)
            if record.get("sequence") != index:
                raise IntegrityError(
                    f"ledger file out of order at entry {index}"
                )
            ledger.append(record["payload"])
        digest = ledger.digest()
        if digest.size != header["size"] or digest.root != header["root"]:
            raise IntegrityError(
                "ledger file digest mismatch: tampered or truncated"
            )
        return ledger

    # -- adversarial hooks for the tamper tests ---------------------------

    def tamper_rewrite(self, sequence: int, payload: Any) -> None:
        """Simulate a malicious manager rewriting history in place.

        Rebuilds the tree so the *current* digest looks internally
        consistent; detection happens when checked against an honestly
        retained earlier digest.
        """
        if not 0 <= sequence < len(self._entries):
            raise IntegrityError("tamper target out of range")
        self._entries[sequence] = LedgerEntry(sequence, payload)
        self._tree = MerkleTree([e.leaf_bytes() for e in self._entries])
