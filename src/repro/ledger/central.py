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

from array import array
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate
from typing import Any, List, Optional, Sequence

from repro.common.encoding import RawJson, encode_canonical
from repro.common.errors import IntegrityError
from repro.common.serialization import from_canonical_json
from repro.crypto.merkle import (
    ConsistencyProof,
    InclusionProof,
    MerkleTree,
    verify_consistency,
    verify_inclusion,
)
from repro.obs.tracing import NOOP_TRACER

# Canonical JSON sorts keys and is ASCII, so every leaf is
# ``{"payload":<fragment>,"sequence":<n>}`` and the payload's own
# canonical encoding can be spliced in, or sliced back out, without
# parsing.
_LEAF_PREFIX = b'{"payload":'


def _leaf_bytes(sequence: int, encoded_payload: str) -> bytes:
    """The canonical leaf for ``encoded_payload`` (the payload's
    canonical JSON) at ``sequence`` — byte-identical to encoding
    ``{"sequence": sequence, "payload": payload}``."""
    return b'%s%s,"sequence":%d}' % (
        _LEAF_PREFIX, encoded_payload.encode("utf-8"), sequence)


def _suffix_len(sequence: int) -> int:
    return len(b',"sequence":%d}' % sequence)


class LedgerEntry:
    """One journal entry: a sequence number plus an opaque payload.

    The entry holds exactly what the Merkle tree hashed — its canonical
    leaf bytes — and nothing else: no payload object, no memo.  The
    ledger builds one on read, as a view over its packed leaf buffer,
    and keeps none.  An entry is immutable (assignment raises
    :class:`~dataclasses.FrozenInstanceError`) and compares, hashes and
    prints by ``(sequence, payload)``, which the leaf bytes determine.
    """

    __slots__ = ("sequence", "_leaf")

    def __init__(self, sequence: int, payload: Any):
        _set = object.__setattr__
        _set(self, "sequence", sequence)
        _set(self, "_leaf", _leaf_bytes(sequence, encode_canonical(payload)))

    @classmethod
    def with_encoded_payload(cls, sequence: int,
                             encoded_payload: str) -> "LedgerEntry":
        """Build an entry whose payload was already canonically encoded
        (``encoded_payload`` must be ``canonical_json(payload)``); the
        leaf bytes splice the fragment instead of re-encoding, and the
        result is byte-identical to the re-encoding path."""
        return cls._from_leaf(sequence, _leaf_bytes(sequence, encoded_payload))

    @classmethod
    def _from_leaf(cls, sequence: int, leaf: bytes) -> "LedgerEntry":
        """An entry over leaf bytes the ledger already holds."""
        entry = object.__new__(cls)
        object.__setattr__(entry, "sequence", sequence)
        object.__setattr__(entry, "_leaf", leaf)
        return entry

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
        return self._leaf[len(_LEAF_PREFIX):-_suffix_len(self.sequence)
                          ].decode("utf-8")

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
    """Append-only journal with Merkle anchoring: every leaf back to
    back in one ``bytearray``, its end offset in an ``array('q')``, and
    :class:`LedgerEntry` views built on read.  The one writer fills the
    buffer, the tree, then the offsets readers size themselves by, and
    no view of the buffer escapes, so readers on other threads see
    whole entries and the buffer can always grow."""

    def __init__(self, name: str = "ledger", tracer=None):
        self.name = name
        self._tracer = tracer or NOOP_TRACER
        self._clear()

    def _clear(self) -> None:
        self._leaves = bytearray()
        self._ends = array("q")
        self._tree = MerkleTree()

    def bind_tracer(self, tracer) -> None:
        """Attach a tracer after construction (the framework does this
        so Merkle-extension spans appear in pipeline traces)."""
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._ends)

    def _store(self, leaves: List[bytes]) -> None:
        base = self._ends[-1] if self._ends else 0
        self._leaves += b"".join(leaves)
        self._tree.extend(leaves)
        self._ends.extend(array("q", accumulate(map(len, leaves), initial=base))[1:])

    def _leaf(self, sequence: int) -> bytes:
        start = self._ends[sequence - 1] if sequence else 0
        return bytes(self._leaves[start:self._ends[sequence]])

    def append(self, payload: Any,
               encoded_payload: Optional[str] = None) -> LedgerEntry:
        """Append one opaque payload; returns the new journal entry
        (its ``sequence`` doubles as the Merkle leaf index).

        ``encoded_payload``, when given, must be the payload's
        canonical JSON; the leaf bytes then splice it instead of
        re-encoding (the anchor stage shares one encoding between the
        Merkle leaf and the WAL anchor frame).
        """
        sequence = len(self)
        if encoded_payload is None:
            encoded_payload = encode_canonical(payload)
        leaf = _leaf_bytes(sequence, encoded_payload)
        self._store([leaf])
        return LedgerEntry._from_leaf(sequence, leaf)

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
        if encoded_payloads is None:
            encoded_payloads = [encode_canonical(p) for p in payloads]
        elif len(encoded_payloads) != len(payloads):
            raise IntegrityError("encoded_payloads must parallel payloads")
        start = len(self)
        leaves = [_leaf_bytes(start + offset, encoded)
                  for offset, encoded in enumerate(encoded_payloads)]
        if self._tracer.enabled:
            with self._tracer.span("merkle.extend", ledger=self.name,
                                   leaves=len(leaves), start=start):
                self._store(leaves)
        else:
            self._store(leaves)
        return [LedgerEntry._from_leaf(start + offset, leaf)
                for offset, leaf in enumerate(leaves)]

    def entry(self, sequence: int) -> LedgerEntry:
        """The entry at ``sequence``; :class:`IntegrityError` if absent."""
        if not 0 <= sequence < len(self):
            raise IntegrityError(f"no entry {sequence} in {self.name!r}")
        return LedgerEntry._from_leaf(sequence, self._leaf(sequence))

    def entries(self, since: int = 0) -> List[LedgerEntry]:
        """All entries from sequence ``since`` onward, each built on
        read.  Entries hold bytes: each ``entry.payload`` read is a
        decode."""
        return [LedgerEntry._from_leaf(sequence, self._leaf(sequence))
                for sequence in range(max(since, 0), len(self))]

    def find(self, needle: bytes, since: int = 0) -> Optional[int]:
        """The first sequence at or after ``since`` whose leaf bytes
        contain ``needle``, or None: one search over the packed leaves,
        no entry built (a match straddling two leaves is no match)."""
        ends = self._ends
        size = len(ends)
        if not 0 <= since < size:
            return None
        at = ends[since - 1] if since else 0
        while True:
            at = self._leaves.find(needle, at, ends[size - 1])
            if at < 0:
                return None
            sequence = bisect_right(ends, at, since, size)
            if at + len(needle) <= ends[sequence]:
                return sequence
            at = ends[sequence]

    def digest(self, size: Optional[int] = None) -> LedgerDigest:
        """The commitment to the first ``size`` entries (default: all)."""
        size = len(self) if size is None else size
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
        """Serializable ledger state for the durability snapshotter:
        every entry's payload, sliced out of the leaf buffer as a
        :class:`RawJson` fragment (the snapshot file's bytes are the
        stored fragments), plus the root as a self-check."""
        digest = self.digest()
        entries, start = [], 0
        for sequence, end in enumerate(self._ends[:digest.size]):
            entries.append(RawJson(self._leaves[
                start + len(_LEAF_PREFIX):end - _suffix_len(sequence)
            ].decode("utf-8")))
            start = end
        return {
            "name": self.name,
            "size": digest.size,
            "root": digest.root.hex(),
            "entries": entries,
        }

    def restore_state(self, state: dict) -> None:
        """Restore from :meth:`snapshot_state` output into an empty
        ledger (fail-closed: :class:`IntegrityError` on any mismatch).

        The tree is rebuilt by hashing the restored entries, so the
        check against the stored root covers every entry; leaf hashes
        an older snapshot stored (``leaf_hashes``) are ignored."""
        if len(self):
            raise IntegrityError(
                f"refusing to restore into non-empty ledger {self.name!r}"
            )
        entries = state["entries"]
        if len(entries) != state["size"]:
            raise IntegrityError("ledger snapshot size mismatch")
        self._store([_leaf_bytes(index, encode_canonical(payload))
                     for index, payload in enumerate(entries)])
        if self._tree.root().hex() != state["root"]:
            self._clear()
            raise IntegrityError(
                "ledger snapshot root mismatch: snapshot tampered or corrupt"
            )

    # -- adversarial hooks for the tamper tests ---------------------------

    def tamper_rewrite(self, sequence: int, payload: Any) -> None:
        """Simulate a malicious manager rewriting history in place.

        Rebuilds the buffer and the tree so the *current* digest looks
        internally consistent; detection happens when checked against
        an honestly retained earlier digest.
        """
        if not 0 <= sequence < len(self):
            raise IntegrityError("tamper target out of range")
        leaves = [self._leaf(index) for index in range(len(self))]
        leaves[sequence] = _leaf_bytes(sequence, encode_canonical(payload))
        self._clear()
        self._store(leaves)
