"""Merkle trees with inclusion and consistency proofs (RFC-6962 style).

The append-only ledgers of RC4 hash their entries into a Merkle tree.
Two proof types matter:

* **inclusion**: entry i is under digest D of an n-entry tree;
* **consistency**: the tree with digest D_m (m entries) is a prefix of
  the tree with digest D_n (n entries) — i.e. history was only ever
  appended to, never rewritten.

Leaf and node hashes are domain-separated (0x00 / 0x01 prefixes) to
block second-preimage splicing attacks.
"""

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.common.errors import IntegrityError
from repro.crypto.hashing import sha256d

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    return sha256d(_LEAF_PREFIX + data, domain=b"merkle")


def node_hash(left: bytes, right: bytes) -> bytes:
    return sha256d(_NODE_PREFIX + left + right, domain=b"merkle")


@dataclass(frozen=True)
class InclusionProof:
    """Audit path for one leaf."""

    leaf_index: int
    tree_size: int
    path: List[bytes] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "leaf_index": self.leaf_index,
            "tree_size": self.tree_size,
            "path": list(self.path),
        }


@dataclass(frozen=True)
class ConsistencyProof:
    """Nodes proving an old tree is a prefix of a new tree."""

    old_size: int
    new_size: int
    path: List[bytes] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "old_size": self.old_size,
            "new_size": self.new_size,
            "path": list(self.path),
        }


class MerkleTree:
    """An appendable Merkle tree storing leaf hashes.

    Root/proof computation uses the recursive RFC-6962 split (largest
    power of two strictly less than n), so proofs interoperate with the
    standard verification equations implemented below.
    """

    def __init__(self, leaves: Sequence[bytes] = ()):  # raw leaf *data*
        self._leaf_hashes: List[bytes] = [leaf_hash(data) for data in leaves]

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def append(self, data: bytes) -> int:
        """Append raw leaf data; returns the new leaf's index."""
        self._leaf_hashes.append(leaf_hash(data))
        return len(self._leaf_hashes) - 1

    def extend(self, datas: Iterable[bytes]) -> range:
        """Append many leaves at once; returns their index range.

        Equivalent to appending each in order — leaf hashes (and so
        every root and proof) are identical — but avoids per-leaf call
        overhead on the batched ledger path.
        """
        start = len(self._leaf_hashes)
        self._leaf_hashes.extend(leaf_hash(data) for data in datas)
        return range(start, len(self._leaf_hashes))

    def root(self, size: int = None) -> bytes:
        """Root over the first ``size`` leaves (default: all).

        The empty tree's root is the hash of the empty string, matching
        RFC 6962.
        """
        size = len(self._leaf_hashes) if size is None else size
        if size > len(self._leaf_hashes) or size < 0:
            raise IntegrityError("tree size out of range")
        if size == 0:
            return sha256d(b"", domain=b"merkle")
        return self._subtree_root(0, size)

    def _subtree_root(self, start: int, size: int) -> bytes:
        if size == 1:
            return self._leaf_hashes[start]
        k = _largest_power_of_two_below(size)
        left = self._subtree_root(start, k)
        right = self._subtree_root(start + k, size - k)
        return node_hash(left, right)

    def inclusion_proof(self, index: int, size: int = None) -> InclusionProof:
        size = len(self._leaf_hashes) if size is None else size
        if not 0 <= index < size <= len(self._leaf_hashes):
            raise IntegrityError("leaf index out of range")
        path = self._audit_path(index, 0, size)
        return InclusionProof(leaf_index=index, tree_size=size, path=path)

    def _audit_path(self, index: int, start: int, size: int) -> List[bytes]:
        if size == 1:
            return []
        k = _largest_power_of_two_below(size)
        if index < k:
            path = self._audit_path(index, start, k)
            path.append(self._subtree_root(start + k, size - k))
        else:
            path = self._audit_path(index - k, start + k, size - k)
            path.append(self._subtree_root(start, k))
        return path

    def consistency_proof(self, old_size: int, new_size: int = None) -> ConsistencyProof:
        new_size = len(self._leaf_hashes) if new_size is None else new_size
        if not 0 < old_size <= new_size <= len(self._leaf_hashes):
            raise IntegrityError("invalid sizes for consistency proof")
        if old_size == new_size:
            return ConsistencyProof(old_size, new_size, [])
        path = self._consistency_subproof(old_size, 0, new_size, True)
        return ConsistencyProof(old_size=old_size, new_size=new_size, path=path)

    def _consistency_subproof(
        self, m: int, start: int, n: int, complete: bool
    ) -> List[bytes]:
        if m == n:
            return [] if complete else [self._subtree_root(start, n)]
        k = _largest_power_of_two_below(n)
        if m <= k:
            path = self._consistency_subproof(m, start, k, complete)
            path.append(self._subtree_root(start + k, n - k))
        else:
            path = self._consistency_subproof(m - k, start + k, n - k, False)
            path.append(self._subtree_root(start, k))
        return path


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than n (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def verify_inclusion(root: bytes, data: bytes, proof: InclusionProof) -> bool:
    """Check that leaf ``data`` is under ``root`` via ``proof``.

    Verification replays the prover's recursion: the audit path is
    consumed from the top (end of the list) downward, so the computed
    root is correct iff every sibling hash is.
    """
    index, size = proof.leaf_index, proof.tree_size
    if not 0 <= index < size:
        return False
    path = list(proof.path)
    try:
        computed = _root_from_audit_path(index, size, leaf_hash(data), path)
    except IntegrityError:
        return False
    return not path and computed == root


def _root_from_audit_path(
    index: int, size: int, digest: bytes, path: List[bytes]
) -> bytes:
    if size == 1:
        return digest
    if not path:
        raise IntegrityError("audit path too short")
    sibling = path.pop()
    k = _largest_power_of_two_below(size)
    if index < k:
        sub = _root_from_audit_path(index, k, digest, path)
        return node_hash(sub, sibling)
    sub = _root_from_audit_path(index - k, size - k, digest, path)
    return node_hash(sibling, sub)


def verify_consistency(
    old_root: bytes, new_root: bytes, proof: ConsistencyProof
) -> bool:
    """Check that the ``old_size``-entry tree with ``old_root`` is a
    prefix of the ``new_size``-entry tree with ``new_root``.

    Mirrors the prover's recursion, reconstructing both roots from the
    proof nodes.
    """
    m, n = proof.old_size, proof.new_size
    if m == n:
        return old_root == new_root and not proof.path
    if not 0 < m < n:
        return False
    path = list(proof.path)
    try:
        computed_old, computed_new = _roots_from_consistency_path(
            m, n, True, path, old_root
        )
    except IntegrityError:
        return False
    return not path and computed_old == old_root and computed_new == new_root


def _roots_from_consistency_path(
    m: int, n: int, complete: bool, path: List[bytes], old_root: bytes
):
    """Return (old_subtree_hash, new_subtree_hash) for this recursion
    level, consuming proof nodes from the end of ``path``."""
    if m == n:
        if complete:
            # This whole subtree is exactly the old tree.
            return old_root, old_root
        if not path:
            raise IntegrityError("consistency path too short")
        shared = path.pop()
        return shared, shared
    if not path:
        raise IntegrityError("consistency path too short")
    sibling = path.pop()
    k = _largest_power_of_two_below(n)
    if m <= k:
        old_sub, new_sub = _roots_from_consistency_path(
            m, k, complete, path, old_root
        )
        # The right sibling exists only in the new tree.
        return old_sub, node_hash(new_sub, sibling)
    old_sub, new_sub = _roots_from_consistency_path(
        m - k, n - k, False, path, old_root
    )
    # The left subtree of size k is shared by both trees.
    return node_hash(sibling, old_sub), node_hash(sibling, new_sub)
