"""Permissioned blockchain infrastructure (RC4, federated setting).

* :mod:`repro.chain.blockchain` — a Fabric-style permissioned chain:
  PBFT ordering, blocks with Merkle transaction roots and hash links,
  private data collections (payload hash on-chain, payload off-chain
  replicated only to collection members);
* :mod:`repro.chain.sharper` — SharPer-style sharding: one consensus
  cluster per shard, cross-shard transactions coordinated across the
  involved shards;
* :mod:`repro.chain.qanaat` — Qanaat-style confidential collaborations:
  every subset of enterprises can form a private collaboration whose
  data other enterprises never see, anchored for global integrity.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.chain.blockchain import (
        Block,
        Transaction,
        PermissionedBlockchain,
        PrivateDataCollection,
    )
    from repro.chain.sharper import ShardedLedger, CrossShardResult
    from repro.chain.qanaat import QanaatNetwork, Collaboration

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.chain.blockchain": (
        "Block", "Transaction", "PermissionedBlockchain",
        "PrivateDataCollection",
    ),
    "repro.chain.sharper": ("ShardedLedger", "CrossShardResult"),
    "repro.chain.qanaat": ("QanaatNetwork", "Collaboration"),
})

__all__ = [
    "Block",
    "Transaction",
    "PermissionedBlockchain",
    "PrivateDataCollection",
    "ShardedLedger",
    "CrossShardResult",
    "QanaatNetwork",
    "Collaboration",
]
