"""Permissioned-blockchain substrates (RC4, federated setting).

* :mod:`repro.chain.sharper` — SharPer-style sharding: one consensus
  cluster per shard, cross-shard transactions coordinated across the
  involved shards; :class:`~repro.consensus.driver.SharperDriver`
  orders pipeline shards on it;
* :mod:`repro.chain.qanaat` — Qanaat-style confidential collaborations:
  every subset of enterprises can form a private collaboration whose
  data other enterprises never see, anchored for global integrity (the
  supply-chain application's private data).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.chain.sharper import ShardedLedger, CrossShardResult
    from repro.chain.qanaat import QanaatNetwork, Collaboration

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.chain.sharper": ("ShardedLedger", "CrossShardResult"),
    "repro.chain.qanaat": ("QanaatNetwork", "Collaboration"),
})

__all__ = [
    "ShardedLedger",
    "CrossShardResult",
    "QanaatNetwork",
    "Collaboration",
]
