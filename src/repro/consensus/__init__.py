"""Consensus protocols over the simulated network.

The paper's evaluation methodology (Section 6) asks distributed PReVer
instantiations to be compared in throughput and latency against Paxos
(crash fault tolerance) and PBFT (Byzantine fault tolerance).  Both are
implemented from scratch over :class:`repro.net.SimNetwork`:

* :mod:`repro.consensus.paxos` — multi-decree Paxos with a stable
  leader (one Phase-1 per ballot, Phase-2 per decree);
* :mod:`repro.consensus.pbft` — three-phase PBFT (pre-prepare /
  prepare / commit) with view changes and byzantine-replica hooks.

Both clusters expose the same interface (``submit``, ``committed``),
so the benchmark harness measures them identically.

:mod:`repro.consensus.driver` lifts them into the update path: a
:class:`~repro.consensus.driver.ReplicationDriver` orders canonical
batch payloads into one decided stream that the staged pipeline's
durability/apply/anchor stages consume (``LocalDriver`` is the
byte-identical default; ``PaxosDriver`` / ``PbftDriver`` /
``SharperDriver`` replicate a shard's ledger over SimNetwork).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.consensus.base import ConsensusResult, ClusterStats
    from repro.consensus.driver import (
        DecidedBatch,
        LocalDriver,
        PaxosDriver,
        PbftDriver,
        ReplicationDriver,
        ReplicationPlan,
        SharperDriver,
        make_driver,
        resolve_plan,
    )
    from repro.consensus.paxos import PaxosCluster
    from repro.consensus.pbft import PBFTCluster

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.consensus.base": ("ConsensusResult", "ClusterStats"),
    "repro.consensus.driver": (
        "DecidedBatch", "LocalDriver", "PaxosDriver", "PbftDriver",
        "ReplicationDriver", "ReplicationPlan", "SharperDriver", "make_driver",
        "resolve_plan",
    ),
    "repro.consensus.paxos": ("PaxosCluster",),
    "repro.consensus.pbft": ("PBFTCluster",),
})

__all__ = [
    "ConsensusResult",
    "ClusterStats",
    "PaxosCluster",
    "PBFTCluster",
    "ReplicationDriver",
    "ReplicationPlan",
    "DecidedBatch",
    "LocalDriver",
    "PaxosDriver",
    "PbftDriver",
    "SharperDriver",
    "make_driver",
    "resolve_plan",
]
