"""Deterministic discrete-event network simulation.

Consensus protocols and MPC rounds run over :class:`SimNetwork`, which
delivers messages with configurable latency, loss, and partitions, in a
deterministic order under a fixed seed.  Simulated time makes protocol
throughput/latency comparisons (Paxos vs PBFT vs sharded, Section 6)
reproducible and independent of host load.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.simnet import (
        NETWORK_PROFILES,
        LatencyModel,
        Message,
        NetworkProfile,
        Node,
        SimNetwork,
        network_profile,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.net.simnet": (
        "NETWORK_PROFILES", "LatencyModel", "Message", "NetworkProfile",
        "Node", "SimNetwork", "network_profile",
    ),
})

__all__ = [
    "SimNetwork",
    "Message",
    "Node",
    "LatencyModel",
    "NetworkProfile",
    "NETWORK_PROFILES",
    "network_profile",
]
