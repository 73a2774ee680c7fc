"""The PReVer framework (Section 4 of the paper).

* :mod:`repro.core.outcome` — shared result types for verification;
* :mod:`repro.core.verifiers` — single-database engines (RC1):
  plaintext baseline, Paillier, producer-side ZK proofs, enclave,
  DP-index prescreening;
* :mod:`repro.core.federated` — federated engines (RC2): MPC and
  token-based;
* :mod:`repro.core.pir_engine` — the public-database engine (RC3);
* :mod:`repro.core.framework` — the Figure-2 pipeline: constraints
  registered by authorities, updates verified, applied, and anchored
  on an append-only ledger (RC4);
* :mod:`repro.core.pipeline` — the update path itself as composable
  stages (auth → route → verify → durability → apply → anchor)
  behind one batch driver;
* :mod:`repro.core.sharded` — table-partitioned scale-out:
  :class:`ShardedPReVer` over N independent shards with a combined
  root-of-roots commitment and fail-closed cross-shard escalation;
* :mod:`repro.core.replicated` — consensus-backed shards:
  :class:`ReplicatedShard` replays a replication driver's decided
  batch stream into N replica frameworks with per-batch root-equality
  asserts and crash/catch-up resynchronization;
* :mod:`repro.core.contexts` — factory functions for the canonical
  instantiations (single private / federated private / public);
* :mod:`repro.core.separ` — the Separ instantiation (Section 5): a
  :class:`ShardedPReVer` configuration with one SharPer-ordered shard
  per platform and the FLSA cap as a cross-shard constraint checked
  by a coordinator-side ``TokenVerifier``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.outcome import VerificationOutcome, UpdateResult
    from repro.core.verifiers import (
        PlaintextVerifier,
        PaillierVerifier,
        ZKPVerifier,
        EnclaveVerifier,
        DPIndexVerifier,
    )
    from repro.core.federated import MPCVerifier, TokenVerifier
    from repro.core.pir_engine import PIRVerifier
    from repro.core.framework import PReVer
    from repro.core.pipeline import (
        AnchorStage,
        ApplyStage,
        AuthStage,
        DurabilityStage,
        Pipeline,
        RouteStage,
        UpdateContext,
        VerifyStage,
    )
    from repro.core.replicated import ReplicatedShard
    from repro.core.sharded import (
        ShardedDigest,
        ShardedPReVer,
        ShardPlan,
        ShardSpec,
    )
    from repro.core.contexts import (
        single_private_database,
        federated_private_databases,
        public_database,
    )
    from repro.core.separ import SeparSystem, Platform, Worker

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.outcome": ("VerificationOutcome", "UpdateResult"),
    "repro.core.verifiers": (
        "PlaintextVerifier", "PaillierVerifier", "ZKPVerifier",
        "EnclaveVerifier", "DPIndexVerifier",
    ),
    "repro.core.federated": ("MPCVerifier", "TokenVerifier"),
    "repro.core.pir_engine": ("PIRVerifier",),
    "repro.core.framework": ("PReVer",),
    "repro.core.pipeline": (
        "AnchorStage", "ApplyStage", "AuthStage", "DurabilityStage",
        "Pipeline", "RouteStage", "UpdateContext", "VerifyStage",
    ),
    "repro.core.replicated": ("ReplicatedShard",),
    "repro.core.sharded": (
        "ShardedDigest", "ShardedPReVer", "ShardPlan", "ShardSpec",
    ),
    "repro.core.contexts": (
        "single_private_database", "federated_private_databases",
        "public_database",
    ),
    "repro.core.separ": ("SeparSystem", "Platform", "Worker"),
})

__all__ = [
    "VerificationOutcome",
    "UpdateResult",
    "PlaintextVerifier",
    "PaillierVerifier",
    "ZKPVerifier",
    "EnclaveVerifier",
    "DPIndexVerifier",
    "MPCVerifier",
    "TokenVerifier",
    "PIRVerifier",
    "PReVer",
    "Pipeline",
    "UpdateContext",
    "AuthStage",
    "RouteStage",
    "VerifyStage",
    "DurabilityStage",
    "ApplyStage",
    "AnchorStage",
    "ReplicatedShard",
    "ShardedPReVer",
    "ShardSpec",
    "ShardPlan",
    "ShardedDigest",
    "single_private_database",
    "federated_private_databases",
    "public_database",
    "SeparSystem",
    "Platform",
    "Worker",
]
