"""Privacy mechanisms for the three private-verification challenges.

* :mod:`repro.privacy.dp` — Laplace mechanism, privacy-budget
  accounting, a differentially-private index (RC1's "partial
  disclosure" alternative), and DP-Sync-style update-pattern hiding;
* :mod:`repro.privacy.pir` — two-server XOR PIR and single-server
  Paillier cPIR, extended with private writes (RC3);
* :mod:`repro.privacy.mpc` — semi-honest MPC over additive shares with
  bitwise adders and comparison circuits (RC2, decentralized path);
* :mod:`repro.privacy.tokens` — blind-signed single-use tokens with a
  double-spend registry (RC2, centralized path; Separ's mechanism);
* :mod:`repro.privacy.enclave` — a trusted-hardware simulator (RC1's
  hardware-protected computation alternative);
* :mod:`repro.privacy.leakage` — leakage accounting: what each engine
  admits an adversary observes, asserted by the test suite.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.privacy.dp import (
        LaplaceMechanism,
        PrivacyAccountant,
        DPIndex,
        DPSyncScheduler,
    )
    from repro.privacy.pir import TwoServerXorPIR, PaillierPIR
    from repro.privacy.mpc import MPCContext, SharedValue, SharedBits
    from repro.privacy.tokens import TokenAuthority, TokenWallet, SpendRegistry, Token
    from repro.privacy.threshold_tokens import DistributedTokenAuthority
    from repro.privacy.enclave import TrustedEnclaveSimulator
    from repro.privacy.leakage import LeakageClass, LeakageProfile
    from repro.privacy.continual import BinaryTreeCounter, NaiveContinualCounter
    from repro.privacy.oram import PathORAM, ObliviousKV
    from repro.privacy.psi import PSIParty, PSICoordinator
    from repro.privacy.sse import SSEClient, SSEServer

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.privacy.dp": (
        "LaplaceMechanism", "PrivacyAccountant", "DPIndex", "DPSyncScheduler",
    ),
    "repro.privacy.pir": ("TwoServerXorPIR", "PaillierPIR"),
    "repro.privacy.mpc": ("MPCContext", "SharedValue", "SharedBits"),
    "repro.privacy.tokens": (
        "TokenAuthority", "TokenWallet", "SpendRegistry", "Token",
    ),
    "repro.privacy.threshold_tokens": ("DistributedTokenAuthority",),
    "repro.privacy.enclave": ("TrustedEnclaveSimulator",),
    "repro.privacy.leakage": ("LeakageClass", "LeakageProfile"),
    "repro.privacy.continual": ("BinaryTreeCounter", "NaiveContinualCounter"),
    "repro.privacy.oram": ("PathORAM", "ObliviousKV"),
    "repro.privacy.psi": ("PSIParty", "PSICoordinator"),
    "repro.privacy.sse": ("SSEClient", "SSEServer"),
})

__all__ = [
    "LaplaceMechanism",
    "PrivacyAccountant",
    "DPIndex",
    "DPSyncScheduler",
    "TwoServerXorPIR",
    "PaillierPIR",
    "MPCContext",
    "SharedValue",
    "SharedBits",
    "TokenAuthority",
    "TokenWallet",
    "SpendRegistry",
    "Token",
    "DistributedTokenAuthority",
    "TrustedEnclaveSimulator",
    "LeakageClass",
    "LeakageProfile",
    "BinaryTreeCounter",
    "NaiveContinualCounter",
    "PathORAM",
    "ObliviousKV",
    "PSIParty",
    "PSICoordinator",
    "SSEClient",
    "SSEServer",
]
