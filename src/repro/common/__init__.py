"""Shared infrastructure used by every PReVer subsystem.

This package deliberately contains only dependency-free building blocks:
error types, identifier generation, canonical serialization (needed so
that hashes and signatures are stable), a simulated clock for
discrete-event components, a metrics registry used by the benchmark
harness, and seeded randomness helpers so every experiment is
reproducible.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.common.errors import (
        PReVerError,
        ConstraintViolation,
        IntegrityError,
        PrivacyError,
        ProtocolError,
        BudgetExhausted,
        SerializationError,
    )
    from repro.common.ids import make_id, short_hash
    from repro.common.encoding import RawJson, encode_canonical, encode_canonical_bytes
    from repro.common.serialization import canonical_bytes, canonical_json
    from repro.common.clock import SimClock, WallClock
    from repro.common.metrics import MetricsRegistry, Counter, Timer
    from repro.common.randomness import deterministic_rng, SystemRandomSource

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.common.errors": (
        "PReVerError", "ConstraintViolation", "IntegrityError", "PrivacyError",
        "ProtocolError", "BudgetExhausted", "SerializationError",
    ),
    "repro.common.ids": ("make_id", "short_hash"),
    "repro.common.encoding": (
        "RawJson", "encode_canonical", "encode_canonical_bytes",
    ),
    "repro.common.serialization": ("canonical_bytes", "canonical_json"),
    "repro.common.clock": ("SimClock", "WallClock"),
    "repro.common.metrics": ("MetricsRegistry", "Counter", "Timer"),
    "repro.common.randomness": ("deterministic_rng", "SystemRandomSource"),
})

__all__ = [
    "PReVerError",
    "ConstraintViolation",
    "IntegrityError",
    "PrivacyError",
    "ProtocolError",
    "BudgetExhausted",
    "SerializationError",
    "make_id",
    "short_hash",
    "canonical_bytes",
    "canonical_json",
    "RawJson",
    "encode_canonical",
    "encode_canonical_bytes",
    "SimClock",
    "WallClock",
    "MetricsRegistry",
    "Counter",
    "Timer",
    "deterministic_rng",
    "SystemRandomSource",
]
