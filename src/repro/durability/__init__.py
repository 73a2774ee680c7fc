"""Crash-safe durability: write-ahead log, snapshots, recovery.

See :mod:`repro.durability.policy` for the :class:`Durability` knob
handed to :class:`~repro.core.framework.PReVer`, and
``docs/OPERATIONS.md`` for the fsync-cost tradeoffs between modes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.common.errors import DurabilityError, WalCorruptionError
    from repro.durability.policy import CRASH_POINTS, Durability, SimulatedCrash
    from repro.durability.recovery import RecoveryManager, RecoveryReport
    from repro.durability.snapshot import Snapshotter
    from repro.durability.wal import WriteAheadLog

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.common.errors": ("DurabilityError", "WalCorruptionError"),
    "repro.durability.policy": (
        "CRASH_POINTS", "Durability", "SimulatedCrash",
    ),
    "repro.durability.recovery": ("RecoveryManager", "RecoveryReport"),
    "repro.durability.snapshot": ("Snapshotter",),
    "repro.durability.wal": ("WriteAheadLog",),
})

__all__ = [
    "CRASH_POINTS",
    "Durability",
    "DurabilityError",
    "RecoveryManager",
    "RecoveryReport",
    "SimulatedCrash",
    "Snapshotter",
    "WalCorruptionError",
    "WriteAheadLog",
]
