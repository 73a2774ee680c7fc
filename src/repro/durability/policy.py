"""The durability policy object and crash-injection support.

A :class:`Durability` instance tells the framework how much crash
safety to buy and at what fsync cost:

* ``off`` (the default) — nothing is persisted; every existing test and
  benchmark runs byte-identically to before this layer existed.
* ``wal`` — every accepted update is logged *before* it is applied, and
  every ledger anchor writes a durable marker; recovery replays the log
  from the start.
* ``wal+snapshot`` — additionally checkpoints the full engine/ledger
  state every ``snapshot_every`` anchored records so recovery replays
  only the WAL tail.

``crash_after`` is a test-only fault-injection hook: name a pipeline
crash point and the framework raises :class:`SimulatedCrash` right
after passing it, leaving on-disk state exactly as a real crash at
that instant would.
"""

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import DurabilityError

#: Valid ``crash_after`` values, in pipeline order.
CRASH_POINTS = (
    "wal_update",     # update logged, not yet applied
    "apply",          # applied to the database, not yet anchored
    "anchor_append",  # ledger extended in memory, marker not yet durable
    "anchor_marker",  # anchor marker durable (a crash here loses nothing)
)

_MODES = ("off", "wal", "wal+snapshot")


class SimulatedCrash(RuntimeError):
    """Raised by the injected crash points.

    Deliberately *not* a :class:`~repro.common.errors.PReVerError`:
    library-level ``except PReVerError`` handlers must not swallow a
    simulated crash, just as they could not swallow ``kill -9``.
    """

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"simulated crash at {point!r}")


@dataclass(frozen=True)
class Durability:
    """Crash-safety policy handed to :class:`~repro.core.framework.PReVer`.

    ``fsync_every`` batches fsyncs of update records: 0 means update
    records are only *flushed* (surviving a process kill but not a
    power cut) and the fsync happens once per batch at the anchor
    marker — the group-commit default; N > 0 additionally fsyncs every
    N update records.  The anchor marker itself is always fsynced: it is
    what makes a batch durable.
    """

    mode: str = "off"
    directory: Optional[str] = None
    fsync_every: int = 0
    snapshot_every: int = 256
    keep_snapshots: int = 2
    segment_max_bytes: int = 4 * 1024 * 1024
    crash_after: Optional[str] = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DurabilityError(
                f"unknown durability mode {self.mode!r}; pick one of {_MODES}"
            )
        if self.mode != "off" and not self.directory:
            raise DurabilityError(
                f"durability mode {self.mode!r} needs a directory"
            )
        if self.crash_after is not None and self.crash_after not in CRASH_POINTS:
            raise DurabilityError(
                f"unknown crash point {self.crash_after!r}; "
                f"pick one of {CRASH_POINTS}"
            )
        if self.fsync_every < 0 or self.snapshot_every < 0:
            raise DurabilityError("fsync_every/snapshot_every must be >= 0")
        if self.keep_snapshots < 1:
            raise DurabilityError("keep_snapshots must be >= 1")
        if self.segment_max_bytes < 64:
            raise DurabilityError("segment_max_bytes unreasonably small")

    # -- constructors ------------------------------------------------------

    @classmethod
    def off(cls) -> "Durability":
        """No persistence — the pre-durability behaviour, byte for byte."""
        return cls(mode="off")

    @classmethod
    def wal(cls, directory: str, **overrides) -> "Durability":
        """Write-ahead logging only (recovery replays the whole log)."""
        return cls(mode="wal", directory=directory, **overrides)

    @classmethod
    def wal_with_snapshots(cls, directory: str,
                           snapshot_every: int = 256,
                           **overrides) -> "Durability":
        """WAL plus periodic checkpoints (recovery replays the tail)."""
        return cls(mode="wal+snapshot", directory=directory,
                   snapshot_every=snapshot_every, **overrides)

    @classmethod
    def serving(cls, directory: str, **overrides) -> "Durability":
        """The serving-tier preset, an alias of :meth:`wal`: the
        defaults already give pure group commit.

        Each batch the serving tier coalesces (see
        :class:`repro.serve.scheduler.BatchingScheduler`) is made
        durable by exactly **one** fsync, at its anchor marker — the
        server's ``batch_window`` *is* the group-commit window.  Update
        records are flushed (surviving a process kill) but not
        individually fsynced; widen the batch window to amortize the
        anchor fsync over more updates.
        """
        return cls.wal(directory, **overrides)

    def with_crash_after(self, point: Optional[str]) -> "Durability":
        """A copy of this policy crashing at ``point`` (None clears)."""
        return dataclasses.replace(self, crash_after=point)

    # -- predicates --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any persistence is on (``wal`` or ``wal+snapshot``)."""
        return self.mode != "off"

    @property
    def snapshots_enabled(self) -> bool:
        """True when periodic checkpoints are on (``wal+snapshot``)."""
        return self.mode == "wal+snapshot"
