"""Checkpointing: atomic snapshots of the full framework state.

A snapshot captures, at a WAL position ``lsn``: every database table's
rows, the ledger's entries + root, the engine's durable aggregate state
(ciphertext values for Paillier — never decrypted plaintext; totals and
their commitments for ZKP), and the pipeline counters with the index of
which ledger entries are decisions.  Recovery loads the newest valid
snapshot and replays only WAL records after its LSN.

Files are written atomically — serialize to ``<name>.tmp``, fsync,
``os.replace`` into place, fsync the directory — so a crash mid-
snapshot leaves the previous snapshot untouched.  Each file embeds a
sha256 over its canonical body; :meth:`Snapshotter.latest` skips files
that fail the self-check (falling back to an older snapshot plus a
longer WAL replay) rather than serving corrupt state.
"""

import os
from time import perf_counter
from typing import List, Optional, Tuple

from repro.common.errors import DurabilityError
from repro.common.metrics import MetricsRegistry
from repro.common.serialization import (
    SerializationError,
    canonical_json,
    from_canonical_json,
)
from repro.crypto.hashing import digest_canonical
from repro.obs.tracing import NOOP_TRACER

# Version 1 also stored the ledger's leaf hashes; restore ignores them
# and rehashes the entries, so a version-1 file still loads.
SNAPSHOT_VERSION = 2


def _snapshot_name(lsn: int) -> str:
    return f"snap-{lsn:012d}.json"


def _runs(sequences) -> List[List[int]]:
    """``[start, stop)`` runs of consecutive ledger sequence numbers —
    a framework's decisions are one run unless other writers
    interleaved entries on its ledger."""
    runs: List[List[int]] = []
    for sequence in sequences:
        if runs and runs[-1][1] == sequence:
            runs[-1][1] = sequence + 1
        else:
            runs.append([sequence, sequence + 1])
    return runs


def capture_state(framework, wal_lsn: int) -> dict:
    """Serialize a framework's durable state as of WAL position
    ``wal_lsn`` (everything recovery needs; nothing secret — key
    material is the operator's to re-supply)."""
    engine = framework.engine
    return {
        "version": SNAPSHOT_VERSION,
        "wal_lsn": wal_lsn,
        "clock_now": framework.clock.now(),
        "counters": {
            "submitted": framework._submitted_count,
            "applied": framework._applied_count,
            "decided": _runs(framework._decided),
        },
        "databases": {
            database.name: {
                table_name: database.table(table_name).rows()
                for table_name in database.table_names()
            }
            for database in framework.databases
        },
        "ledger": framework.ledger.snapshot_state(),
        "engine": engine.durable_state() if engine is not None else None,
    }


class Snapshotter:
    """Writes, lists, and prunes checkpoint files in one directory."""

    def __init__(
        self,
        directory: str,
        snapshot_every: int = 256,
        keep: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.keep = keep
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NOOP_TRACER
        self._records_since = 0
        os.makedirs(directory, exist_ok=True)

    # -- writing -----------------------------------------------------------

    def take(self, framework, wal_lsn: int) -> str:
        """Checkpoint ``framework`` at ``wal_lsn``; returns the file path.

        Atomic: a crash at any point leaves either the previous
        snapshot set or the complete new file, never a half-written
        one."""
        start = perf_counter()
        body = capture_state(framework, wal_lsn)
        document = {
            "snapshot": body,
            "sha256": digest_canonical(body),
        }
        path = os.path.join(self.directory, _snapshot_name(wal_lsn))
        tmp_path = path + ".tmp"
        if self.tracer.enabled:
            with self.tracer.span("durability.snapshot", wal_lsn=wal_lsn):
                self._write_atomic(tmp_path, path, document)
        else:
            self._write_atomic(tmp_path, path, document)
        self._records_since = 0
        self.metrics.counter("durability.snapshots").add()
        self.metrics.timer("durability.snapshot").record(
            perf_counter() - start
        )
        self.prune_files()
        return path

    def _write_atomic(self, tmp_path: str, path: str, document: dict) -> None:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(document))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def maybe_take(self, framework, wal_lsn: int, new_records: int) -> Optional[str]:
        """Count ``new_records`` toward the cadence; snapshot when the
        running total reaches ``snapshot_every`` (0 disables)."""
        self._records_since += new_records
        if not self.snapshot_every or self._records_since < self.snapshot_every:
            return None
        return self.take(framework, wal_lsn)

    # -- reading -----------------------------------------------------------

    def snapshot_paths(self):
        """All snapshot files, oldest first."""
        names = sorted(
            n for n in os.listdir(self.directory)
            if n.startswith("snap-") and n.endswith(".json")
        )
        return [os.path.join(self.directory, n) for n in names]

    def latest(self) -> Optional[Tuple[int, dict]]:
        """The newest snapshot passing its sha256 self-check, as
        ``(wal_lsn, state)`` — or None when no usable snapshot exists.
        Invalid files are skipped (an older snapshot plus more WAL
        replay always reaches the same state)."""
        for path in reversed(self.snapshot_paths()):
            state = self._load(path)
            if state is not None:
                return state["wal_lsn"], state
        return None

    def _load(self, path: str) -> Optional[dict]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = from_canonical_json(handle.read())
        except (OSError, SerializationError):
            return None
        if not isinstance(document, dict):
            return None
        body = document.get("snapshot")
        digest = document.get("sha256")
        if not isinstance(body, dict) or not isinstance(digest, str):
            return None
        if digest_canonical(body) != digest:
            return None
        if body.get("version") not in (1, SNAPSHOT_VERSION):
            return None
        return body

    # -- maintenance -------------------------------------------------------

    def prune_files(self) -> int:
        """Drop all but the newest ``keep`` snapshots; returns the
        number removed."""
        paths = self.snapshot_paths()
        removed = 0
        for path in paths[:-self.keep] if self.keep else paths:
            os.remove(path)
            removed += 1
        return removed


def restore_state(framework, state: dict) -> None:
    """Load a captured state into a freshly constructed framework.

    The caller must have built the same topology (databases, tables,
    constraints, engine with the same key material) the snapshot was
    taken from; this function refuses to overwrite anything already
    populated."""
    if len(framework.ledger) or framework._submitted_count:
        raise DurabilityError(
            "refusing to restore a snapshot into a framework that has "
            "already processed updates — recover into a fresh instance"
        )
    for name, tables in state["databases"].items():
        database = None
        for candidate in framework.databases:
            if candidate.name == name:
                database = candidate
                break
        if database is None:
            raise DurabilityError(
                f"snapshot names database {name!r}, which this framework "
                f"does not have — topology mismatch"
            )
        for table_name, rows in tables.items():
            table = database.table(table_name)
            if len(table):
                raise DurabilityError(
                    f"refusing to restore into non-empty table "
                    f"{table_name!r} of {name!r}"
                )
            for row in rows:
                table.upsert(row)
    framework.ledger.restore_state(state["ledger"])
    engine = framework.engine
    if engine is not None:
        engine.restore_durable_state(state["engine"])
    elif state["engine"] is not None:
        raise DurabilityError(
            "snapshot carries engine state but the framework has no engine"
        )
    counters = state["counters"]
    framework._submitted_count = counters["submitted"]
    framework._applied_count = counters["applied"]
    for start, stop in counters["decided"]:
        framework._decided.extend(range(start, stop))
    clock_now = state["clock_now"]
    if hasattr(framework.clock, "advance_to") and clock_now > framework.clock.now():
        framework.clock.advance_to(clock_now)
