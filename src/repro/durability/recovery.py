"""Startup recovery: snapshot + WAL replay + root verification.

Recovery restores the state as of the *last durable anchor marker*:

1. load the newest valid snapshot (if any) into the freshly built
   framework — tables, ledger entries, engine aggregates,
   counters, decision index;
2. replay WAL records after the snapshot LSN.  ``update`` records are
   staged; an ``anchor`` record commits its batch — staged updates the
   anchor marks ``applied`` are re-applied to the database and engine,
   and the anchored payloads are re-appended to the ledger verbatim
   and indexed as the framework's decisions (``results``), after which
   the recomputed Merkle root must equal the root the marker recorded
   (fail-closed per batch, not just at the end);
3. staged updates never covered by an anchor are dropped: the original
   process crashed before their batch's group-commit fsync, so they
   were never durable decisions;
4. finally the recovered ledger root is checked against the last
   anchored root one more time before the framework serves traffic.

Torn-tail truncation happened earlier, when the framework opened the
WAL; mid-log corruption surfaces here as
:class:`~repro.common.errors.WalCorruptionError` and recovery refuses.
"""

from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from repro.common.errors import DurabilityError, IntegrityError, WalCorruptionError
from repro.model.policy import Visibility
from repro.model.update import Update, UpdateOperation


@dataclass
class RecoveryReport:
    """What :meth:`RecoveryManager.recover` did, for logs and tests."""

    snapshot_lsn: Optional[int] = None
    replayed_updates: int = 0
    replayed_anchors: int = 0
    dropped_unanchored: int = 0
    truncated_records: int = 0
    final_size: int = 0
    final_root: str = ""
    verified_against_anchor: bool = False

    def to_dict(self) -> dict:
        """Serializable form, for the event log and examples."""
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "replayed_updates": self.replayed_updates,
            "replayed_anchors": self.replayed_anchors,
            "dropped_unanchored": self.dropped_unanchored,
            "truncated_records": self.truncated_records,
            "final_size": self.final_size,
            "final_root": self.final_root,
            "verified_against_anchor": self.verified_against_anchor,
        }


def update_from_wal(data: dict) -> Update:
    """Reconstruct an :class:`Update` from a WAL ``update`` record."""
    return Update(
        table=data["table"],
        operation=UpdateOperation(data["operation"]),
        payload=dict(data["payload"]),
        key=tuple(data["key"]) if data["key"] is not None else None,
        visibility=Visibility(data["visibility"]),
        producers=list(data["producers"]),
        managers=list(data["managers"]),
        update_id=data["update_id"],
    )


class RecoveryManager:
    """Drives recovery for one framework instance."""

    def __init__(self, framework):
        self.framework = framework

    def recover(self) -> RecoveryReport:
        """Restore, replay, verify; returns the :class:`RecoveryReport`.

        Must run on a freshly constructed framework (same topology and
        key material as the crashed one) before it serves traffic."""
        framework = self.framework
        wal = framework._wal
        if wal is None:
            raise DurabilityError(
                "recover() needs durability enabled (mode 'wal' or "
                "'wal+snapshot')"
            )
        start = perf_counter()
        if framework.tracer.enabled:
            with framework.tracer.span("durability.recover"):
                report = self._recover(framework, wal)
        else:
            report = self._recover(framework, wal)
        framework.metrics.timer("durability.recover").record(
            perf_counter() - start
        )
        return report

    def _recover(self, framework, wal) -> RecoveryReport:
        from repro.durability.snapshot import restore_state

        report = RecoveryReport(truncated_records=wal.truncated_records)
        since_lsn = 0
        last_anchored_root: Optional[str] = None
        last_anchored_size = 0
        if framework._snapshotter is not None:
            loaded = framework._snapshotter.latest()
            if loaded is not None:
                snap_lsn, state = loaded
                restore_state(framework, state)
                report.snapshot_lsn = snap_lsn
                since_lsn = snap_lsn
                last_anchored_root = state["ledger"]["root"]
                last_anchored_size = state["ledger"]["size"]
                # Segments may have been pruned past the snapshot:
                # never reissue an LSN the snapshot already covers.
                wal.ensure_next_lsn(snap_lsn + 1)
        elif len(framework.ledger) or framework._submitted_count:
            raise DurabilityError(
                "refusing to recover into a framework that has already "
                "processed updates — recover into a fresh instance"
            )

        pending = {}  # update_id -> (Update, logged clock reading)
        for lsn, record_type, data in wal.records(since_lsn=since_lsn):
            if record_type == "update":
                update = update_from_wal(data)
                pending[update.update_id] = (update, data["now"])
                continue
            self._replay_anchor(framework, lsn, data, pending, report)
            last_anchored_root = data["root"]
            last_anchored_size = data["size"]

        report.dropped_unanchored = len(pending)
        digest = framework.ledger.digest()
        report.final_size = digest.size
        report.final_root = digest.root.hex()
        if last_anchored_root is not None:
            if (digest.root.hex() != last_anchored_root
                    or digest.size != last_anchored_size):
                raise IntegrityError(
                    "recovered ledger root does not match the last "
                    "anchored root — refusing to serve"
                )
            report.verified_against_anchor = True
            # The recovered root is the last durable anchor: /readyz and
            # verification trails check against it from the first probe.
            framework._last_anchored_digest = digest
        elif len(framework.ledger):
            raise WalCorruptionError(
                "ledger has entries but the WAL holds no anchor marker "
                "for them"
            )
        framework.tracer.event(
            "durability_recovered", **report.to_dict()
        )
        return report

    def _replay_anchor(self, framework, lsn: int, data: dict,
                       pending: dict, report: RecoveryReport) -> None:
        """Commit one anchored batch: re-apply its accepted updates,
        re-anchor and index its payloads, verify the recorded root."""
        payloads: List[dict] = data["payloads"]
        engine = framework.engine
        for payload in payloads:
            staged = pending.pop(payload["update_id"], None)
            applied = payload["status"] == "applied"
            update, now = staged if staged is not None else (None, None)
            if applied:
                if staged is None:
                    raise WalCorruptionError(
                        f"anchor at LSN {lsn} covers applied update "
                        f"{payload['update_id']!r} with no update record"
                    )
                update.mark_verified()
                framework._apply(update)
                update.mark_applied()
                report.replayed_updates += 1
            if engine is not None:
                engine.replay_decided(update, applied, now)
            framework._submitted_count += 1
            if applied:
                framework._applied_count += 1
        entries = framework.ledger.append_batch(payloads)
        framework._decided.extend(entry.sequence for entry in entries)
        digest = framework.ledger.digest()
        if digest.root.hex() != data["root"] or digest.size != data["size"]:
            raise IntegrityError(
                f"replaying anchor at LSN {lsn} produced root "
                f"{digest.root.hex()[:16]}…, but the marker recorded "
                f"{data['root'][:16]}… — WAL and ledger history disagree"
            )
        report.replayed_anchors += 1
