"""The PReVer pipeline — Figure 2 of the paper, made executable.

    (0) authorities define constraints and regulations
    (1) a data producer sends a (signed) update
    (2) the update is verified against regulations and constraints
    (3) the verified update is incorporated into the database(s)
    (+) every decision is anchored on an append-only ledger (RC4)

The framework is engine-agnostic: plug any verifier from
``repro.core.verifiers`` / ``federated`` / ``pir_engine``.  It owns the
databases (one for the single setting, several for the federated one),
routes applies to the database named in ``update.managers`` (or the
first database), and appends an attestation record per decision to the
ledger so any participant can audit the full decision history.

The pipeline itself — the stage sequence, its tracing, timing,
durability, and batch amortizations — lives in
:mod:`repro.core.pipeline`; :class:`PReVer` holds the configuration
(databases, engine, ledger, policy, durability) and delegates
submission to the one driver of its
:class:`~repro.core.pipeline.Pipeline`:

* :meth:`PReVer.submit_many` — a batch: constraint checks are routed
  through a table index and incremental aggregate cache, and the whole
  batch is anchored with one Merkle extension
  (:meth:`~repro.ledger.central.CentralLedger.append_batch`), while
  preserving per-entry sequence numbers, digests and inclusion proofs;
* :meth:`PReVer.submit` — a batch of one.

To scale past one instance, see
:class:`repro.core.sharded.ShardedPReVer`, which partitions tables
across several ``PReVer`` shards behind the same submit API.
"""

import os
from array import array
from typing import Dict, List, Optional, Sequence

from repro.common.clock import SimClock, WallClock
from repro.common.errors import DurabilityError, IntegrityError, PReVerError
from repro.common.metrics import MetricsRegistry
from repro.common.serialization import canonical_bytes
from repro.durability.policy import Durability, SimulatedCrash
from repro.durability.recovery import RecoveryManager
from repro.durability.snapshot import Snapshotter
from repro.durability.wal import WriteAheadLog
from repro.core.outcome import (
    TIMED_STAGES,
    DecisionJournal,
    UpdateResult,
    VerificationOutcome,
)
from repro.core.pipeline import Pipeline
from repro.core.routing import ConstraintRouter
from repro.database.engine import Database
from repro.ledger.central import CentralLedger
from repro.parallel.executors import resolve_executor
from repro.model.constraints import Constraint, ConstraintKind
from repro.obs.tracing import NOOP_TRACER, Span, Tracer
from repro.model.participants import Authority
from repro.model.policy import PrivacyPolicy, Visibility
from repro.model.threat import ThreatModel
from repro.model.update import Update, UpdateOperation


class PReVer:
    """One instantiation of the framework."""

    def __init__(
        self,
        databases: Sequence[Database],
        engine=None,
        ledger: Optional[CentralLedger] = None,
        policy: Optional[PrivacyPolicy] = None,
        threat_model: Optional[ThreatModel] = None,
        clock: Optional[SimClock] = None,
        require_signed_updates: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        executor=None,
        durability: Optional[Durability] = None,
    ):
        if not databases:
            raise PReVerError("PReVer needs at least one database")
        self.databases = list(databases)
        self.engine = engine
        self.ledger = ledger or CentralLedger(name="prever-ledger")
        self.policy = policy or PrivacyPolicy(
            data=Visibility.PRIVATE,
            updates=Visibility.PRIVATE,
            constraints=Visibility.PUBLIC,
        )
        self.threat_model = threat_model or ThreatModel.honest_but_curious_manager()
        self.clock = clock or SimClock()
        self.require_signed_updates = require_signed_updates
        self.metrics = metrics or MetricsRegistry()
        self.constraints: List[Constraint] = []
        self._authorities: Dict[str, Authority] = {}
        # The ledger is the decision journal: the framework keeps only
        # the sequence numbers of its own decisions there (8 bytes each)
        # and ``results`` reads them back as records over the leaves.
        self._decided = array("q")
        self.results = DecisionJournal(self.ledger, self._decided)
        self._submitted_count = 0
        self._applied_count = 0
        self._wall = WallClock()
        # Hot-path metrics objects, resolved once instead of per update.
        self._ctr_updates = self.metrics.counter("pipeline.updates")
        self._ctr_accepted = self.metrics.counter("pipeline.accepted")
        self._ctr_rejected = self.metrics.counter("pipeline.rejected")
        self._stage_timers: Dict[str, object] = {}
        self._auth_views: Dict[str, object] = {}
        self._router = ConstraintRouter()
        # Tracing: the no-op tracer keeps the hot path branch-cheap;
        # when a recording tracer is attached, bind it into the layers
        # below so engine crypto and Merkle extension spans nest under
        # the per-update trace.
        self.tracer = tracer or NOOP_TRACER
        if self.tracer.enabled:
            if hasattr(self.ledger, "bind_tracer"):
                self.ledger.bind_tracer(self.tracer)
            if engine is not None:
                engine.bind_tracer(self.tracer)
        # Execution layer for the crypto-heavy stages: serial by
        # default, a process pool when requested explicitly or via
        # REPRO_EXECUTOR / REPRO_WORKERS.  Bound into the engine (e.g.
        # parallel Paillier contribution encryption); decisions and
        # digests are executor-independent by construction.
        self.executor = resolve_executor(executor)
        if self.tracer.enabled:
            self.executor.bind_tracer(self.tracer)
        # Worker telemetry: pooled executors ship each worker's metric
        # delta back with its chunk results and merge it here under
        # per-worker labels.  A no-op for in-process executors, and
        # result-invariant for pooled ones, so binding unconditionally
        # is safe.
        self.executor.bind_metrics(self.metrics)
        if engine is not None:
            engine.bind_executor(self.executor)
        # Durability: off by default, which keeps every code path (and
        # so every decision, digest, and benchmark number) identical to
        # the pre-durability framework.  When on, the WAL opens now —
        # repairing any torn tail from a previous crash — so
        # :meth:`recover` can run before the first submit.
        self.durability = durability or Durability.off()
        self._crash_after = self.durability.crash_after
        self._wal = None
        self._snapshotter = None
        if self.durability.enabled:
            self._wal = WriteAheadLog(
                os.path.join(self.durability.directory, "wal"),
                fsync_every=self.durability.fsync_every,
                segment_max_bytes=self.durability.segment_max_bytes,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            if self.durability.snapshots_enabled:
                self._snapshotter = Snapshotter(
                    os.path.join(self.durability.directory, "snapshots"),
                    snapshot_every=self.durability.snapshot_every,
                    keep=self.durability.keep_snapshots,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
        # The digest captured by the most recent durable anchor commit;
        # /readyz checks the live ledger still extends it.
        self._last_anchored_digest = None
        # The staged update path (repro.core.pipeline): both submit
        # APIs below feed its one batch driver.
        self.pipeline = Pipeline(self)

    # -- step (0): constraint registration -------------------------------

    def register_authority(self, authority: Authority) -> None:
        """Register an external authority that can issue regulations."""
        self._authorities[authority.name] = authority

    def register_constraint(self, constraint: Constraint,
                            authority: Optional[Authority] = None) -> None:
        """Regulations must be signed by a registered external authority."""
        if constraint.kind is ConstraintKind.REGULATION:
            if authority is None and constraint.authority:
                authority = self._authorities.get(constraint.authority)
            if authority is None:
                raise IntegrityError(
                    f"regulation {constraint.name!r} needs an issuing authority"
                )
            if not authority.external:
                raise IntegrityError(
                    "regulations must come from an external authority"
                )
            constraint.signature = authority.sign(constraint.body_bytes())
            constraint.authority = authority.name
            if authority.name not in self._authorities:
                self._authorities[authority.name] = authority
        self.constraints.append(constraint)
        self.invalidate_routing()

    def invalidate_routing(self) -> None:
        """Force a routing-index rebuild on the next routed check.

        Usually unnecessary: the router re-syncs itself whenever the
        ``constraints`` list's content fingerprint moves — appends,
        removals, reorders, in-place replacement of an entry, or an
        entry's ``tables`` scope changing are all detected
        automatically.  Call this only after a mutation the
        fingerprint deliberately ignores needs to drop memoized
        per-table sublists anyway (it never does today: bounds,
        predicates, and windows are re-read on every check).
        """
        self._router.rebuild(())

    def _routed_constraints(self, table: str) -> List[Constraint]:
        # ``constraints`` is a public list some callers mutate
        # directly, so re-sync the index whenever its content
        # fingerprint moved — not just its length, which misses
        # in-place replacement and ``tables``-scope changes.
        if not self._router.in_sync_with(self.constraints):
            self._router.rebuild(self.constraints)
        return self._router.route(table)

    def verify_constraint_provenance(self, constraint: Constraint) -> bool:
        """Anyone can check a regulation's authority signature."""
        if constraint.kind is not ConstraintKind.REGULATION:
            return True
        authority = self._authorities.get(constraint.authority)
        if authority is None or constraint.signature is None:
            return False
        return authority.verifier().verify(
            constraint.body_bytes(), constraint.signature
        )

    # -- steps (1)-(3): the update pipeline ------------------------------------

    def submit(self, update: Update) -> UpdateResult:
        """Run one update through the full Figure-2 pipeline: a batch
        of one."""
        return self.submit_many([update])[0]

    def submit_many(self, updates: Sequence[Update]) -> List[UpdateResult]:
        """Run a batch of updates through the pipeline, anchoring once.

        Decision-equivalent to calling :meth:`submit` per update in
        order — same accept/reject outcomes, same applied rows, same
        ledger sequence numbers, digests and inclusion proofs — but
        with three amortizations: the constraint routing index replaces
        per-update linear scans, an incremental aggregate cache
        replaces per-update table re-scans, and the ledger's Merkle
        tree is extended once per batch instead of once per decision.
        """
        updates = list(updates)
        if not updates:
            return []
        return self.pipeline.run_batch(updates, self.executor)

    def _apply(self, update: Update) -> None:
        database = self._target_database(update)
        if update.operation is UpdateOperation.INSERT:
            database.insert(update.table, update.payload)
        elif update.operation is UpdateOperation.MODIFY:
            database.update(update.table, update.key, update.payload)
        else:
            database.delete(update.table, update.key)

    def _target_database(self, update: Update) -> Database:
        if update.managers:
            for database in self.databases:
                if database.name == update.managers[0]:
                    return database
        return self.databases[0]

    def _anchor_payload(self, update: Update, outcome: VerificationOutcome,
                        trace: Optional[Span] = None) -> dict:
        payload = {
            "update_id": update.update_id,
            "table": update.table,
            "status": update.status.value,
            "decision": outcome.to_dict(),
            "timestamp": self.clock.now(),
        }
        # Only traced runs stamp the trace ID into the anchored record
        # (it correlates ledger/audit entries with the event log); the
        # untraced payload stays byte-identical to untraced runs, so
        # digest-equivalence checks across configurations still hold.
        if trace is not None:
            payload["trace_id"] = trace.trace_id
        return payload

    # -- durability (see repro.durability) --------------------------------

    def _wal_update_record(self, update: Update, now: float) -> dict:
        """Everything recovery needs to reconstruct and re-apply the
        update, mirroring :meth:`Update.body_bytes` plus the engine
        clock reading the decision was made under."""
        return {
            "table": update.table,
            "operation": update.operation.value,
            "payload": update.payload,
            "key": list(update.key) if update.key is not None else None,
            "visibility": update.visibility.value,
            "producers": update.producers,
            "managers": update.managers,
            "update_id": update.update_id,
            "now": now,
        }

    def _crash_point(self, name: str) -> None:
        """Fault injection: die here if the policy says so."""
        if self._crash_after == name:
            raise SimulatedCrash(name)

    def recover(self):
        """Run crash recovery (snapshot + WAL replay + root check) on
        this freshly built framework; see
        :class:`repro.durability.recovery.RecoveryManager`.  Returns
        the :class:`~repro.durability.recovery.RecoveryReport`."""
        return RecoveryManager(self).recover()

    def snapshot_now(self) -> str:
        """Checkpoint on demand (and prune WAL segments the snapshot
        covers); returns the snapshot file path."""
        if self._snapshotter is None or self._wal is None:
            raise DurabilityError(
                "snapshot_now() needs durability mode 'wal+snapshot'"
            )
        path = self._snapshotter.take(self, self._wal.last_lsn)
        self._wal.prune(self._wal.last_lsn)
        return path

    def serve(self, **config):
        """Expose this framework over the wire protocol; returns the
        started :class:`~repro.serve.server.ServerThread`.

        Keyword arguments are :class:`~repro.serve.server.ServeConfig`
        fields (``host``, ``port``, ``batch_window``, ``queue_limit``,
        ...).  The thread owns its own event loop; close it (or use it
        as a context manager) before closing the framework.  Served
        decisions and anchored roots are identical to calling
        :meth:`submit_many` in-process on the same total update order.
        """
        from repro.serve.server import ServerThread

        thread = ServerThread(self, **config)
        thread.start()
        return thread

    def close(self) -> None:
        """Flush and fsync the WAL; call before discarding the instance
        (a no-op with durability off)."""
        if self._wal is not None:
            self._wal.close()

    def _record_result(self, update: Update, outcome: VerificationOutcome,
                       applied: bool, timings: Dict[str, float],
                       sequence: int,
                       trace_id: Optional[str] = None) -> UpdateResult:
        self._ctr_updates.add()
        (self._ctr_accepted if applied else self._ctr_rejected).add()
        timers = self._stage_timers
        for stage, elapsed in timings.items():
            timer = timers.get(stage)
            if timer is None:
                timer = timers[stage] = self.metrics.timer(
                    f"pipeline.stage.{stage}"
                )
            timer.record(elapsed)
        self._submitted_count += 1
        if applied:
            self._applied_count += 1
        if trace_id is not None and not applied:
            self.tracer.event(
                "rejection",
                trace_id=trace_id,
                update_id=update.update_id,
                reason=update.rejection_reason,
                failed_constraint=outcome.failed_constraint,
            )
        self._decided.append(sequence)
        return UpdateResult(
            update=update,
            outcome=outcome,
            applied=applied,
            ledger_sequence=sequence,
            timings=tuple(map(timings.get, TIMED_STAGES)),
            trace_id=trace_id,
        )

    # -- authenticated reads (RC4's query side) -----------------------------------

    def publish_state(self, table_name: str):
        """Publish an authenticated snapshot of one table, anchored on
        this framework's ledger.  Returns the
        :class:`~repro.ledger.authenticated.StateCommitment`; clients
        verify query answers against it with
        :func:`~repro.ledger.authenticated.verify_row` /
        :func:`verify_absence`."""
        from repro.ledger.authenticated import AuthenticatedTableView

        view = self._auth_views.get(table_name)
        if view is None:
            # Route the view's anchor entries onto the main ledger.
            database = self.databases[0]
            for candidate in self.databases:
                if table_name in candidate.table_names():
                    database = candidate
                    break
            view = AuthenticatedTableView(
                database.table(table_name), ledger=self.ledger
            )
            self._auth_views[table_name] = view
        return view.snapshot()

    def prove_query(self, table_name: str, key):
        """A manager answers a keyed query with proof: returns either
        ("row", RowProof) or ("absent", AbsenceProof) against the last
        published commitment."""
        if table_name not in self._auth_views:
            raise IntegrityError(
                f"publish_state({table_name!r}) before proving queries"
            )
        view = self._auth_views[table_name]
        try:
            return "row", view.prove_row(key)
        except IntegrityError:
            return "absent", view.prove_absent(key)

    # -- ops probes & audit trails (served by repro.obs.server) -----------

    def health_report(self) -> dict:
        """Liveness checks behind the ops server's ``/healthz``.

        Three checks, each ``{"ok": bool, ...detail}``:

        * ``ledger`` — the Merkle ledger is reachable and can produce a
          digest;
        * ``wal`` — with durability on, the write-ahead log still holds
          an open handle on a writable directory (closed or torn-down
          WALs flip this, and with it the whole probe, to unhealthy);
        * ``executor`` — the execution layer can still accept work (a
          broken process pool flips this).

        The report's top-level ``ok`` is the conjunction; the ops
        server maps it to HTTP 200/503.
        """
        checks: Dict[str, dict] = {}
        try:
            digest = self.ledger.digest()
            checks["ledger"] = {
                "ok": True, "size": digest.size, "root": digest.root.hex(),
            }
        except Exception as exc:
            checks["ledger"] = {"ok": False, "error": repr(exc)}
        if self._wal is not None:
            checks["wal"] = {
                "ok": self._wal.writable(), "last_lsn": self._wal.last_lsn,
            }
        else:
            checks["wal"] = {"ok": True, "enabled": False}
        checks["executor"] = {
            "ok": self.executor.healthy(), **self.executor.describe(),
        }
        return {
            "ok": all(c["ok"] for c in checks.values()),
            "checks": checks,
        }

    def readiness_report(self) -> dict:
        """Readiness checks behind ``/readyz``: everything
        :meth:`health_report` checks, plus anchored-root consistency —
        the live ledger's prefix root at the last durably anchored size
        must still equal the root the anchor recorded.  A mismatch
        means the in-memory ledger diverged from what was committed,
        and the instance must not serve until :meth:`recover` runs.
        """
        report = self.health_report()
        anchored = self._last_anchored_digest
        if anchored is None:
            check = {"ok": True, "anchored": False}
        else:
            try:
                live_root = self.ledger.digest(anchored.size).root
                check = {
                    "ok": live_root == anchored.root,
                    "anchored": True,
                    "size": anchored.size,
                    "root": anchored.root.hex(),
                }
            except Exception as exc:
                check = {"ok": False, "error": repr(exc)}
        report["checks"]["anchored_root"] = check
        report["ok"] = report["ok"] and check["ok"]
        return report

    def verification_trail(self, trace_id: str) -> Optional[dict]:
        """One traced update's full verification trail, re-verifiable
        offline.

        Scans the ledger for the anchored decision stamped with
        ``trace_id`` (only traced runs stamp it — see
        :meth:`_anchor_payload`) and returns the anchored payload, the
        ledger inclusion proof against the last *anchored* digest
        (falling back to the live digest when the entry postdates it),
        a server-side ``verified`` verdict, and every correlated
        event-log record.  ``None`` when no anchored entry carries the
        trace ID.  Served as ``/trace/<trace_id>``; see
        ``examples/telemetry_demo.py`` for the client-side
        re-verification.
        """
        # Search the packed leaf bytes, and build and decode only an
        # entry whose leaf carries the stamp at all.
        needle = b'"trace_id":' + canonical_bytes(trace_id)
        sequence = self.ledger.find(needle)
        while sequence is not None:
            entry = self.ledger.entry(sequence)
            payload = entry.payload
            if isinstance(payload, dict) and payload.get("trace_id") == trace_id:
                break
            sequence = self.ledger.find(needle, since=sequence + 1)
        else:
            return None
        digest = self._last_anchored_digest
        if digest is None or digest.size <= entry.sequence:
            digest = self.ledger.digest()
        proof = self.ledger.prove_inclusion(entry.sequence, size=digest.size)
        verified = CentralLedger.verify_entry(digest, entry, proof)
        events = []
        for sink in getattr(self.tracer, "sinks", []):
            if hasattr(sink, "for_trace"):
                events.extend(sink.for_trace(trace_id))
        return {
            "trace_id": trace_id,
            "sequence": entry.sequence,
            "payload": payload,
            "digest": {"size": digest.size, "root": digest.root.hex()},
            "proof": {
                "leaf_index": proof.leaf_index,
                "tree_size": proof.tree_size,
                "path": [node.hex() for node in proof.path],
            },
            "verified": verified,
            "events": events,
        }

    # -- reporting ---------------------------------------------------------------

    def acceptance_rate(self) -> float:
        """Applied / submitted over the whole run, recovered history
        included — from two running counters, not by decoding
        :attr:`results`."""
        if not self._submitted_count:
            return 0.0
        return self._applied_count / self._submitted_count

    def throughput_report(self) -> dict:
        """Per-stage timing summary and end-to-end updates/sec."""
        return self.metrics.throughput_report(
            updates_counter="pipeline.updates", stage_prefix="pipeline.stage."
        )

    def decision_history(self) -> List[dict]:
        """Every ledger entry's payload, in ledger order — decoded from
        the stored leaf bytes on each call (one decode per entry), so
        callers own what they get back.  That includes entries other
        writers put on the same ledger (``publish_state`` commitments);
        :attr:`results` indexes this framework's decisions alone."""
        return [entry.payload for entry in self.ledger.entries()]
