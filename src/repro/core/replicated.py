"""The shard handle, and the consensus-backed shard built on it.

A :class:`ShardHandle` is what
:class:`~repro.core.sharded.ShardedPReVer` drives per shard: one
in-process framework behind the shard surface (submit, submit_many,
digest, recover, reports, telemetry, probes, counters, close), written
once against ``self.framework``.  It lives here, not in
``core.sharded``, so this module never imports
``core.sharded → federated → privacy``.

A :class:`ReplicatedShard` is that handle plus ordering — the
state-machine-replication view of one PReVer shard.  A
:class:`~repro.consensus.driver.ReplicationDriver` orders proposed
update batches; every *live* replica — a full
:class:`~repro.core.framework.PReVer` with its own ledger, durability
policy, and WAL directory — deterministically replays each decided
batch, and the shard asserts per-batch root equality across replicas
(fail-closed: divergence is an :class:`IntegrityError`, not a warning).
The replay path is the ordinary staged pipeline
(:meth:`Pipeline.run_batch` via ``submit_many``), so a
replica's decision/digest/WAL stream is byte-identical to a standalone
framework fed the same decided order — which is exactly what the
driver-equivalence tests pin.

Crash/recovery: :meth:`crash_replica` drops one replica;
:meth:`restart_replica` rebuilds it from its builder, replays its own
WAL (when durable), derives how many decided batches that recovered
prefix covers, then resynchronizes the rest via ``driver.catch_up``
against the committed prefix and re-asserts root convergence.  A
non-durable replica recovers from the committed prefix alone — the
decided stream *is* the authoritative history.

``ReplicatedShard.framework`` is the primary replica, so the handle
surface reads from there and the shard overrides only what ordering
changes; :class:`~repro.core.sharded.ShardedPReVer` drops one in per
shard via its ``consensus=`` plan knobs.
"""

import inspect
from typing import Callable, List, Optional, Sequence

from repro.common.errors import IntegrityError, PReVerError, ProtocolError
from repro.common.metrics import MetricsRegistry
from repro.consensus.driver import LocalDriver, ReplicationDriver
from repro.core.framework import PReVer
from repro.core.outcome import UpdateResult
from repro.model.update import Update
from repro.obs.tracing import NOOP_TRACER


class ShardHandle:
    """One shard of the sharded front-end: an in-process framework
    behind the shard surface.  Everything reads through
    ``self.framework``, so a subclass that changes which framework
    that is (see :class:`ReplicatedShard`) inherits the surface."""

    # Class-level defaults: ReplicatedShard's ``framework`` is a
    # property, so it never runs this ``__init__``.
    _tracker = None
    _closed = False

    def __init__(self, framework: PReVer):
        self.framework = framework

    def submit(self, update: Update) -> UpdateResult:
        """Route one update through the shard's pipeline."""
        return self.framework.submit(update)

    def submit_many(self, updates: Sequence[Update]) -> List[UpdateResult]:
        """Run one batch through the shard's pipeline."""
        return self.framework.submit_many(updates)

    def digest(self):
        """The shard ledger's digest."""
        return self.framework.ledger.digest()

    def recover(self):
        """Run crash recovery on the framework (a replicated shard's
        primary replica) and return its report.  Recovery needs a
        durable, freshly built framework: a non-durable one raises
        :class:`~repro.common.errors.DurabilityError`."""
        return self.framework.recover()

    def throughput_report(self) -> dict:
        """The shard's per-stage throughput report."""
        return self.framework.throughput_report()

    def metrics_snapshot(self) -> dict:
        """The shard's metrics snapshot."""
        return self.framework.metrics.snapshot()

    def telemetry_delta(self):
        """Incremental telemetry delta, for cross-shard aggregation.

        The first capture ships the framework's full history.  When
        the framework read from changes (a replicated shard's primary
        crashed), the next tracker baselines at the new framework's
        current values: its replicas counted the same decided stream,
        so only increments ship and nothing is merged twice.
        """
        framework = self.framework
        tracker = self._tracker
        if tracker is None or tracker.registry is not framework.metrics:
            from repro.obs.aggregate import DeltaTracker

            tracker = self._tracker = DeltaTracker(
                framework.metrics, tracer=framework.tracer,
                origin=tracker is None,
            )
        return tracker.capture()

    def alive(self) -> bool:
        """Liveness: not closed, and the framework's own checks pass."""
        return not self._closed and self.framework.health_report()["ok"]

    def readiness_report(self) -> dict:
        """The shard framework's readiness report."""
        return self.framework.readiness_report()

    def verification_trail(self, trace_id: str):
        """The shard's trail for ``trace_id`` (None when absent)."""
        return self.framework.verification_trail(trace_id)

    def counters(self) -> dict:
        """Submitted/applied/ledger-size counters."""
        framework = self.framework
        return {
            "submitted": framework._submitted_count,
            "applied": framework._applied_count,
            "ledger_size": len(framework.ledger),
        }

    def stats(self) -> dict:
        """Ordering stats; empty for a shard with no driver."""
        return {}

    def close(self) -> None:
        """Flush the shard's WAL; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.framework.close()


class ReplicatedShard(ShardHandle):
    """One shard's pipeline replicated across N frameworks.

    ``build`` is a zero-argument builder returning a fresh
    :class:`~repro.core.framework.PReVer`; it runs once per replica at
    construction and again on :meth:`restart_replica`.  Builders that
    enable durability must key the WAL directory on the replica index:
    declare a ``replica`` keyword (``def build(replica): ...``) and the
    shard passes ``build(replica=index)``; builders without one are
    called with no arguments.
    """

    def __init__(
        self,
        build: Callable[..., PReVer],
        replicas: int = 2,
        driver: Optional[ReplicationDriver] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        name: str = "replicated",
    ):
        if replicas < 1:
            raise PReVerError("ReplicatedShard needs at least one replica")
        self.name = name
        self._build = build
        # Decided from the signature, not by catching TypeError from a
        # trial call: a builder's own TypeError must reach the caller.
        self._build_takes_index = (
            "replica" in inspect.signature(build).parameters
        )
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NOOP_TRACER
        self.driver = driver or LocalDriver()
        self.driver.bind_observability(self.metrics, self.tracer)
        self.replicas: List[Optional[PReVer]] = [
            self._build_replica(i) for i in range(replicas)
        ]
        #: Decided batches applied per replica (dense prefix counts).
        self._applied = [0] * replicas
        #: Updates per decided batch, in decided order — the map from
        #: a recovered ledger size back to a batch offset.
        self._batch_sizes: List[int] = []
        self._tmr_replay = self.metrics.timer("consensus.replay")
        self._ctr_batches = self.metrics.counter("consensus.replayed_batches")

    def _build_replica(self, index: int) -> PReVer:
        if self._build_takes_index:
            return self._build(replica=index)
        return self._build()

    # -- the decided-stream replay ----------------------------------------

    @property
    def primary(self) -> PReVer:
        """The first live replica (reads, reports, and results come
        from here; all live replicas are byte-equal by construction)."""
        for replica in self.replicas:
            if replica is not None:
                return replica
        raise IntegrityError(f"shard {self.name!r} has no live replicas")

    #: The handle surface reads through the primary replica.
    framework = primary

    @property
    def primary_index(self) -> int:
        """Index of the first live replica."""
        for index, replica in enumerate(self.replicas):
            if replica is not None:
                return index
        raise IntegrityError(f"shard {self.name!r} has no live replicas")

    def submit(self, update: Update) -> UpdateResult:
        """Order and replay a single update (a one-element batch)."""
        return self.submit_many([update])[0]

    def submit_many(self, updates: Sequence[Update]) -> List[UpdateResult]:
        """Propose a batch, then replay every newly decided batch into
        all live replicas; returns this batch's results (from the
        primary replica)."""
        updates = list(updates)
        if not updates:
            return []
        payload = self.driver.encode_batch(updates)
        sequence = self.driver.propose_batch(payload)
        results = None
        for decided in self.driver.committed_stream():
            out = self._apply_decided(decided)
            if decided.sequence == sequence:
                results = out
        if results is None:
            raise ProtocolError(
                f"shard {self.name!r}: proposed batch {sequence} missing "
                "from the committed stream"
            )
        return results

    def _apply_decided(self, decided) -> List[UpdateResult]:
        """Replay one decided batch into every live replica, asserting
        the stream is gap-free and the replicas stay root-equal."""
        if decided.sequence != len(self._batch_sizes):
            raise IntegrityError(
                f"shard {self.name!r}: decided batch {decided.sequence} "
                f"out of order (expected {len(self._batch_sizes)})"
            )
        self._batch_sizes.append(len(decided.payload["updates"]))
        start = self.metrics._clock.now()
        results = None
        roots = {}
        for index, replica in enumerate(self.replicas):
            if replica is None:
                continue
            if self._applied[index] != decided.sequence:
                raise IntegrityError(
                    f"shard {self.name!r}: replica {index} at batch "
                    f"{self._applied[index]}, cannot replay "
                    f"{decided.sequence} (catch_up required)"
                )
            out = self._replay(index, decided)
            roots[index] = replica.ledger.digest().root
            if results is None:
                results = out
        self._tmr_replay.record(self.metrics._clock.now() - start)
        self._ctr_batches.add()
        self._check_roots(roots, at=decided.sequence)
        return results

    def _replay(self, index: int, decided) -> List[UpdateResult]:
        """Run one decided batch through live replica ``index`` and
        advance its offset.  Fresh update objects per replica: the
        pipeline mutates update state, so replicas never share them."""
        batch = self.driver.decode_batch(decided.payload)
        results = self.replicas[index].submit_many(batch)
        self._applied[index] = decided.sequence + 1
        return results

    def _check_roots(self, roots: dict, at: int) -> None:
        if len(set(roots.values())) > 1:
            detail = ", ".join(
                f"replica {i}: {root.hex()[:16]}"
                for i, root in sorted(roots.items())
            )
            raise IntegrityError(
                f"shard {self.name!r} diverged at decided batch {at}: "
                f"{detail}"
            )

    def assert_converged(self) -> bytes:
        """Every live replica (at the same applied offset) holds the
        same ledger root; returns that root."""
        roots = {}
        offsets = set()
        for index, replica in enumerate(self.replicas):
            if replica is None:
                continue
            offsets.add(self._applied[index])
            roots[index] = replica.ledger.digest().root
        if len(offsets) > 1:
            raise IntegrityError(
                f"shard {self.name!r}: replicas at different offsets "
                f"{sorted(offsets)}; catch_up lagging replicas first"
            )
        self._check_roots(roots, at=len(self._batch_sizes) - 1)
        return next(iter(roots.values()))

    # -- crash / recovery --------------------------------------------------

    def crash_replica(self, index: int) -> None:
        """Take one replica down (flush + drop).  The shard keeps
        serving from the remaining replicas; the decided stream keeps
        the crashed replica's seat in ``_applied``."""
        replica = self.replicas[index]
        if replica is None:
            return
        replica.close()
        self.replicas[index] = None

    def restart_replica(self, index: int) -> PReVer:
        """Rebuild a crashed replica and resynchronize it.

        With durability on, the replica first replays its own WAL
        (:meth:`PReVer.recover`), and the recovered ledger size is
        mapped back to a decided-batch offset — fail-closed if it does
        not land on a batch boundary, because a replica that durably
        holds half a batch violates the atomic-batch commit this
        module assumes.  Then :meth:`catch_up` replays the rest of the
        committed prefix and re-asserts convergence.
        """
        if self.replicas[index] is not None:
            raise PReVerError(f"replica {index} is still live")
        framework = self._build_replica(index)
        applied = 0
        if framework.durability.enabled:
            framework.recover()
            size = len(framework.ledger)
            covered = 0
            while applied < len(self._batch_sizes) and covered < size:
                covered += self._batch_sizes[applied]
                applied += 1
            if covered != size:
                raise IntegrityError(
                    f"shard {self.name!r}: replica {index} recovered "
                    f"{size} ledger entries, which is not a decided-batch "
                    f"boundary"
                )
        self.replicas[index] = framework
        self._applied[index] = applied
        self.catch_up(index)
        return framework

    def catch_up(self, index: int) -> int:
        """Replay the committed prefix beyond what replica ``index``
        has applied; returns the number of batches replayed."""
        if self.replicas[index] is None:
            raise PReVerError(f"replica {index} is not live")
        replayed = 0
        for decided in self.driver.catch_up(self._applied[index]):
            if decided.sequence < self._applied[index]:
                continue
            if decided.sequence != self._applied[index]:
                raise IntegrityError(
                    f"shard {self.name!r}: committed prefix has a gap at "
                    f"{self._applied[index]}"
                )
            self._replay(index, decided)
            replayed += 1
        self.assert_converged()
        return replayed

    # -- what ordering changes on the handle surface -----------------------

    def digest(self):
        """The shard ledger's digest — from the primary replica, after
        asserting every live replica agrees on the root."""
        self.assert_converged()
        return super().digest()

    def metrics_snapshot(self) -> dict:
        """Primary replica metrics, plus this shard's ``consensus.*``
        ordering metrics under ``"replication"``."""
        snapshot = super().metrics_snapshot()
        snapshot["replication"] = self.metrics.snapshot()
        return snapshot

    def alive(self) -> bool:
        """Liveness: at least one replica is live and healthy."""
        try:
            return super().alive()
        except IntegrityError:
            return False

    def readiness_report(self) -> dict:
        """Primary readiness plus replica-convergence checks."""
        report = super().readiness_report()
        live = sum(1 for r in self.replicas if r is not None)
        try:
            self.assert_converged()
            check = {"ok": True, "replicas": live,
                     "of": len(self.replicas)}
        except IntegrityError as exc:
            check = {"ok": False, "error": repr(exc)}
        report["checks"]["replicas_converged"] = check
        report["ok"] = report["ok"] and check["ok"]
        return report

    def stats(self) -> dict:
        """Driver ordering stats plus replica/batch bookkeeping."""
        out = self.driver.stats()
        out["replicas"] = len(self.replicas)
        out["live_replicas"] = sum(
            1 for r in self.replicas if r is not None
        )
        out["decided_batches"] = len(self._batch_sizes)
        return out

    def close(self) -> None:
        """Flush every live replica and release the driver."""
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas:
            if replica is not None:
                replica.close()
        self.driver.close()
