"""Sharded front-end: table-partitioned scale-out over ``PReVer``.

The ROADMAP's production north star — millions of users — does not fit
one pipeline instance: a single ``PReVer`` serializes every verify,
apply, and Merkle append.  VAMS scales verifiable audit by
partitioning the authenticated log; :class:`ShardedPReVer` does the
same to the Figure-2 pipeline.  Tables are partitioned across N
independent shards, each a full :class:`~repro.core.framework.PReVer`
with its **own** ledger, durability policy, and executor:

* a single-table update routes to its home shard and runs the
  unmodified staged pipeline there — one shard's stream of decisions,
  digests, and WAL bytes is identical to a standalone framework fed
  the same substream;
* a batch is partitioned by home shard (order preserved within each
  shard) and each part runs through its shard's one in-process
  :class:`~repro.core.replicated.ShardHandle`, in shard order;
* constraints whose scope spans shards cannot be checked by any one
  shard.  They must be registered coordinator-side with an RC2
  federated verifier (:class:`~repro.core.federated.TokenVerifier`
  or :class:`~repro.core.federated.MPCVerifier`) — **fail-closed**:
  registering without one, or registering a single-shard constraint
  here, raises.
  Escalation rejections are anchored on the coordinator's own ledger,
  so shard ledgers stay clean substream-equivalents;
* each shard can be **consensus-backed** via the ``consensus=`` plan
  knobs: a :class:`~repro.core.replicated.ReplicatedShard` orders the
  shard's batches through a
  :class:`~repro.consensus.driver.ReplicationDriver` (Paxos, PBFT, or
  a SharPer shard on a shared simulated network) and replays the
  decided stream into N replica frameworks, asserting per-batch root
  equality.  Cross-shard escalation decisions then order through the
  coordinator's own driver before anchoring;
* the combined commitment is a Merkle **root-of-roots** over the
  per-shard ledger roots (:meth:`ShardedPReVer.digest`), and
  :meth:`ShardedPReVer.recover` recovers every shard from its own
  WAL/snapshots and re-verifies each root before the front-end
  serves.

Durability note: the coordinator's escalation ledger is in-memory —
cross-shard *rejections* never mutate shard state, so crash recovery
reconstructs exactly the applied state from the per-shard WALs; the
root-of-roots deliberately covers only the shard roots.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import SimClock
from repro.common.errors import IntegrityError, PReVerError, ProtocolError
from repro.common.metrics import MetricsRegistry
from repro.consensus.driver import make_driver, resolve_plan
from repro.core.federated import MPCVerifier, TokenVerifier
from repro.core.framework import PReVer
from repro.core.outcome import UpdateResult
from repro.core.replicated import ReplicatedShard, ShardHandle
from repro.crypto.merkle import MerkleTree
from repro.ledger.central import CentralLedger
from repro.model.constraints import Constraint
from repro.model.update import Update
from repro.obs.tracing import NOOP_TRACER, Tracer


@dataclass(frozen=True)
class ShardSpec:
    """Recipe for one shard: a name, the tables it owns, and a
    zero-argument builder returning the shard's fully configured
    :class:`~repro.core.framework.PReVer` (databases, constraints,
    engine, durability).
    """

    name: str
    tables: Tuple[str, ...]
    build: Callable[[], PReVer]


class ShardPlan:
    """The table → shard routing map, validated at construction:
    every table belongs to exactly one shard (fail-closed on overlap),
    and routing an unknown table raises instead of guessing."""

    def __init__(self, specs: Sequence[ShardSpec]):
        if not specs:
            raise PReVerError("ShardedPReVer needs at least one shard")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise PReVerError(f"duplicate shard names in {names}")
        self.specs = list(specs)
        self._home: Dict[str, int] = {}
        for index, spec in enumerate(specs):
            if not spec.tables:
                raise PReVerError(f"shard {spec.name!r} owns no tables")
            for table in spec.tables:
                if table in self._home:
                    other = specs[self._home[table]].name
                    raise PReVerError(
                        f"table {table!r} claimed by shards "
                        f"{other!r} and {spec.name!r}"
                    )
                self._home[table] = index

    def shard_for(self, table: str) -> int:
        """Home shard index for ``table`` (raises on unknown tables)."""
        index = self._home.get(table)
        if index is None:
            raise PReVerError(f"no shard owns table {table!r}")
        return index

    def shards_for(self, tables: Sequence[str]) -> Tuple[int, ...]:
        """Sorted, de-duplicated shard indexes covering ``tables``;
        an empty scope means *all* shards (unscoped constraints apply
        everywhere)."""
        if not tables:
            return tuple(range(len(self.specs)))
        return tuple(sorted({self.shard_for(table) for table in tables}))


@dataclass(frozen=True)
class ShardedDigest:
    """The combined commitment: a Merkle root over the per-shard
    ledger roots, in shard order, plus the roots themselves so any
    shard's inclusion can be checked independently."""

    root: bytes
    shard_roots: Tuple[bytes, ...]
    shard_sizes: Tuple[int, ...]

    def to_dict(self) -> dict:
        """Serializable form, for artifacts and the event log."""
        return {
            "root": self.root.hex(),
            "shard_roots": [r.hex() for r in self.shard_roots],
            "shard_sizes": list(self.shard_sizes),
        }


class ShardedPReVer:
    """N independent ``PReVer`` shards behind one submit API.

    Every shard is built in this process and driven through one
    :class:`~repro.core.replicated.ShardHandle`.

    ``consensus`` makes shards consensus-backed: a kind string
    (``"paxos"``/``"pbft"``/``"sharper"``/``"local"``) or a
    :class:`~repro.consensus.driver.ReplicationPlan` applies to every
    shard *and* gives the coordinator its own driver (escalation
    decisions are then ordered through it before anchoring); a dict
    maps shard names to per-shard plans, with an optional
    ``"coordinator"`` key for the escalation driver.  Consensus-backed
    shards are :class:`~repro.core.replicated.ReplicatedShard`
    handles.  Sharper plans share one simulated network and ledger:
    one consensus shard per pipeline shard, so disjoint shards order
    in parallel.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        clock: Optional[SimClock] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        escalation_ledger: Optional[CentralLedger] = None,
        consensus=None,
    ):
        self.plan = ShardPlan(specs)
        self.specs = self.plan.specs
        self.clock = clock or SimClock()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NOOP_TRACER
        #: Cross-shard escalation decisions are anchored here — never
        #: on a shard's ledger, which stays substream-equivalent to a
        #: standalone framework.
        self.escalation_ledger = escalation_ledger or CentralLedger(
            name="shard-coordinator"
        )
        if self.tracer.enabled:
            self.escalation_ledger.bind_tracer(self.tracer)
        self._cross: List[Tuple[Constraint, object]] = []
        self._closed = False
        shard_plans, coordinator_plan = self._resolve_consensus(consensus)
        self.consensus_plans = {
            spec.name: plan
            for spec, plan in zip(self.specs, shard_plans)
            if plan is not None
        }
        self.coordinator_plan = coordinator_plan
        sharper_ledger = self._build_sharper_ledger(
            shard_plans, coordinator_plan
        )
        self.shards: List[ShardHandle] = [
            self._build_shard(spec, plan, sharper_ledger)
            for spec, plan in zip(self.specs, shard_plans)
        ]
        #: The coordinator's own ordering driver: cross-shard
        #: escalation decisions are proposed through it and anchored in
        #: decided order.  ``None`` appends directly (the pre-driver
        #: path, byte-identical).
        self.replication = None
        if coordinator_plan is not None:
            self.replication = make_driver(
                coordinator_plan, metrics=self.metrics, tracer=self.tracer,
                sharper_ledger=sharper_ledger,
                sharper_shard="coordinator",
            )
        self._ctr_updates = self.metrics.counter("sharded.updates")
        self._ctr_escalations = self.metrics.counter("sharded.escalations")
        self._ctr_escalation_rejections = self.metrics.counter(
            "sharded.escalation_rejections"
        )

    def _resolve_consensus(self, consensus):
        """Normalize the ``consensus`` knob into per-shard plans plus
        the coordinator's plan (each ``None`` = the plain direct path)."""
        names = [spec.name for spec in self.specs]
        if consensus is None:
            return [None] * len(names), None
        if isinstance(consensus, dict):
            unknown = set(consensus) - set(names) - {"coordinator"}
            if unknown:
                raise PReVerError(
                    f"consensus plans for unknown shards: {sorted(unknown)}"
                )
            plans = [
                resolve_plan(consensus[name]) if name in consensus else None
                for name in names
            ]
            coordinator = (
                resolve_plan(consensus["coordinator"])
                if "coordinator" in consensus else None
            )
            return plans, coordinator
        plan = resolve_plan(consensus)
        return [plan] * len(names), plan

    def _build_sharper_ledger(self, shard_plans, coordinator_plan):
        """One shared SharPer ledger + simulated network for every
        sharper-backed shard (and the coordinator, when sharper): one
        consensus shard per pipeline shard, so disjoint pipeline shards
        order in parallel — SharPer's scaling argument."""
        sharper_names = [
            spec.name
            for spec, plan in zip(self.specs, shard_plans)
            if plan is not None and plan.kind == "sharper"
        ]
        coordinator_sharper = (
            coordinator_plan is not None and coordinator_plan.kind == "sharper"
        )
        if not sharper_names and not coordinator_sharper:
            return None
        from repro.chain.sharper import ShardedLedger
        from repro.net.simnet import network_profile

        plans = [p for p in list(shard_plans) + [coordinator_plan]
                 if p is not None and p.kind == "sharper"]
        first = plans[0]
        names = sharper_names + (["coordinator"] if coordinator_sharper else [])
        network = network_profile(first.profile).build(
            metrics=self.metrics, tracer=self.tracer
        )
        return ShardedLedger(names, f=first.f, network=network)

    def _build_shard(self, spec: ShardSpec, plan,
                     sharper_ledger) -> ShardHandle:
        """One shard handle: a plain :class:`ShardHandle` by default,
        a :class:`ReplicatedShard` when a consensus plan asks for
        ordering or more than one replica."""
        if plan is None or (plan.kind == "local" and plan.replicas <= 1):
            return ShardHandle(spec.build())
        driver = make_driver(
            plan, metrics=self.metrics, tracer=self.tracer,
            sharper_ledger=sharper_ledger, sharper_shard=spec.name,
        )
        return ReplicatedShard(
            spec.build, replicas=plan.replicas, driver=driver,
            metrics=self.metrics, tracer=self.tracer, name=spec.name,
        )

    # -- cross-shard constraints (fail-closed) ---------------------------

    def register_cross_shard_constraint(self, constraint: Constraint,
                                        verifier=None) -> None:
        """Register a constraint whose scope spans shards.

        Fail-closed on every degenerate configuration: a constraint
        that fits inside one shard must be registered *on* that shard
        (its pipeline checks it with full local state); a spanning
        constraint without an RC2 federated verifier is refused rather
        than checked partially.
        """
        covering = self.plan.shards_for(constraint.tables)
        if len(covering) <= 1:
            home = self.specs[covering[0]].name
            raise PReVerError(
                f"constraint {constraint.name!r} fits inside shard "
                f"{home!r}; register it there, not on the coordinator"
            )
        if verifier is None:
            raise PReVerError(
                f"cross-shard constraint {constraint.name!r} needs an RC2 "
                "federated verifier (TokenVerifier or MPCVerifier) — "
                "no single shard can see enough state to check it"
            )
        if not isinstance(verifier, (TokenVerifier, MPCVerifier)):
            raise PReVerError(
                f"unsupported cross-shard verifier {type(verifier).__name__}; "
                "use TokenVerifier or MPCVerifier"
            )
        self._cross.append((constraint, verifier))

    def _escalate(self, update: Update) -> Optional[UpdateResult]:
        """Check the cross-shard constraints covering this update's
        table; a rejection is anchored on the coordinator ledger and
        the update never reaches its home shard."""
        now = self.clock.now()
        for constraint, verifier in self._cross:
            if constraint.tables and update.table not in constraint.tables:
                continue
            self._ctr_escalations.add()
            outcome = verifier.verify(update, now)
            if self.tracer.enabled:
                self.tracer.event(
                    "shard.escalation",
                    update_id=update.update_id,
                    table=update.table,
                    constraint_id=constraint.constraint_id,
                    verifier=type(verifier).__name__,
                    accepted=outcome.accepted,
                )
            if not outcome.accepted:
                self._ctr_escalation_rejections.add()
                update.mark_rejected(
                    outcome.failed_constraint or constraint.constraint_id
                )
                entry = self._anchor_escalation({
                    "update_id": update.update_id,
                    "table": update.table,
                    "status": update.status.value,
                    "decision": outcome.to_dict(),
                    "scope": "cross-shard",
                    "timestamp": now,
                })
                result = UpdateResult(
                    update=update, outcome=outcome, applied=False,
                    ledger_sequence=entry.sequence,
                )
                result.shard = None
                return result
        return None

    def _anchor_escalation(self, payload: dict):
        """Anchor one escalation decision on the coordinator ledger.

        With no coordinator driver this is a direct append (the
        pre-consensus path).  With one, the decision is proposed
        through the driver and *every* newly decided escalation is
        appended in decided order — so several coordinators sharing a
        driver converge on one escalation-ledger history — and the
        entry for this payload is returned.
        """
        if self.replication is None:
            return self.escalation_ledger.append(payload)
        sequence = self.replication.propose_batch({"escalations": [payload]})
        entry = None
        for decided in self.replication.committed_stream():
            for item in decided.payload.get("escalations", ()):
                appended = self.escalation_ledger.append(item)
                if decided.sequence == sequence:
                    entry = appended
        if entry is None:
            raise ProtocolError(
                "coordinator driver never delivered escalation "
                f"proposal {sequence}"
            )
        # Every delivered escalation is on the ledger now.
        self.replication.compact(sequence + 1)
        return entry

    # -- the submit API ---------------------------------------------------

    def submit(self, update: Update) -> UpdateResult:
        """Route one update: escalate cross-shard constraints, then
        run it through its home shard's pipeline."""
        index = self.plan.shard_for(update.table)
        self._ctr_updates.add()
        rejected = self._escalate(update)
        if rejected is not None:
            return rejected
        result = self.shards[index].submit(update)
        result.shard = self.specs[index].name
        return result

    def submit_many(self, updates: Sequence[Update]) -> List[UpdateResult]:
        """Partition a batch by home shard and run each part through
        its shard, in shard order.

        Order is preserved within each shard (so per-shard decisions
        match a standalone framework fed that substream) and the
        returned list is in the original submission order.  Escalation
        runs coordinator-side first, in submission order — token
        budgets are order-sensitive — and escalation rejections never
        reach a shard.
        """
        updates = list(updates)
        if not updates:
            return []
        # Route everything up front: an unknown table fails the whole
        # batch before any shard state mutates.
        homes = [self.plan.shard_for(update.table) for update in updates]
        self._ctr_updates.add(len(updates))
        results: List[Optional[UpdateResult]] = [None] * len(updates)
        per_shard: Dict[int, List[int]] = {}
        for position, (update, home) in enumerate(zip(updates, homes)):
            rejected = self._escalate(update) if self._cross else None
            if rejected is not None:
                results[position] = rejected
            else:
                per_shard.setdefault(home, []).append(position)
        with self.metrics.timed("sharded.dispatch"):
            for home in sorted(per_shard):
                positions = per_shard[home]
                batch = [updates[p] for p in positions]
                name = self.specs[home].name
                if self.tracer.enabled:
                    self.tracer.event(
                        "shard.dispatch", shard=name, items=len(batch),
                    )
                shard_results = self.shards[home].submit_many(batch)
                for position, result in zip(positions, shard_results):
                    result.shard = name
                    results[position] = result
        return results

    # -- commitment, recovery, reporting ---------------------------------

    def shard_digests(self) -> Dict[str, object]:
        """Per-shard ledger digests, keyed by shard name."""
        return {
            spec.name: shard.digest()
            for spec, shard in zip(self.specs, self.shards)
        }

    def digest(self) -> ShardedDigest:
        """The Merkle root-of-roots over the per-shard ledger roots
        (shard order).  Any participant holding one shard's digest can
        verify it against this combined commitment."""
        digests = [shard.digest() for shard in self.shards]
        tree = MerkleTree([d.root for d in digests])
        return ShardedDigest(
            root=tree.root(),
            shard_roots=tuple(d.root for d in digests),
            shard_sizes=tuple(d.size for d in digests),
        )

    def recover(self) -> Dict[str, object]:
        """Recover every shard from its own WAL/snapshots and
        re-verify each recovered root (fail-closed: any shard whose
        replayed root does not match its last durable anchor aborts
        the whole front-end).  Every shard must be durable and
        freshly built: a non-durable shard raises
        :class:`~repro.common.errors.DurabilityError` (a replicated
        shard recovers its primary replica).  Returns per-shard
        :class:`~repro.durability.recovery.RecoveryReport`s."""
        reports = {}
        for spec, shard in zip(self.specs, self.shards):
            report = shard.recover()
            if not report.verified_against_anchor and report.final_size:
                raise IntegrityError(
                    f"shard {spec.name!r} recovered root does not match "
                    "its last durable anchor"
                )
            reports[spec.name] = report
        return reports

    def throughput_report(self) -> dict:
        """Per-shard throughput reports plus a combined summary.

        Combined ``updates_per_sec`` sums the per-shard rates.  Shards
        run one after another in this process, so the sum is an upper
        bound; the per-shard reports carry the honest per-instance
        numbers.
        """
        shards = {
            spec.name: shard.throughput_report()
            for spec, shard in zip(self.specs, self.shards)
        }
        return {
            "shards": shards,
            "combined": {
                "updates": sum(r["updates"] for r in shards.values()),
                "updates_per_sec": sum(
                    r["updates_per_sec"] for r in shards.values()
                ),
            },
        }

    def metrics_snapshot(self) -> dict:
        """Coordinator metrics plus every shard's snapshot, merged
        under per-shard keys."""
        merged = {"coordinator": self.metrics.snapshot()}
        for spec, shard in zip(self.specs, self.shards):
            merged[spec.name] = shard.metrics_snapshot()
        return merged

    def collect_telemetry(self) -> MetricsRegistry:
        """Pull every shard's telemetry delta and merge it into the
        coordinator registry under ``shard.<name>.*`` labels.

        Incremental and idempotent across calls (each shard ships only
        what happened since its previous capture), so the ops server
        can call this on every ``/metrics`` scrape.  Returns the
        coordinator registry, now holding the merged view.
        """
        from repro.obs.aggregate import merge_delta

        for spec, shard in zip(self.specs, self.shards):
            delta = shard.telemetry_delta()
            if delta is not None and not delta.empty():
                merge_delta(self.metrics, delta,
                            prefix=f"shard.{spec.name}")
        return self.metrics

    def consensus_report(self) -> dict:
        """Per-shard replication-driver stats (proposed/decided counts
        and the underlying cluster's latency/throughput summary), plus
        the coordinator's escalation driver under ``"coordinator"``.
        Consensus-free shards are omitted."""
        report = {}
        for spec, shard in zip(self.specs, self.shards):
            stats = shard.stats()
            if stats:
                report[spec.name] = stats
        if self.replication is not None:
            report["coordinator"] = self.replication.stats()
        return report

    # -- ops probes & audit trails ----------------------------------------

    def health_report(self) -> dict:
        """Liveness checks for the ops server's ``/healthz``: every
        shard can take work and the escalation ledger is reachable."""
        checks = {
            "escalation_ledger": {
                "ok": True, "size": len(self.escalation_ledger),
            },
        }
        for spec, shard in zip(self.specs, self.shards):
            try:
                detail = {"ok": shard.alive()}
            except Exception as exc:
                detail = {"ok": False, "error": repr(exc)}
            checks[f"shard.{spec.name}"] = detail
        return {
            "ok": all(c["ok"] for c in checks.values()),
            "checks": checks,
        }

    def readiness_report(self) -> dict:
        """Readiness checks for ``/readyz``: liveness plus every
        shard's own ledger-root vs last-anchored-root consistency."""
        report = self.health_report()
        for spec, shard in zip(self.specs, self.shards):
            try:
                shard_ready = shard.readiness_report()
                detail = {"ok": shard_ready["ok"]}
            except Exception as exc:
                detail = {"ok": False, "error": repr(exc)}
            report["checks"][f"shard.{spec.name}.ready"] = detail
        report["ok"] = all(c["ok"] for c in report["checks"].values())
        return report

    def verification_trail(self, trace_id: str) -> Optional[dict]:
        """One update's full verification trail, searched across every
        shard (each shard's trail verifies against its *own* ledger
        digest; the shard root is independently checkable against the
        root-of-roots commitment).  None when no shard anchored it."""
        for spec, shard in zip(self.specs, self.shards):
            trail = shard.verification_trail(trace_id)
            if trail is not None:
                trail["shard"] = spec.name
                return trail
        return None

    def acceptance_rate(self) -> float:
        """Applied / submitted across all shards *and* coordinator
        escalation rejections (which were submitted but never
        applied)."""
        submitted = applied = 0
        for shard in self.shards:
            counters = shard.counters()
            submitted += counters["submitted"]
            applied += counters["applied"]
        submitted += self._ctr_escalation_rejections.count
        if not submitted:
            return 0.0
        return applied / submitted

    def serve(self, **config):
        """Expose the sharded deployment over the wire protocol.

        Same contract as :meth:`repro.core.framework.PReVer.serve`:
        returns a started :class:`~repro.serve.server.ServerThread`
        whose batches route across the shards exactly as in-process
        ``submit_many`` batches do.
        """
        from repro.serve.server import ServerThread

        thread = ServerThread(self, **config)
        thread.start()
        return thread

    def close(self) -> None:
        """Flush every shard's WAL; idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard in self.shards:
            shard.close()
        if self.replication is not None:
            self.replication.close()
