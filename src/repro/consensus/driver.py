"""The pluggable replication driver layer (RC4, federated setting).

The staged pipeline's commit point used to be implicit: whatever order
``submit_many`` received was the order durability, apply, and anchoring
saw.  This module makes ordering an explicit, swappable layer.  A
:class:`ReplicationDriver` turns proposed update batches into a single
**decided batch stream** — a gap-free, totally ordered sequence of
:class:`DecidedBatch` records — and everything downstream of the
driver (DurabilityStage, ApplyStage, AnchorStage) runs only on that
stream:

    ReplicatedShard.submit_many ──▶ driver.propose_batch(payload)
                         │   (ordering: local / Paxos / PBFT / SharPer
                         │    over SimNetwork)
                         ▼
                    driver.committed_stream() ──▶ DecidedBatch(seq, payload)
                         │
                         ▼
                    replica.submit_many ──▶ Pipeline.run_batch  (auth →
                    verify → durability → apply → anchor, per replica)

Four drivers:

* :class:`LocalDriver` — the default: decides immediately in arrival
  order, transports nothing, byte-identical to the pre-refactor path.
* :class:`PaxosDriver` — multi-decree Paxos (crash fault tolerance,
  3n messages/decree) over :class:`~repro.net.simnet.SimNetwork`.
* :class:`PbftDriver` — Castro–Liskov PBFT (byzantine fault
  tolerance, O(n²) messages/decree).
* :class:`SharperDriver` — one PBFT shard of a SharPer-style
  :class:`~repro.chain.sharper.ShardedLedger`; several pipeline shards
  can share one ledger (and one simulated network), which is the
  paper's sharded-consensus deployment.

Batch payloads are the serving tier's canonical wire docs
(:func:`~repro.serve.protocol.update_to_wire`), so producer-signed
updates survive ordering with their signatures verifying on every
replica, and PBFT digests the exact bytes the replicas replay.

Consensus values may be decided *twice* under message loss (a
retransmitted command lands in a second slot) and PBFT view changes
fill gaps with no-ops; the driver de-duplicates by proposal key and
filters protocol filler, so consumers always see each proposed batch
exactly once, in one agreed order.  Observability: every driver
records ``consensus.propose`` / ``consensus.decide`` timers, proposed
and decided counters, and a ``consensus.committed_lag`` gauge into the
registry it is bound to (exported via the PR 2 /metrics plane), and
emits a ``consensus.propose`` span per batch when a tracer is bound.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.clock import WallClock
from repro.common.errors import ProtocolError
from repro.common.ids import make_id
from repro.net.simnet import SimNetwork, network_profile
from repro.serve import protocol

_DRIVER_KINDS = ("local", "paxos", "pbft", "sharper")


@dataclass(frozen=True)
class DecidedBatch:
    """One decided entry of the replicated log: a dense sequence
    number (0, 1, 2, ... with no gaps) and the batch payload exactly
    as proposed."""

    sequence: int
    payload: Any


@dataclass(frozen=True)
class ReplicationPlan:
    """Declarative recipe for one shard's replication setup.

    ``kind`` picks the driver; ``replicas`` is how many state-machine
    replicas replay the decided stream (see
    :class:`~repro.core.replicated.ReplicatedShard`); ``nodes`` sizes a
    Paxos cluster; ``f`` is the PBFT/SharPer fault bound (n = 3f + 1);
    ``profile`` names a :data:`~repro.net.simnet.NETWORK_PROFILES`
    entry (or is a :class:`~repro.net.simnet.NetworkProfile`).
    """

    kind: str = "local"
    replicas: int = 2
    nodes: int = 3
    f: int = 1
    profile: Any = "lan"
    view_timeout: float = 5.0
    max_attempts: int = 8

    def __post_init__(self):
        if self.kind not in _DRIVER_KINDS:
            raise ProtocolError(
                f"unknown replication kind {self.kind!r}; "
                f"known: {list(_DRIVER_KINDS)}"
            )
        if self.replicas < 1:
            raise ProtocolError("replication needs at least one replica")

    def to_dict(self) -> dict:
        """Serializable form for artifacts and runbooks."""
        profile = self.profile
        return {
            "kind": self.kind,
            "replicas": self.replicas,
            "nodes": self.nodes,
            "f": self.f,
            "profile": getattr(profile, "name", profile),
        }


def resolve_plan(value) -> ReplicationPlan:
    """``None`` / a kind string / a :class:`ReplicationPlan` → plan."""
    if value is None:
        return ReplicationPlan(kind="local")
    if isinstance(value, ReplicationPlan):
        return value
    if isinstance(value, str):
        return ReplicationPlan(kind=value)
    raise ProtocolError(
        f"consensus plan must be a kind string or ReplicationPlan, "
        f"got {type(value).__name__}"
    )


class ReplicationDriver:
    """Orders proposed batch payloads into one decided batch stream.

    The contract every implementation honors:

    * :meth:`propose_batch` blocks until the payload is decided and
      returns its dense sequence number (fail-closed: raises
      :class:`~repro.common.errors.ProtocolError` if the cluster will
      not decide it);
    * :meth:`committed_stream` yields every decided batch past the
      driver's consumption cursor, exactly once, in sequence order;
    * :meth:`catch_up` re-reads the committed prefix from
      ``from_sequence`` (for replicas resynchronizing after a crash);
    * :meth:`stats` reports ordering throughput/latency for the bench
      harness.
    """

    name = "replication"
    #: Whether payloads cross a (simulated) network — if True the
    #: pipeline wire-encodes updates and every replica decodes fresh
    #: objects; the LocalDriver passes caller objects straight through.
    transports = True

    def __init__(self):
        self._log: List[DecidedBatch] = []
        self._seq_by_key: Dict[str, int] = {}
        self._seen: set = set()
        self._raw_cursor = 0     # consumed cluster committed-prefix entries
        self._stream_cursor = 0  # consumer position in the deduped log
        self._proposed = 0
        self._origin = make_id("rep")
        self._wall = WallClock()
        self._propose_starts: Dict[int, float] = {}
        self._metrics = None
        self._tracer = None
        self._tmr_propose = None
        self._tmr_decide = None
        self._ctr_proposed = None
        self._ctr_decided = None
        self._gauge_lag = None

    # -- observability ----------------------------------------------------

    def bind_observability(self, metrics=None, tracer=None) -> None:
        """Attach the obs plane: ``consensus.*`` timers/counters/gauge
        go into ``metrics``; propose spans onto ``tracer``."""
        if metrics is not None:
            self._metrics = metrics
            self._tmr_propose = metrics.timer("consensus.propose")
            self._tmr_decide = metrics.timer("consensus.decide")
            self._ctr_proposed = metrics.counter("consensus.batches_proposed")
            self._ctr_decided = metrics.counter("consensus.batches_decided")
            self._gauge_lag = metrics.gauge("consensus.committed_lag")
        if tracer is not None and getattr(tracer, "enabled", False):
            self._tracer = tracer

    def _note_lag(self) -> None:
        if self._gauge_lag is not None:
            self._gauge_lag.set(len(self._log) - self._stream_cursor)

    # -- payload codecs ---------------------------------------------------

    def encode_batch(self, updates: Sequence) -> dict:
        """Updates → the proposed payload (canonical wire docs, so
        signatures survive ordering and replicas replay identical
        bytes)."""
        return {"updates": [protocol.update_to_wire(u) for u in updates]}

    def decode_batch(self, payload: dict) -> list:
        """Decided payload → fresh :class:`~repro.model.update.Update`
        objects.  Called once per replica: the pipeline mutates update
        state, so decided batches must never share objects across
        replicas."""
        return [protocol.update_from_wire(doc)
                for doc in payload["updates"]]

    # -- the driver API ---------------------------------------------------

    def propose_batch(self, payload) -> int:
        """Order one batch payload; returns its decided sequence."""
        key = f"{self._origin}:{self._proposed}"
        self._proposed += 1
        start = self._wall.now()
        span = None
        if self._tracer is not None:
            span = self._tracer.start_trace(
                "consensus.propose",
                attributes={"driver": self.name, "key": key},
            )
        try:
            sequence = self._order(key, payload)
        except Exception:
            if span is not None:
                span.set_status("error").end()
            raise
        elapsed = self._wall.now() - start
        self._propose_starts[sequence] = start
        if self._tmr_propose is not None:
            self._tmr_propose.record(elapsed)
            self._ctr_proposed.add()
            self._note_lag()
        if span is not None:
            span.set_attribute("sequence", sequence)
            span.end()
        return sequence

    def committed_stream(self) -> Iterator[DecidedBatch]:
        """Yield decided batches this consumer has not seen yet."""
        self._refresh()
        while self._stream_cursor < len(self._log):
            batch = self._log[self._stream_cursor]
            self._stream_cursor += 1
            if self._tmr_decide is not None:
                started = self._propose_starts.pop(batch.sequence, None)
                if started is not None:
                    self._tmr_decide.record(self._wall.now() - started)
                self._ctr_decided.add()
                self._note_lag()
            yield batch

    def catch_up(self, from_sequence: int = 0) -> List[DecidedBatch]:
        """The committed prefix from ``from_sequence`` on — the resync
        path for a replica rejoining after a crash."""
        self._refresh()
        if from_sequence < 0:
            raise ProtocolError("catch_up needs a non-negative sequence")
        return list(self._log[from_sequence:])

    @property
    def proposed_count(self) -> int:
        return self._proposed

    @property
    def decided_count(self) -> int:
        self._refresh()
        return len(self._log)

    def stats(self) -> dict:
        """Ordering statistics for the bench harness."""
        return {
            "driver": self.name,
            "proposed": self._proposed,
            "decided": len(self._log),
            "delivered": self._stream_cursor,
        }

    def close(self) -> None:
        """Release driver resources (a no-op for simulations)."""

    # -- implementation hooks ---------------------------------------------

    def _order(self, key: str, payload) -> int:
        raise NotImplementedError

    def _refresh(self) -> None:
        """Pull newly committed cluster entries into the deduped log."""


class LocalDriver(ReplicationDriver):
    """The default driver: no cluster, no network — batches decide in
    arrival order, immediately, and payloads pass through untouched
    (caller objects, not wire copies).  Byte-identical to the
    pre-driver pipeline; everything else about the decided-stream
    contract (dense sequences, ``catch_up``, stats) still holds, so a
    replicated shard over a LocalDriver exercises the same replay
    machinery the consensus drivers do."""

    name = "local"
    transports = False

    def encode_batch(self, updates: Sequence) -> dict:
        return {"updates": list(updates)}

    def decode_batch(self, payload: dict) -> list:
        return list(payload["updates"])

    def _order(self, key: str, payload) -> int:
        sequence = len(self._log)
        self._log.append(DecidedBatch(sequence, payload))
        return sequence


class _ClusterDriver(ReplicationDriver):
    """Shared machinery for drivers backed by a simulated cluster.

    Proposals are wrapped as ``{"rep": key, "payload": ...}`` so the
    committed prefix can be de-duplicated (loss-driven retransmits may
    decide a command in two slots) and protocol filler (PBFT view
    change no-ops, equivocation decoys) filtered out.  ``propose``
    retries up to ``max_attempts`` times on a lossy network, re-driving
    stuck slots via :meth:`_recover_pending` between attempts.
    """

    def __init__(self, max_attempts: int = 8):
        super().__init__()
        if max_attempts < 1:
            raise ProtocolError("max_attempts must be positive")
        self.max_attempts = max_attempts

    # subclasses provide: _submit(wrapped), _run(), _committed_values(),
    # and optionally _recover_pending().

    def _recover_pending(self) -> None:
        """Hook between retry attempts (e.g. Paxos slot re-drive)."""

    def _order(self, key: str, payload) -> int:
        wrapped = {"rep": key, "payload": payload}
        for attempt in range(self.max_attempts):
            if attempt > 0:
                self._recover_pending()
                self._refresh()
                sequence = self._seq_by_key.get(key)
                if sequence is not None:
                    return sequence
            self._submit(wrapped)
            self._run()
            self._refresh()
            sequence = self._seq_by_key.get(key)
            if sequence is not None:
                return sequence
        raise ProtocolError(
            f"{self.name}: batch {key} not decided after "
            f"{self.max_attempts} attempts"
        )

    def _extract(self, value) -> Tuple[Optional[str], Any]:
        """A committed cluster value → (proposal key, payload), or
        ``(None, None)`` for filler the stream must skip."""
        if isinstance(value, dict) and "rep" in value:
            return value["rep"], value["payload"]
        return None, None

    def _refresh(self) -> None:
        values = self._committed_values()
        while self._raw_cursor < len(values):
            value = values[self._raw_cursor]
            self._raw_cursor += 1
            key, payload = self._extract(value)
            if key is None or key in self._seen:
                continue
            self._seen.add(key)
            sequence = len(self._log)
            self._seq_by_key[key] = sequence
            self._log.append(DecidedBatch(sequence, payload))

    def _submit(self, wrapped: dict) -> None:
        raise NotImplementedError

    def _run(self) -> None:
        raise NotImplementedError

    def _committed_values(self) -> list:
        raise NotImplementedError


def _build_network(network, profile, metrics, tracer) -> SimNetwork:
    if network is not None:
        return network
    return network_profile(profile).build(metrics=metrics, tracer=tracer)


class PaxosDriver(_ClusterDriver):
    """Ordering via multi-decree Paxos (crash fault tolerance)."""

    name = "paxos"

    def __init__(self, nodes: int = 3, network: Optional[SimNetwork] = None,
                 profile="lan", metrics=None, tracer=None,
                 max_attempts: int = 8):
        super().__init__(max_attempts=max_attempts)
        from repro.consensus.paxos import PaxosCluster

        net = _build_network(network, profile, metrics, tracer)
        self.cluster = PaxosCluster(n=nodes, network=net,
                                    name_prefix=f"paxos-{self._origin}")

    def _submit(self, wrapped: dict) -> None:
        self.cluster.submit(wrapped)

    def _run(self) -> None:
        self.cluster.run()

    def _committed_values(self) -> list:
        return self.cluster.committed()

    def _recover_pending(self) -> None:
        self.cluster.retry_pending()

    def stats(self) -> dict:
        out = super().stats()
        out["cluster"] = self.cluster.stats().to_dict()
        return out


class PbftDriver(_ClusterDriver):
    """Ordering via three-phase PBFT (byzantine fault tolerance)."""

    name = "pbft"

    def __init__(self, f: int = 1, network: Optional[SimNetwork] = None,
                 profile="lan", metrics=None, tracer=None,
                 view_timeout: float = 5.0, max_attempts: int = 8):
        super().__init__(max_attempts=max_attempts)
        from repro.consensus.pbft import PBFTCluster

        net = _build_network(network, profile, metrics, tracer)
        self.cluster = PBFTCluster(f=f, network=net,
                                   name_prefix=f"pbft-{self._origin}",
                                   view_timeout=view_timeout)

    def _submit(self, wrapped: dict) -> None:
        self.cluster.submit(wrapped)

    def _run(self) -> None:
        self.cluster.run()

    def _committed_values(self) -> list:
        return self.cluster.committed()

    def stats(self) -> dict:
        out = super().stats()
        out["cluster"] = self.cluster.stats().to_dict()
        return out


class SharperDriver(_ClusterDriver):
    """Ordering via one shard of a SharPer-style sharded ledger.

    Pass a shared :class:`~repro.chain.sharper.ShardedLedger` (plus
    this driver's ``shard`` name) to co-locate several pipeline shards
    on one simulated network — disjoint shards then order in parallel,
    which is SharPer's scaling argument.  With no ledger given the
    driver builds a single-shard one of its own.
    """

    name = "sharper"

    def __init__(self, ledger=None, shard: str = "s0", f: int = 1,
                 network: Optional[SimNetwork] = None, profile="lan",
                 metrics=None, tracer=None, max_attempts: int = 8):
        super().__init__(max_attempts=max_attempts)
        from repro.chain.sharper import ShardedLedger

        if ledger is None:
            net = _build_network(network, profile, metrics, tracer)
            ledger = ShardedLedger([shard], f=f, network=net)
        self.ledger = ledger
        self.shard = shard
        self.cluster = self.ledger.shards[shard]

    def _submit(self, wrapped: dict) -> None:
        self.ledger.submit_intra(self.shard, wrapped)

    def _run(self) -> None:
        self.ledger.run()

    def _committed_values(self) -> list:
        return self.cluster.committed()

    def _extract(self, value) -> Tuple[Optional[str], Any]:
        # Intra-shard entries arrive as {"tx_id", "shard", "payload"};
        # only payloads carrying our proposal wrapper belong to the
        # decided stream (cross-shard bodies and no-ops are filler
        # from this driver's point of view).
        if isinstance(value, dict):
            inner = value.get("payload")
            if isinstance(inner, dict) and "rep" in inner:
                return inner["rep"], inner["payload"]
        return None, None

    def stats(self) -> dict:
        out = super().stats()
        out["shard"] = self.shard
        out["cluster"] = self.cluster.stats().to_dict()
        return out


def make_driver(plan: ReplicationPlan, metrics=None, tracer=None,
                network: Optional[SimNetwork] = None,
                sharper_ledger=None,
                sharper_shard: str = "s0") -> ReplicationDriver:
    """Build the driver a :class:`ReplicationPlan` describes.

    ``sharper_ledger``/``sharper_shard`` let a coordinator co-locate
    several sharper-backed shards on one shared ledger; they are
    ignored for other kinds.
    """
    plan = resolve_plan(plan)
    if plan.kind == "local":
        driver = LocalDriver()
    elif plan.kind == "paxos":
        driver = PaxosDriver(nodes=plan.nodes, network=network,
                             profile=plan.profile, metrics=metrics,
                             tracer=tracer, max_attempts=plan.max_attempts)
    elif plan.kind == "pbft":
        driver = PbftDriver(f=plan.f, network=network, profile=plan.profile,
                            metrics=metrics, tracer=tracer,
                            view_timeout=plan.view_timeout,
                            max_attempts=plan.max_attempts)
    else:
        driver = SharperDriver(ledger=sharper_ledger, shard=sharper_shard,
                               f=plan.f, network=network,
                               profile=plan.profile, metrics=metrics,
                               tracer=tracer, max_attempts=plan.max_attempts)
    driver.bind_observability(metrics, tracer)
    return driver
