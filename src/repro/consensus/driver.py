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
exactly once, in one agreed order.  Because the driver proposes one
batch at a time, de-duplication needs no per-batch memory: a proposal
whose key counter is not above the highest one decided is a repeat.

The log is bounded: :meth:`ReplicationDriver.compact` releases every
decided batch below a watermark the consumer supplies (a
:class:`~repro.core.replicated.ReplicatedShard` passes the lowest
offset any replica may still replay from), down through the cluster's
per-slot state, so decided batches live only between "decided" and
"applied everywhere".  Observability: every driver
records ``consensus.propose`` / ``consensus.decide`` timers, proposed
and decided counters, and a ``consensus.committed_lag`` gauge into the
registry it is bound to (exported via the PR 2 /metrics plane), and
emits a ``consensus.propose`` span per batch when a tracer is bound.
"""

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.clock import WallClock
from repro.common.errors import LogCompactedError, ProtocolError
from repro.common.ids import make_id
from repro.net.simnet import SimNetwork, network_profile
from repro.serve import protocol

_DRIVER_KINDS = ("local", "paxos", "pbft", "sharper")

#: Proposals a cluster driver makes for one batch before giving up.
_MAX_ATTEMPTS = 8
#: Seconds (simulated) a PBFT replica waits before a view change.
_PBFT_VIEW_TIMEOUT = 5.0


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
    * :meth:`catch_up` re-reads the retained log from ``from_sequence``
      (for replicas resynchronizing after a crash), raising
      :class:`~repro.common.errors.LogCompactedError` below the
      compaction watermark;
    * :meth:`compact` releases delivered batches below a watermark;
    * :meth:`stats` reports ordering throughput/latency for the bench
      harness.
    """

    name = "replication"

    def __init__(self):
        self._log: Deque[DecidedBatch] = deque()  # retained, from _base on
        self._base = 0           # sequence of _log[0]; below it: released
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
            self._gauge_lag.set(self.decided - self._stream_cursor)

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

    @property
    def decided(self) -> int:
        """Batches decided so far (released ones included)."""
        return self._base + len(self._log)

    @property
    def base(self) -> int:
        """The compaction watermark: the first retained sequence."""
        return self._base

    def committed_stream(self) -> Iterator[DecidedBatch]:
        """Yield decided batches this consumer has not seen yet."""
        self._refresh()
        while self._stream_cursor < self.decided:
            batch = self._log[self._stream_cursor - self._base]
            self._stream_cursor += 1
            started = self._propose_starts.pop(batch.sequence, None)
            if self._tmr_decide is not None:
                if started is not None:
                    self._tmr_decide.record(self._wall.now() - started)
                self._ctr_decided.add()
                self._note_lag()
            yield batch

    def catch_up(self, from_sequence: int = 0) -> List[DecidedBatch]:
        """The retained log from ``from_sequence`` on — the resync path
        for a replica rejoining after a crash."""
        self._refresh()
        if from_sequence < 0:
            raise ProtocolError("catch_up needs a non-negative sequence")
        if from_sequence < self._base:
            raise LogCompactedError(
                f"{self.name}: batches below {self._base} are compacted; "
                f"cannot replay from {from_sequence}"
            )
        return list(islice(self._log, from_sequence - self._base, None))

    def compact(self, upto: int) -> int:
        """Release every delivered batch below sequence ``upto`` (the
        consumer applied it wherever it could still be needed); returns
        how many were released.  O(batches released)."""
        upto = min(upto, self._stream_cursor)
        released = max(0, upto - self._base)
        for _ in range(released):
            self._log.popleft()
        self._base += released
        return released

    def stats(self) -> dict:
        """Ordering statistics for the bench harness."""
        return {
            "driver": self.name,
            "proposed": self._proposed,
            "decided": self.decided,
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

    def encode_batch(self, updates: Sequence) -> dict:
        return {"updates": list(updates)}

    def decode_batch(self, payload: dict) -> list:
        return list(payload["updates"])

    def _order(self, key: str, payload) -> int:
        sequence = self.decided
        self._log.append(DecidedBatch(sequence, payload))
        return sequence


class _ClusterDriver(ReplicationDriver):
    """Shared machinery for drivers backed by a simulated cluster.

    Proposals are wrapped as ``{"rep": "<origin>:<counter>", "payload":
    ...}`` so the committed prefix can be de-duplicated (loss-driven
    retransmits may decide a command in two slots) and protocol filler
    (PBFT view change no-ops, equivocation decoys) filtered out.
    ``propose`` makes up to ``_MAX_ATTEMPTS`` attempts on a lossy
    network, re-driving stuck slots via :meth:`_recover_pending`
    between them.  Each retained batch remembers the cluster slot just
    past it, so :meth:`compact` can release the cluster's slots too.
    """

    # subclasses provide: _submit(wrapped), _run(), and ``self.cluster``
    # with committed_since(slot) / compact(slot); optionally
    # _recover_pending().

    def __init__(self):
        super().__init__()
        self._raw_cursor = 0      # next cluster slot to read
        self._slot_ends: Deque[int] = deque()  # per retained batch
        self._last_counter = -1   # highest proposal counter decided

    def _recover_pending(self) -> None:
        """Hook between retry attempts (e.g. Paxos slot re-drive)."""

    def _order(self, key: str, payload) -> int:
        wrapped = {"rep": key, "payload": payload}
        counter = int(key.rpartition(":")[2])
        for attempt in range(_MAX_ATTEMPTS):
            if attempt > 0:
                self._recover_pending()
                self._refresh()
                if self._last_counter == counter:
                    return self.decided - 1
            self._submit(wrapped)
            self._run()
            self._refresh()
            if self._last_counter == counter:
                return self.decided - 1
        raise ProtocolError(
            f"{self.name}: batch {key} not decided after "
            f"{_MAX_ATTEMPTS} attempts"
        )

    def _extract(self, value) -> Tuple[Optional[str], Any]:
        """A committed cluster value → (proposal key, payload), or
        ``(None, None)`` for filler the stream must skip."""
        if isinstance(value, dict) and "rep" in value:
            return value["rep"], value["payload"]
        return None, None

    def _refresh(self) -> None:
        for value in self.cluster.committed_since(self._raw_cursor):
            self._raw_cursor += 1
            key, payload = self._extract(value)
            if key is None:
                continue
            origin, _, counter = key.rpartition(":")
            # One proposal in flight at a time: a counter at or below
            # the highest decided one is a retransmit decided again.
            if origin != self._origin or int(counter) <= self._last_counter:
                continue
            self._last_counter = int(counter)
            self._log.append(DecidedBatch(self.decided, payload))
            self._slot_ends.append(self._raw_cursor)

    def compact(self, upto: int) -> int:
        released = super().compact(upto)
        if released:
            for _ in range(released - 1):
                self._slot_ends.popleft()
            self.cluster.compact(self._slot_ends.popleft())
        return released

    def _submit(self, wrapped: dict) -> None:
        raise NotImplementedError

    def _run(self) -> None:
        raise NotImplementedError


def _build_network(network, profile, metrics, tracer) -> SimNetwork:
    if network is not None:
        return network
    return network_profile(profile).build(metrics=metrics, tracer=tracer)


class PaxosDriver(_ClusterDriver):
    """Ordering via multi-decree Paxos (crash fault tolerance)."""

    name = "paxos"

    def __init__(self, nodes: int = 3, network: Optional[SimNetwork] = None,
                 profile="lan", metrics=None, tracer=None):
        super().__init__()
        from repro.consensus.paxos import PaxosCluster

        net = _build_network(network, profile, metrics, tracer)
        self.cluster = PaxosCluster(n=nodes, network=net,
                                    name_prefix=f"paxos-{self._origin}")

    def _submit(self, wrapped: dict) -> None:
        self.cluster.submit(wrapped)

    def _run(self) -> None:
        self.cluster.run()

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
                 profile="lan", metrics=None, tracer=None):
        super().__init__()
        from repro.consensus.pbft import PBFTCluster

        net = _build_network(network, profile, metrics, tracer)
        self.cluster = PBFTCluster(f=f, network=net,
                                   name_prefix=f"pbft-{self._origin}",
                                   view_timeout=_PBFT_VIEW_TIMEOUT)

    def _submit(self, wrapped: dict) -> None:
        self.cluster.submit(wrapped)

    def _run(self) -> None:
        self.cluster.run()

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
                 metrics=None, tracer=None):
        super().__init__()
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
                             tracer=tracer)
    elif plan.kind == "pbft":
        driver = PbftDriver(f=plan.f, network=network, profile=plan.profile,
                            metrics=metrics, tracer=tracer)
    else:
        driver = SharperDriver(ledger=sharper_ledger, shard=sharper_shard,
                               f=plan.f, network=network,
                               profile=plan.profile, metrics=metrics,
                               tracer=tracer)
    driver.bind_observability(metrics, tracer)
    return driver
