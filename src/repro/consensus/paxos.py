"""Multi-decree Paxos with a stable leader.

The classic optimization for state-machine replication: the leader runs
Phase 1 (prepare/promise) once for its ballot across all instances,
then each client command costs one Phase-2 round (accept/accepted) plus
a decide broadcast — 3n messages per decree, linear in cluster size,
versus PBFT's quadratic prepare/commit.  Crash faults only: a minority
of acceptors may fail-stop and progress continues; there is no defense
against byzantine nodes (that comparison is the point of bench E9).

Leader failure is handled by ballot takeover: calling
``cluster.elect(node)`` makes that node run Phase 1 with a higher
ballot; promises carry previously accepted values which the new leader
re-proposes, preserving safety.

Log compaction: ``cluster.compact(slot)`` releases every slot below
``slot`` (decided, and applied by every state-machine replica that may
still need it) from acceptor, leader and learner state on each live
node, locally — it sends no message.  Each node remembers its
watermark: an ACCEPT or DECIDE below it changes nothing (a conflicting
DECIDE still fails closed on the slot's fingerprint), and PROMISE
carries it, so a new leader never assigns a slot below the highest
watermark in its quorum.
"""

from array import array
from typing import Any, Dict, List, Optional

from repro.common.errors import ProtocolError
from repro.consensus.base import (
    ClusterStats,
    ConsensusResult,
    DecisionLog,
    latency_stats,
)
from repro.net.simnet import Message, Node, SimNetwork


class PaxosNode(Node):
    """Acts as proposer (when leader), acceptor, and learner."""

    def __init__(self, name: str, peers: List[str], quorum: int):
        super().__init__(name)
        self.peers = peers
        self.quorum = quorum
        # Acceptor state.
        self.promised_ballot = -1
        self.accepted: Dict[int, tuple] = {}  # slot -> (ballot, value)
        # Proposer (leader) state.
        self.is_leader = False
        self.ballot = -1
        self.next_slot = 0
        self.promises: Dict[int, List[dict]] = {}  # ballot -> promise msgs
        self.pending: List[Any] = []  # commands awaiting leadership
        self.accept_counts: Dict[int, set] = {}  # slot -> acceptor names
        self.proposals: Dict[int, Any] = {}  # slot -> value being proposed
        # Learner state.
        self.log = DecisionLog()
        self.on_decide = None  # optional callback(slot, value)
        self.crashed = False

    # -- client entry point ------------------------------------------------

    def client_request(self, value: Any) -> None:
        if not self.is_leader:
            self.pending.append(value)
            return
        self._propose(value)

    def compact(self, upto: int) -> None:
        """Release every slot below ``upto`` from this node's acceptor,
        leader and learner state; O(slots released)."""
        for slot in range(self.log.base, upto):
            self.accepted.pop(slot, None)
            self.proposals.pop(slot, None)
            self.accept_counts.pop(slot, None)
        self.log.compact(upto)
        self.next_slot = max(self.next_slot, upto)

    def _propose(self, value: Any) -> None:
        slot = self.next_slot
        self.next_slot += 1
        self.proposals[slot] = value
        self.accept_counts.setdefault(slot, set())
        for peer in self.peers:
            self.send(peer, "accept", {"ballot": self.ballot, "slot": slot,
                                       "value": value})

    def retry_pending(self) -> int:
        """Re-broadcast ACCEPTs for proposed-but-undecided slots.

        Classic Paxos assumes fair-lossy links and retransmits; the
        simulator's leader fires this explicitly when a lossy network
        profile ate part of a Phase-2 round, so a stuck slot cannot gap
        the committed prefix forever.  Returns the number of slots
        re-driven.  Safe to call any time: acceptors treat a repeated
        ACCEPT for the same ballot idempotently.
        """
        if not self.is_leader:
            return 0
        retried = 0
        for slot, value in sorted(self.proposals.items()):
            if self.log.get(slot) is not None:
                continue
            retried += 1
            for peer in self.peers:
                self.send(peer, "accept", {"ballot": self.ballot,
                                           "slot": slot, "value": value})
        return retried

    # -- leadership ----------------------------------------------------------

    def start_election(self, ballot: int) -> None:
        self.ballot = ballot
        self.promises[ballot] = []
        for peer in self.peers:
            self.send(peer, "prepare", {"ballot": ballot})

    # -- message handling -----------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.crashed:
            return
        handler = getattr(self, f"_on_{message.kind}", None)
        if handler is None:
            raise ProtocolError(f"paxos: unknown message kind {message.kind!r}")
        handler(message)

    def _on_prepare(self, message: Message) -> None:
        ballot = message.body["ballot"]
        if ballot > self.promised_ballot:
            self.promised_ballot = ballot
            self.send(
                message.src,
                "promise",
                {
                    "ballot": ballot,
                    "watermark": self.log.base,
                    "accepted": {
                        str(slot): [b, v] for slot, (b, v) in self.accepted.items()
                    },
                },
            )

    def _on_promise(self, message: Message) -> None:
        ballot = message.body["ballot"]
        if ballot != self.ballot:
            return
        bucket = self.promises.setdefault(ballot, [])
        bucket.append(message.body)
        if len(bucket) == self.quorum:
            self._become_leader(bucket)

    def _become_leader(self, promises: List[dict]) -> None:
        self.is_leader = True
        # Slots below any quorum member's watermark are decided and
        # applied everywhere: release them here too, never reassign them.
        self.compact(max(promise["watermark"] for promise in promises))
        # Adopt the highest-ballot accepted value per slot (safety rule).
        adopted: Dict[int, tuple] = {}
        for promise in promises:
            for slot_text, (ballot, value) in promise["accepted"].items():
                slot = int(slot_text)
                if slot < self.log.base:
                    continue
                if slot not in adopted or ballot > adopted[slot][0]:
                    adopted[slot] = (ballot, value)
        for slot, (_, value) in sorted(adopted.items()):
            self.proposals[slot] = value
            self.accept_counts.setdefault(slot, set())
            self.next_slot = max(self.next_slot, slot + 1)
            for peer in self.peers:
                self.send(peer, "accept", {"ballot": self.ballot, "slot": slot,
                                           "value": value})
        # Drain commands queued while campaigning.
        pending, self.pending = self.pending, []
        for value in pending:
            self._propose(value)

    def _on_accept(self, message: Message) -> None:
        ballot = message.body["ballot"]
        slot = message.body["slot"]
        if slot < self.log.base:
            return
        if ballot >= self.promised_ballot:
            self.promised_ballot = ballot
            self.accepted[slot] = (ballot, message.body["value"])
            self.send(message.src, "accepted", {"ballot": ballot, "slot": slot})

    def _on_accepted(self, message: Message) -> None:
        ballot = message.body["ballot"]
        slot = message.body["slot"]
        if ballot != self.ballot or not self.is_leader or slot < self.log.base:
            return
        voters = self.accept_counts.setdefault(slot, set())
        voters.add(message.src)
        if len(voters) == self.quorum:
            value = self.proposals[slot]
            for peer in self.peers:
                self.send(peer, "decide", {"slot": slot, "value": value})
            self._learn(slot, value)

    def _on_decide(self, message: Message) -> None:
        self._learn(message.body["slot"], message.body["value"])

    def _learn(self, slot: int, value: Any) -> None:
        if self.log.decide(slot, value) and self.on_decide is not None:
            self.on_decide(slot, value)


class PaxosCluster:
    """n-node Paxos group with a submit/committed interface."""

    def __init__(self, n: int = 5, network: Optional[SimNetwork] = None,
                 name_prefix: str = "paxos"):
        if n < 3:
            raise ProtocolError("Paxos needs at least 3 nodes for one failure")
        self.network = network or SimNetwork()
        self.names = [f"{name_prefix}-{i}" for i in range(n)]
        quorum = n // 2 + 1
        self.nodes: List[PaxosNode] = []
        for name in self.names:
            node = PaxosNode(name, peers=self.names, quorum=quorum)
            node.on_decide = self._record_decide
            self.network.add_node(node)
            self.nodes.append(node)
        # Stats stay exact and bounded: every decided command's latency
        # as one float, plus the results still awaiting a decision.
        self._submitted = 0
        self._latencies = array("d")
        self._pending: Dict[str, ConsensusResult] = {}
        self._request_spans: Dict[str, Any] = {}
        self.leader = self.nodes[0]
        self.leader.start_election(ballot=1)
        self.network.run()

    def _record_decide(self, slot: int, value: Any) -> None:
        key = _value_key(value)
        result = self._pending.pop(key, None)
        if result is not None:
            result.sequence = slot
            result.decided_at = self.network.clock.now()
            self._latencies.append(result.latency)
        span = self._request_spans.pop(key, None)
        if span is not None:
            span.set_attribute("slot", slot)
            span.end(self.network.clock.now())

    def submit(self, value: Any) -> ConsensusResult:
        result = ConsensusResult(
            value=value, sequence=-1, submitted_at=self.network.clock.now()
        )
        self._submitted += 1
        key = _value_key(value)
        self._pending[key] = result
        tracer = self.network.tracer
        if tracer.enabled:
            # One span per decree: client request until first decide.
            self._request_spans[key] = tracer.start_trace(
                "paxos.request",
                start_time=self.network.clock.now(),
                attributes={"leader": self.leader.name},
            )
        self.leader.client_request(value)
        return result

    def elect(self, index: int) -> None:
        """Fail over to another node with a higher ballot."""
        for node in self.nodes:
            node.is_leader = False
        self.leader = self.nodes[index]
        tracer = self.network.tracer
        span = None
        if tracer.enabled:
            span = tracer.start_trace(
                "paxos.election",
                start_time=self.network.clock.now(),
                attributes={"leader": self.leader.name},
            )
        self.leader.start_election(ballot=self.leader.promised_ballot + 1)
        self.network.run()
        if span is not None:
            span.set_attribute("ballot", self.leader.ballot)
            span.set_attribute("won", self.leader.is_leader)
            span.end(self.network.clock.now())

    def crash(self, index: int) -> None:
        self.nodes[index].crashed = True

    def run(self, until: Optional[float] = None) -> None:
        self.network.run(until=until)

    def retry_pending(self) -> int:
        """Re-drive Phase 2 for any stuck slots (lossy-link recovery);
        returns the number of slots re-broadcast."""
        retried = self.leader.retry_pending()
        if retried:
            self.network.run()
        return retried

    def committed(self) -> List[Any]:
        """The leader's retained gap-free prefix."""
        return self.leader.log.committed_prefix()

    def committed_since(self, start: int) -> List[Any]:
        """The leader's gap-free prefix from slot ``start`` on."""
        return self.leader.log.committed_since(start)

    def compact(self, upto: int) -> None:
        """Release every slot below ``upto`` on each live node.  Local
        to each node: no message, no clock read.  A crashed node keeps
        its state until a later call after it is back."""
        for node in self.nodes:
            if not node.crashed:
                node.compact(upto)

    def stats(self) -> ClusterStats:
        return latency_stats(
            self._latencies,
            total=self._submitted,
            sim_duration=self.network.clock.now(),
            messages=self.network.message_count,
        )


def _value_key(value: Any) -> str:
    """What matches a decided value to its submission: the replication
    driver's proposal key for its wrapped batches (so a batch payload
    is never re-rendered), ``repr`` for anything else."""
    if isinstance(value, dict) and isinstance(value.get("rep"), str):
        return value["rep"]
    return repr(value)
