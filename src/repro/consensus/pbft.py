"""Practical Byzantine Fault Tolerance (Castro–Liskov), three phases.

n = 3f + 1 replicas tolerate f byzantine ones.  The primary of the
current view assigns sequence numbers and broadcasts PRE-PREPARE; each
replica broadcasts PREPARE; once a replica has the pre-prepare plus 2f
matching prepares it broadcasts COMMIT; with 2f + 1 matching commits it
executes.  Message complexity is O(n^2) per decree — the quadratic-vs-
linear gap against Paxos is exactly what bench E9 measures.

View change: replicas start a timer per pending request; on expiry they
broadcast VIEW-CHANGE for view v+1; the new primary collects 2f + 1 and
broadcasts NEW-VIEW, re-proposing prepared-but-unexecuted requests.

Byzantine hooks used by the tests: ``silence()`` (crash-style) and
``equivocate = True`` on a primary (sends conflicting pre-prepares to
different replicas; honest replicas' prepare phase then cannot gather a
quorum for either value, so safety holds and the view change fires).
"""

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import ProtocolError
from repro.crypto.hashing import digest_canonical
from repro.consensus.base import (
    ClusterStats,
    ConsensusResult,
    DecisionLog,
    compute_stats,
)
from repro.net.simnet import Message, Node, SimNetwork


def _digest(value: Any) -> str:
    return digest_canonical(value)


class PBFTNode(Node):
    def __init__(self, name: str, index: int, peers: List[str], f: int,
                 view_timeout: float = 1.0):
        super().__init__(name)
        self.index = index
        self.peers = peers
        self.n = len(peers)
        self.f = f
        self.view = 0
        self.next_seq = 0
        self.view_timeout = view_timeout
        # seq -> (view, digest) for accepted pre-prepares; digests/value store
        self.pre_prepares: Dict[int, Tuple[int, str]] = {}
        self.values: Dict[str, Any] = {}
        self.prepares: Dict[Tuple[int, int, str], Set[str]] = {}
        self.commits: Dict[Tuple[int, int, str], Set[str]] = {}
        self.prepared: Set[int] = set()
        self.log = DecisionLog()
        self.on_decide = None
        self.crashed = False
        self.equivocate = False
        self.view_change_votes: Dict[int, Set[str]] = {}
        self._view_change_certs: Dict[int, Dict[int, dict]] = {}
        self._request_timers: Dict[str, int] = {}
        self._pending_requests: Dict[str, Any] = {}

    # -- helpers -------------------------------------------------------------

    @property
    def primary_name(self) -> str:
        return self.peers[self.view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_name == self.name

    def silence(self) -> None:
        self.crashed = True

    # -- client entry ----------------------------------------------------------

    def client_request(self, value: Any) -> None:
        digest = _digest(value)
        self._pending_requests[digest] = value
        self.values[digest] = value
        if self.is_primary and not self.crashed:
            self._assign_and_preprepare(value, digest)
        # All replicas arm a view-change timer for the request.
        timer = self.set_timer(
            self.view_timeout, lambda d=digest: self._request_expired(d)
        )
        self._request_timers[digest] = timer

    def _assign_and_preprepare(self, value: Any, digest: str) -> None:
        seq = self.next_seq
        self.next_seq += 1
        if self.equivocate:
            # Byzantine primary: conflicting values to the two halves.
            fake = {"equivocation": digest}
            fake_digest = _digest(fake)
            self.values[fake_digest] = fake
            half = self.n // 2
            for i, peer in enumerate(self.peers):
                chosen, chosen_digest = (
                    (value, digest) if i < half else (fake, fake_digest)
                )
                self.send(peer, "pre_prepare", {
                    "view": self.view, "seq": seq,
                    "digest": chosen_digest, "value": chosen,
                })
            return
        for peer in self.peers:
            self.send(peer, "pre_prepare", {
                "view": self.view, "seq": seq, "digest": digest, "value": value,
            })

    # -- message handling --------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if self.crashed:
            return
        handler = getattr(self, f"_on_{message.kind}", None)
        if handler is None:
            raise ProtocolError(f"pbft: unknown message kind {message.kind!r}")
        handler(message)

    def _on_pre_prepare(self, message: Message) -> None:
        body = message.body
        if body["view"] != self.view:
            return
        if message.src != self.primary_name:
            return  # only the primary may pre-prepare
        seq, digest = body["seq"], body["digest"]
        existing = self.pre_prepares.get(seq)
        if (
            existing is not None
            and existing[0] == self.view
            and existing != (self.view, digest)
        ):
            return  # conflicting same-view pre-prepare (equivocation defense)
        self.pre_prepares[seq] = (self.view, digest)
        self.values[digest] = body["value"]
        for peer in self.peers:
            self.send(peer, "prepare", {
                "view": self.view, "seq": seq, "digest": digest,
            })

    def _on_prepare(self, message: Message) -> None:
        body = message.body
        key = (body["view"], body["seq"], body["digest"])
        votes = self.prepares.setdefault(key, set())
        votes.add(message.src)
        self._maybe_commit(body["view"], body["seq"], body["digest"])

    def _maybe_commit(self, view: int, seq: int, digest: str) -> None:
        if view != self.view or seq in self.prepared:
            return
        if self.pre_prepares.get(seq) != (view, digest):
            return
        votes = self.prepares.get((view, seq, digest), set())
        if len(votes) >= 2 * self.f:
            self.prepared.add(seq)
            for peer in self.peers:
                self.send(peer, "commit", {
                    "view": view, "seq": seq, "digest": digest,
                })

    def _on_commit(self, message: Message) -> None:
        body = message.body
        key = (body["view"], body["seq"], body["digest"])
        votes = self.commits.setdefault(key, set())
        votes.add(message.src)
        if len(votes) >= 2 * self.f + 1 and self.log.get(body["seq"]) is None:
            value = self.values.get(body["digest"])
            if value is None:
                return  # haven't seen the payload yet; commit msgs will re-fire
            if self.log.decide(body["seq"], value) and self.on_decide:
                self.on_decide(body["seq"], value)
            self._clear_request_timer(body["digest"])

    def _clear_request_timer(self, digest: str) -> None:
        timer = self._request_timers.pop(digest, None)
        if timer is not None:
            self.cancel_timer(timer)
        self._pending_requests.pop(digest, None)

    # -- view change ----------------------------------------------------------

    def _request_expired(self, digest: str) -> None:
        if self.crashed or digest not in self._pending_requests:
            return
        new_view = self.view + 1
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.event(
                "pbft.view_change",
                timestamp=self.now(),
                node=self.name,
                view=self.view,
                new_view=new_view,
                request_digest=digest[:16],
            )
        certificates = self._prepared_certificates()
        for peer in self.peers:
            self.send(peer, "view_change", {
                "new_view": new_view, "prepared": certificates,
            })

    def _prepared_certificates(self) -> List[dict]:
        """Prepared-but-unexecuted (seq, view, digest, value) tuples —
        the new primary must re-propose these at the same sequence
        numbers (PBFT's safety rule across views)."""
        certs = []
        for seq in self.prepared:
            if self.log.get(seq) is not None:
                continue
            entry = self.pre_prepares.get(seq)
            if entry is None:
                continue
            view, digest = entry
            certs.append({
                "seq": seq, "view": view, "digest": digest,
                "value": self.values.get(digest),
            })
        return certs

    def _on_view_change(self, message: Message) -> None:
        new_view = message.body["new_view"]
        if new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, set())
        votes.add(message.src)
        certs = self._view_change_certs.setdefault(new_view, {})
        for cert in message.body.get("prepared", []):
            seq = cert["seq"]
            if seq not in certs or cert["view"] > certs[seq]["view"]:
                certs[seq] = cert
        new_primary = self.peers[new_view % self.n]
        if new_primary == self.name and len(votes) >= 2 * self.f + 1:
            for peer in self.peers:
                self.send(peer, "new_view", {"view": new_view})

    def _on_new_view(self, message: Message) -> None:
        new_view = message.body["view"]
        if message.src != self.peers[new_view % self.n] or new_view <= self.view:
            return
        self.view = new_view
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.event(
                "pbft.new_view",
                timestamp=self.now(),
                node=self.name,
                view=new_view,
                primary=self.primary_name,
            )
        self.prepared = {s for s in self.prepared if self.log.get(s) is not None}
        if self.is_primary and not self.crashed:
            certs = self._view_change_certs.get(new_view, {})
            highest = max(
                [s for s in self.pre_prepares]
                + [s for s in certs]
                + [len(self.log) - 1, self.next_seq - 1]
            )
            # Slots: re-propose prepared certificates at their original
            # sequence numbers; fill other undecided slots with pending
            # client requests, then no-ops.
            pending = [
                (digest, value)
                for digest, value in self._pending_requests.items()
                if not any(c["digest"] == digest for c in certs.values())
            ]
            self.next_seq = highest + 1
            for seq in range(0, highest + 1):
                if self.log.get(seq) is not None:
                    continue
                if seq in certs:
                    cert = certs[seq]
                    self.values[cert["digest"]] = cert["value"]
                    self._preprepare_at(seq, cert["value"], cert["digest"])
                elif pending:
                    digest, value = pending.pop(0)
                    self._preprepare_at(seq, value, digest)
                else:
                    noop = {"noop": seq, "view": new_view}
                    self._preprepare_at(seq, noop, _digest(noop))
            for digest, value in pending:
                self._assign_and_preprepare(value, digest)

    def _preprepare_at(self, seq: int, value: Any, digest: str) -> None:
        self.values[digest] = value
        for peer in self.peers:
            self.send(peer, "pre_prepare", {
                "view": self.view, "seq": seq, "digest": digest, "value": value,
            })


class PBFTCluster:
    """3f+1 replica group with submit/committed interface."""

    def __init__(self, f: int = 1, network: Optional[SimNetwork] = None,
                 name_prefix: str = "pbft", view_timeout: float = 1.0):
        if f < 1:
            raise ProtocolError("PBFT needs f >= 1 (n = 4)")
        self.f = f
        self.n = 3 * f + 1
        self.network = network or SimNetwork()
        self.names = [f"{name_prefix}-{i}" for i in range(self.n)]
        self.nodes: List[PBFTNode] = []
        for i, name in enumerate(self.names):
            node = PBFTNode(name, i, self.names, f, view_timeout=view_timeout)
            node.on_decide = self._make_recorder(i)
            self.network.add_node(node)
            self.nodes.append(node)
        self._results: List[ConsensusResult] = []
        self._by_digest: Dict[str, ConsensusResult] = {}
        self._decide_counts: Dict[int, Set[int]] = {}
        self._request_spans: Dict[str, Any] = {}

    def _make_recorder(self, node_index: int):
        def record(seq: int, value: Any) -> None:
            # A command counts as decided when f+1 replicas executed it
            # (at least one honest replica).
            voters = self._decide_counts.setdefault(seq, set())
            voters.add(node_index)
            if len(voters) == self.f + 1:
                digest = _digest(value)
                result = self._by_digest.get(digest)
                if result is not None and result.decided_at is None:
                    result.sequence = seq
                    result.decided_at = self.network.clock.now()
                span = self._request_spans.pop(digest, None)
                if span is not None:
                    span.set_attribute("seq", seq)
                    span.end(self.network.clock.now())
        return record

    def submit(self, value: Any) -> ConsensusResult:
        result = ConsensusResult(
            value=value, sequence=-1, submitted_at=self.network.clock.now()
        )
        self._results.append(result)
        digest = _digest(value)
        self._by_digest[digest] = result
        tracer = self.network.tracer
        if tracer.enabled:
            # One span per decree, open from client submission until
            # f+1 replicas executed; view changes show up as events on
            # the same simulated timeline.
            self._request_spans[digest] = tracer.start_trace(
                "pbft.request",
                start_time=self.network.clock.now(),
                attributes={"digest": digest[:16], "n": self.n, "f": self.f},
            )
        # The client broadcasts to all replicas (standard PBFT: request
        # goes to the primary, but replicas need it to detect primary
        # failure; broadcasting models that without a separate relay).
        for node in self.nodes:
            node.client_request(value)
        return result

    def run(self, until: Optional[float] = None) -> None:
        self.network.run(until=until)

    def committed(self) -> List[Any]:
        """Gap-free prefix agreed by at least f+1 replicas."""
        return self.committed_since(0)

    def committed_since(self, start: int) -> List[Any]:
        """That prefix from slot ``start`` on: the (f+1)-th longest
        node prefix, read without rebuilding it from slot 0."""
        ranked = sorted(self.nodes, key=lambda node: node.log.prefix_end,
                        reverse=True)
        return ranked[self.f].log.committed_since(start)

    def compact(self, upto: int) -> None:
        """No-op: releasing PBFT slot state safely needs 2f+1 checkpoint
        certificates, so PBFT nodes keep every slot."""

    def stats(self) -> ClusterStats:
        return compute_stats(
            self._results,
            sim_duration=self.network.clock.now(),
            messages=self.network.message_count,
        )
