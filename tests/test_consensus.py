"""Paxos and PBFT: agreement, ordering, fault tolerance, view changes."""

import pytest

from repro.common.errors import LogCompactedError, ProtocolError
from repro.consensus.base import DecisionLog
from repro.consensus.paxos import PaxosCluster
from repro.consensus.pbft import PBFTCluster
from repro.net.simnet import Message


# -- shared machinery ---------------------------------------------------------

def test_decision_log_prefix_and_conflicts():
    log = DecisionLog()
    assert log.decide(0, "a") is True
    assert log.decide(0, "a") is False  # idempotent
    log.decide(2, "c")
    assert log.committed_prefix() == ["a"]  # gap at 1
    log.decide(1, "b")
    assert log.committed_prefix() == ["a", "b", "c"]
    with pytest.raises(ProtocolError):
        log.decide(0, "different")


def test_decision_log_compaction_keeps_a_fingerprint_per_slot():
    log = DecisionLog()
    for slot, value in enumerate("abc"):
        log.decide(slot, value)
    log.compact(2)
    assert log.base == 2 and len(log) == 1
    assert log.committed_prefix() == log.committed_since(2) == ["c"]
    assert log.decide(0, "a") is False  # a late repeat changes nothing
    with pytest.raises(ProtocolError, match="compacted slot 1"):
        log.decide(1, "different")
    with pytest.raises(LogCompactedError):
        log.committed_since(1)
    log.compact(4)  # past the prefix: slot 3 was never learned here
    assert log.committed_since(4) == [] and log.decide(3, "any") is False


# -- Paxos ----------------------------------------------------------------------


def test_paxos_compaction_watermark_rules():
    """Below a node's watermark an ACCEPT changes nothing and sends
    nothing, a repeated DECIDE is ignored and a conflicting one fails
    closed; PROMISE carries the watermark, so a new leader continues
    above it."""
    cluster = PaxosCluster(n=3)
    for i in range(4):
        cluster.submit({"op": i})
    cluster.run()
    cluster.compact(3)
    follower = cluster.nodes[1]
    assert follower.log.base == 3 and sorted(follower.accepted) == [3]
    assert not set(cluster.leader.proposals) - {3}
    assert not set(cluster.leader.accept_counts) - {3}
    sent = cluster.network.message_count
    leader = cluster.leader.name
    follower.on_message(Message(leader, follower.name, "accept", {
        "ballot": cluster.leader.ballot, "slot": 1, "value": {"op": "x"}}))
    assert 1 not in follower.accepted
    assert cluster.network.message_count == sent
    follower.on_message(Message(leader, follower.name, "decide",
                                {"slot": 1, "value": {"op": 1}}))
    with pytest.raises(ProtocolError, match="compacted slot 1"):
        follower.on_message(Message(leader, follower.name, "decide",
                                    {"slot": 1, "value": {"op": "x"}}))
    cluster.elect(2)
    assert cluster.leader.is_leader and cluster.leader.log.base == 3
    cluster.submit({"op": 4})
    cluster.run()
    assert cluster.committed_since(3) == [{"op": 3}, {"op": 4}]

def test_paxos_orders_all_commands():
    cluster = PaxosCluster(n=5)
    for i in range(25):
        cluster.submit({"op": i})
    cluster.run()
    assert [v["op"] for v in cluster.committed()] == list(range(25))


def test_paxos_all_nodes_agree():
    cluster = PaxosCluster(n=5)
    for i in range(10):
        cluster.submit({"op": i})
    cluster.run()
    prefixes = [n.log.committed_prefix() for n in cluster.nodes]
    assert all(p == prefixes[0] for p in prefixes)


def test_paxos_tolerates_minority_crashes():
    cluster = PaxosCluster(n=5)
    cluster.crash(3)
    cluster.crash(4)
    for i in range(5):
        cluster.submit({"op": i})
    cluster.run()
    assert len(cluster.committed()) == 5


def test_paxos_leader_failover_preserves_decisions():
    cluster = PaxosCluster(n=5)
    cluster.submit({"op": "pre"})
    cluster.run()
    cluster.crash(0)
    cluster.elect(1)
    cluster.submit({"op": "post"})
    cluster.run()
    values = [v["op"] for v in cluster.committed()]
    assert "pre" in values and "post" in values


def test_paxos_stats():
    cluster = PaxosCluster(n=5)
    for i in range(10):
        cluster.submit({"op": i})
    cluster.run()
    stats = cluster.stats()
    assert stats.decided == 10
    assert stats.throughput > 0
    assert stats.mean_latency > 0
    assert stats.p95_latency >= stats.mean_latency * 0.5


def test_paxos_minimum_size():
    with pytest.raises(ProtocolError):
        PaxosCluster(n=2)


# -- PBFT --------------------------------------------------------------------------

def test_pbft_orders_all_commands():
    cluster = PBFTCluster(f=1)
    for i in range(15):
        cluster.submit({"tx": i})
    cluster.run()
    assert len(cluster.committed()) == 15


def test_pbft_honest_replicas_agree():
    cluster = PBFTCluster(f=1)
    for i in range(8):
        cluster.submit({"tx": i})
    cluster.run()
    prefixes = [n.log.committed_prefix() for n in cluster.nodes]
    shortest = min(len(p) for p in prefixes)
    for i in range(shortest):
        assert len({str(p[i]) for p in prefixes}) == 1


def test_pbft_tolerates_f_silent_replicas():
    cluster = PBFTCluster(f=1)
    cluster.nodes[2].silence()
    for i in range(5):
        cluster.submit({"tx": i})
    cluster.run()
    assert len(cluster.committed()) == 5


def test_pbft_fails_beyond_f_crashes():
    cluster = PBFTCluster(f=1, view_timeout=0.2)
    cluster.nodes[2].silence()
    cluster.nodes[3].silence()
    cluster.submit({"tx": "x"})
    cluster.run(until=5.0)
    assert cluster.committed() == []  # no quorum possible


def test_pbft_view_change_on_primary_failure():
    cluster = PBFTCluster(f=1, view_timeout=0.5)
    cluster.nodes[0].silence()  # primary of view 0
    cluster.submit({"tx": "x"})
    cluster.run()
    assert {str(v) for v in cluster.committed()} >= {str({"tx": "x"})}
    live_views = {n.view for n in cluster.nodes[1:]}
    assert live_views == {1}


def test_pbft_equivocating_primary_is_safe():
    cluster = PBFTCluster(f=1, view_timeout=0.5)
    cluster.nodes[0].equivocate = True
    cluster.submit({"tx": "y"})
    cluster.run()
    # Safety: no slot decided differently by honest replicas.
    for slot in range(3):
        decided = {
            str(n.log.get(slot))
            for n in cluster.nodes[1:]
            if n.log.get(slot) is not None
        }
        assert len(decided) <= 1
    # Liveness: the client request eventually commits after view change.
    assert any(v == {"tx": "y"} for v in cluster.committed())


def test_pbft_message_complexity_quadratic_vs_paxos():
    """The Section-6 comparison in miniature: PBFT uses ~O(n^2)
    messages per decree, Paxos ~O(n)."""
    paxos = PaxosCluster(n=7)
    for i in range(10):
        paxos.submit({"op": i})
    paxos.run()
    pbft = PBFTCluster(f=2)  # also 7 nodes
    for i in range(10):
        pbft.submit({"tx": i})
    pbft.run()
    paxos_msgs = paxos.stats().messages
    pbft_msgs = pbft.stats().messages
    assert pbft_msgs > 2 * paxos_msgs


def test_pbft_minimum_f():
    with pytest.raises(ProtocolError):
        PBFTCluster(f=0)


# -- percentile correctness (shared nearest-rank helper) ---------------------

def test_nearest_rank_percentile_boundaries():
    """The nearest-rank definition, pinned at its boundary cases: the
    p95 of 20 ordered samples is the 19th (rank ceil(0.95*20)=19), not
    an interpolated or off-by-one neighbor."""
    from repro.common.metrics import nearest_rank

    samples = list(range(1, 21))  # 1..20
    assert nearest_rank(samples, 95) == 19
    assert nearest_rank(samples, 50) == 10
    assert nearest_rank(samples, 99) == 20
    assert nearest_rank(samples, 100) == 20
    assert nearest_rank(samples, 0) == 1
    assert nearest_rank([7.0], 95) == 7.0
    assert nearest_rank([], 95) == 0.0
    # Unsorted input is ordered first.
    assert nearest_rank([3, 1, 2], 50) == 2


def test_cluster_stats_percentiles_nearest_rank():
    """ClusterStats p50/p95/p99 all come from the shared helper —
    p95 over 10 decisions is the 10th-largest-rank sample, and the
    quantiles are monotone."""
    from repro.common.metrics import nearest_rank

    cluster = PaxosCluster(n=3)
    for i in range(10):
        cluster.submit({"op": i})
    cluster.run()
    stats = cluster.stats()
    assert stats.p50_latency <= stats.p95_latency <= stats.p99_latency
    d = stats.to_dict()
    assert {"p50_latency", "p95_latency", "p99_latency"} <= set(d)
    assert d["p95_latency"] == stats.p95_latency
    assert nearest_rank([d["p95_latency"]], 95) == d["p95_latency"]


def test_decision_log_decide_contract_matches_docstring():
    """Pin the documented contract: True on first decision, False on an
    idempotent re-decision, ProtocolError (fail-closed) on a
    conflicting one — the docstring says exactly this."""
    log = DecisionLog()
    assert log.decide(5, {"v": 1}) is True
    assert log.decide(5, {"v": 1}) is False
    with pytest.raises(ProtocolError):
        log.decide(5, {"v": 2})
    doc = DecisionLog.decide.__doc__
    assert "ProtocolError" in doc
    assert "False" in doc and "True" in doc
