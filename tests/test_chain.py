"""SharPer sharding and Qanaat collaborations."""

import pytest

from repro.chain.qanaat import QanaatNetwork
from repro.chain.sharper import ShardedLedger
from repro.common.errors import IntegrityError, PrivacyError, ProtocolError


# -- SharPer sharding ---------------------------------------------------------------

def test_intra_shard_transactions_commit():
    ledger = ShardedLedger(["s1", "s2"])
    for i in range(4):
        ledger.submit_intra("s1", {"i": i})
    ledger.run()
    assert ledger.committed_counts()["s1"] == 4


def test_cross_shard_commits_in_all_involved():
    ledger = ShardedLedger(["s1", "s2", "s3"])
    record = ledger.submit_cross(["s1", "s3"], {"xfer": 1})
    ledger.run()
    assert record.committed_at is not None
    assert record.latency > 0


def test_cross_shard_needs_two_shards():
    ledger = ShardedLedger(["s1", "s2"])
    with pytest.raises(ProtocolError):
        ledger.submit_cross(["s1"], {})


def test_unknown_shard_rejected():
    ledger = ShardedLedger(["s1"])
    with pytest.raises(ProtocolError):
        ledger.submit_intra("sX", {})


def test_cross_shard_latency_exceeds_intra_on_average():
    ledger = ShardedLedger(["s1", "s2"])
    intra = [
        ledger.shards["s1"].submit({"tx_id": f"i{i}", "payload": {}})
        for i in range(8)
    ]
    cross = [ledger.submit_cross(["s1", "s2"], {"x": i}) for i in range(8)]
    ledger.run()
    mean_intra = sum(r.latency for r in intra) / len(intra)
    mean_cross = sum(r.latency for r in cross) / len(cross)
    # A cross-shard commit waits for the slowest involved shard, so its
    # mean latency cannot beat the intra-shard mean.
    assert mean_cross >= mean_intra * 0.95


def test_throughput_counts_cross_once():
    ledger = ShardedLedger(["s1", "s2"])
    ledger.submit_intra("s1", {"i": 0})
    ledger.submit_cross(["s1", "s2"], {"x": 1})
    ledger.run()
    duration = ledger.network.clock.now()
    assert abs(ledger.throughput() - 2 / duration) < 1e-6


# -- Qanaat ---------------------------------------------------------------------------

def qanaat():
    network = QanaatNetwork({"A", "B", "C"})
    network.form_collaboration("AB", {"A", "B"})
    return network


def test_members_read_outsiders_cannot():
    network = qanaat()
    network.append("A", "AB", {"doc": 1})
    assert network.read("B", "AB") == [{"doc": 1}]
    with pytest.raises(PrivacyError):
        network.read("C", "AB")
    with pytest.raises(PrivacyError):
        network.append("C", "AB", {"doc": 2})


def test_visible_collaborations():
    network = qanaat()
    network.form_collaboration("BC", {"B", "C"})
    assert network.visible_collaborations("B") == ["AB", "BC"]
    assert network.visible_collaborations("A") == ["AB"]


def test_anchor_trail_grows_with_appends():
    network = qanaat()
    network.append("A", "AB", {"doc": 1})
    network.append("B", "AB", {"doc": 2})
    assert len(network.anchor_chain) == 2
    anchor = network.latest_anchor("AB")
    assert anchor.size == 2


def test_verification_against_anchor():
    network = qanaat()
    network.append("A", "AB", {"doc": 1})
    assert network.verify_collaboration("A", "AB")


def test_rollback_detected():
    network = qanaat()
    network.append("A", "AB", {"doc": 1})
    network.append("A", "AB", {"doc": 2})
    network.collaboration("AB").ledger.tamper_rewrite(0, {"doc": "evil"})
    assert not network.verify_collaboration("A", "AB")


def test_outsider_cannot_even_verify():
    network = qanaat()
    with pytest.raises(PrivacyError):
        network.verify_collaboration("C", "AB")


def test_unknown_enterprise_rejected():
    network = qanaat()
    with pytest.raises(IntegrityError):
        network.form_collaboration("AX", {"A", "X"})
