"""Edge paths not covered by the module-focused suites."""

import pytest

from repro.common.metrics import MetricsRegistry, Timer
from repro.consensus.base import ClusterStats, ConsensusResult, compute_stats
from repro.crypto.paillier import generate_paillier_keypair
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.net.simnet import Message, Node, SimNetwork
from repro.privacy.dp import DPIndex, PrivacyAccountant


# -- metrics/statistics edges -------------------------------------------------

def test_timer_empty_statistics():
    timer = Timer("t")
    assert timer.mean == 0.0
    assert timer.percentile(95) == 0.0
    assert timer.to_dict()["max"] == 0.0


def test_compute_stats_empty():
    stats = compute_stats([], sim_duration=0.0, messages=0)
    assert stats.decided == 0
    assert stats.throughput == 0.0
    assert stats.mean_latency == 0.0


def test_compute_stats_undecided_results():
    results = [ConsensusResult(value=1, sequence=-1, submitted_at=0.0)]
    stats = compute_stats(results, sim_duration=5.0, messages=3)
    assert stats.total == 1 and stats.decided == 0


def test_consensus_result_latency_none_until_decided():
    result = ConsensusResult(value=1, sequence=0, submitted_at=1.0)
    assert result.latency is None
    result.decided_at = 3.0
    assert result.latency == 2.0


# -- network edges --------------------------------------------------------------

class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def test_broadcast_include_self():
    net = SimNetwork()
    node = Sink("solo")
    net.add_node(node)
    node.broadcast("hello", include_self=True)
    net.run()
    assert len(node.received) == 1


def test_message_to_unknown_node_is_dropped():
    net = SimNetwork()
    node = Sink("a")
    net.add_node(node)
    node.send("ghost", "hello")
    net.run()  # no crash
    assert node.received == []


def test_partitioned_node_not_in_any_group_is_unrestricted():
    net = SimNetwork()
    a, b = Sink("a"), Sink("b")
    net.add_node(a)
    net.add_node(b)
    net.partition({"b"})  # "a" belongs to no group
    a.send("b", "x")
    net.run()
    assert len(b.received) == 1


def test_per_message_cost_defers_but_delivers_all():
    net = SimNetwork(per_message_cost=0.01)
    a, b = Sink("a"), Sink("b")
    net.add_node(a)
    net.add_node(b)
    for _ in range(5):
        a.send("b", "x")
    net.run()
    assert len(b.received) == 5
    # Serial processing: at least 4 * 10ms of busy time elapsed.
    assert net.clock.now() >= 0.04


# -- DP edges ----------------------------------------------------------------------

def test_dp_index_noise_scale():
    index = DPIndex(0, 10, 2, PrivacyAccountant(5.0), 0.5)
    assert index.current_noise_scale() == 2.0


def test_dp_index_range_clamps_to_domain():
    accountant = PrivacyAccountant(5.0)
    index = DPIndex(0, 10, 2, accountant, 1.0)
    index.refresh([1.0, 9.0])
    estimate = index.estimate_range_count(-100, 100)
    assert estimate >= 0.0


# -- database engine edges ------------------------------------------------------------

def test_join_with_column_collision_prefixes():
    db = Database("d")
    db.create_table(TableSchema.build(
        "left", [("id", ColumnType.INT), ("name", ColumnType.TEXT)],
        primary_key=["id"],
    ))
    db.create_table(TableSchema.build(
        "right", [("id", ColumnType.INT), ("name", ColumnType.TEXT)],
        primary_key=["id"],
    ))
    db.insert("left", {"id": 1, "name": "left-name"})
    db.insert("right", {"id": 1, "name": "right-name"})
    joined = db.join("left", "right", "id", "id")
    assert joined[0]["name"] == "left-name"
    assert joined[0]["right.name"] == "right-name"


def test_group_by_avg_min_max():
    db = Database("d")
    db.create_table(TableSchema.build(
        "t", [("id", ColumnType.INT), ("g", ColumnType.TEXT),
              ("v", ColumnType.INT)],
        primary_key=["id"],
    ))
    for i, v in enumerate([10, 20, 30]):
        db.insert("t", {"id": i, "g": "a", "v": v})
    assert db.group_by("t", ["g"], "AVG", "v") == {("a",): 20}
    assert db.group_by("t", ["g"], "MIN", "v") == {("a",): 10}
    assert db.group_by("t", ["g"], "MAX", "v") == {("a",): 30}


def test_participant_verifier_without_keys_raises():
    from repro.model.participants import DataProducer

    producer = DataProducer("p", with_keys=False)
    with pytest.raises(ValueError):
        producer.verifier()


def test_paillier_zero_and_modulus_edge():
    keys = generate_paillier_keypair(128)
    assert keys.private_key.decrypt(keys.public_key.encrypt(0)) == 0
    top = keys.public_key.max_plaintext
    assert keys.private_key.decrypt(keys.public_key.encrypt(top)) == top


def test_select_with_predicate_and_projection():
    from repro.database.expr import col, lit

    db = Database("d")
    db.create_table(TableSchema.build(
        "t", [("id", ColumnType.INT), ("v", ColumnType.INT)],
        primary_key=["id"],
    ))
    for i in range(5):
        db.insert("t", {"id": i, "v": i * 10})
    rows = db.select("t", predicate=col("v") >= lit(20), columns=["id"])
    assert sorted(r["id"] for r in rows) == [2, 3, 4]
    assert all(set(r) == {"id"} for r in rows)


def test_update_to_dict_shape():
    from repro.model.update import Update, UpdateOperation

    update = Update(table="t", operation=UpdateOperation.DELETE,
                    payload={}, key=(1,))
    as_dict = update.to_dict()
    assert as_dict["operation"] == "delete"
    assert as_dict["key"] == [1]
    assert as_dict["status"] == "pending"
