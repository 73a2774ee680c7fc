"""The pluggable replication core: driver equivalence, replica
convergence, crash/catch-up, and the sharded ``consensus=`` knob.

The contract under test, layer by layer:

* **One shard handle** — a plain ``ShardHandle``, a one-replica local
  ``ReplicatedShard`` and a three-replica Paxos one answer the whole
  shard surface identically on the same stream.
* **LocalDriver is invisible** — ``ReplicatedShard(build, replicas=1,
  driver=LocalDriver())`` must reproduce the standalone framework
  byte-for-byte (same pinned golden roots and WAL hashes as
  ``tests/test_pipeline_stages.py``): the decided stream is just the
  submission order, with no transport in the way.
* **Consensus drivers are order-equivalent** — Paxos/PBFT/SharPer
  order the same batches into the same total order (one proposer, so
  the only question is that retransmits, view-change no-ops, and
  decoys are deduplicated/filtered correctly), and a
  :class:`~repro.core.replicated.ReplicatedShard` replaying that
  stream converges every replica to the standalone framework's exact
  ledger root — for the plaintext *and* the Paillier engine, and for
  the WAL bytes when replicas are durable.
* **Crash/recovery** — a crashed replica restarts, replays its own WAL
  when durable, resynchronizes the rest via ``catch_up`` against the
  committed prefix, and reconverges to the live replicas' root.
* **The sharded front door** — ``consensus=`` plans produce the same
  root-of-roots and decisions as the plain sharded deployment, and
  cross-shard escalations order through the coordinator's driver.
"""

import functools
import os

import pytest

from repro.common.errors import IntegrityError, PReVerError
from repro.consensus.driver import (
    DecidedBatch,
    LocalDriver,
    PaxosDriver,
    PbftDriver,
    ReplicationPlan,
    SharperDriver,
    make_driver,
    resolve_plan,
)
from repro.core.replicated import ReplicatedShard, ShardHandle
from repro.core.sharded import ShardedPReVer
from repro.durability import Durability

from tests.test_pipeline_stages import (
    BUILDERS,
    GOLDEN,
    build_plaintext,
    golden_stream,
    wal_sha256,
)
from tests.test_sharded import (
    sharded_stream,
    spanning_count_constraint,
    two_shard_specs,
)

DRIVER_FACTORIES = {
    "local": LocalDriver,
    "paxos": PaxosDriver,
    "pbft": PbftDriver,
    "sharper": SharperDriver,
}


def chunked(stream, size=8):
    return [stream[lo:lo + size] for lo in range(0, len(stream), size)]


# -- plan resolution ---------------------------------------------------------

def test_resolve_plan_forms():
    assert resolve_plan(None).kind == "local"
    assert resolve_plan("pbft").kind == "pbft"
    plan = ReplicationPlan(kind="paxos", replicas=3, profile="wan")
    assert resolve_plan(plan) is plan
    with pytest.raises(PReVerError):
        resolve_plan("raft")
    with pytest.raises(PReVerError):
        ReplicationPlan(kind="paxos", replicas=0)
    with pytest.raises(PReVerError):
        resolve_plan(42)


def test_make_driver_builds_every_kind():
    for kind, cls in (("local", LocalDriver), ("paxos", PaxosDriver),
                      ("pbft", PbftDriver), ("sharper", SharperDriver)):
        driver = make_driver(ReplicationPlan(kind=kind))
        assert isinstance(driver, cls)
        assert driver.name == kind
        driver.close()


# -- the shard-handle contract ------------------------------------------------

HANDLES = {
    "plain": lambda: ShardHandle(build_plaintext()),
    "local": lambda: ReplicatedShard(build_plaintext, replicas=1,
                                     driver=LocalDriver()),
    "paxos": lambda: ReplicatedShard(build_plaintext, replicas=3,
                                     driver=PaxosDriver()),
}


@pytest.mark.parametrize("kind", sorted(HANDLES))
def test_shard_handle_contract(kind):
    """Every handle kind answers the shard surface like the standalone
    framework it wraps: one batch, then single submits."""
    standalone = build_plaintext()
    stream = golden_stream()
    expected = standalone.submit_many(stream[:8])
    expected += [standalone.submit(update) for update in stream[8:]]

    handle = HANDLES[kind]()
    assert isinstance(handle, ShardHandle)
    stream = golden_stream()
    results = handle.submit_many(stream[:8])
    results += [handle.submit(update) for update in stream[8:]]
    assert [(r.accepted, r.applied, r.ledger_sequence) for r in results] == \
        [(r.accepted, r.applied, r.ledger_sequence) for r in expected]
    assert handle.digest() == standalone.ledger.digest()
    assert handle.digest().root.hex() == GOLDEN[("plaintext", "batched")]["root"]
    assert handle.counters() == {
        "submitted": len(stream),
        "applied": sum(r.applied for r in expected),
        "ledger_size": len(standalone.ledger),
    }
    assert handle.framework.ledger.digest() == handle.digest()
    assert handle.throughput_report()["updates"] == len(stream)
    assert "counters" in handle.metrics_snapshot()
    assert handle.alive()
    assert handle.readiness_report()["ok"]
    assert handle.verification_trail("tr-none") is None
    first = handle.telemetry_delta()
    assert first.counters["pipeline.updates"][1] == len(stream)
    assert handle.telemetry_delta().empty()
    assert bool(handle.stats()) == (kind != "plain")
    handle.close()
    handle.close()  # idempotent
    assert not handle.alive()


# -- LocalDriver: byte-identical to the pre-driver framework -----------------

def local_shard(engine, state_dir):
    """One durable replica behind the LocalDriver."""
    build = functools.partial(BUILDERS[engine],
                              durability=Durability.wal(state_dir))
    return ReplicatedShard(build, replicas=1, driver=LocalDriver())


@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_local_driver_matches_pre_driver_goldens(engine, tmp_path):
    """Ordering through the local driver changes nothing: same pinned
    golden root and WAL bytes as the standalone batched path."""
    shard = local_shard(engine, str(tmp_path))
    stream = golden_stream()
    results = []
    results.extend(shard.submit_many(stream[:8]))
    results.extend(shard.submit_many(stream[8:]))
    root = shard.digest().root.hex()
    shard.close()
    golden = GOLDEN[(engine, "batched")]
    assert root == golden["root"]
    assert wal_sha256(str(tmp_path)) == golden["wal_sha256"]
    assert any(r.applied for r in results)
    assert any(not r.accepted for r in results)


def test_local_driver_sequential_matches_goldens(tmp_path):
    shard = local_shard("plaintext", str(tmp_path))
    for update in golden_stream():
        shard.submit(update)
    root = shard.digest().root.hex()
    shard.close()
    golden = GOLDEN[("plaintext", "sequential")]
    assert root == golden["root"]
    assert wal_sha256(str(tmp_path)) == golden["wal_sha256"]


# -- driver equivalence: consensus ordering reproduces the local stream ------

@pytest.mark.parametrize("kind", ["local", "paxos", "pbft", "sharper"])
@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_replicated_shard_converges_to_standalone_root(kind, engine):
    """Every driver's decided stream replays to the standalone
    framework's exact root on every replica — plaintext and Paillier."""
    standalone = BUILDERS[engine]()
    expected_decisions = []
    for batch in chunked(golden_stream()):
        expected_decisions.extend(
            r.applied for r in standalone.submit_many(batch)
        )
    expected_root = standalone.ledger.digest().root

    shard = ReplicatedShard(BUILDERS[engine], replicas=2,
                            driver=DRIVER_FACTORIES[kind](), name=kind)
    decisions = []
    for batch in chunked(golden_stream()):
        decisions.extend(r.applied for r in shard.submit_many(batch))
    assert decisions == expected_decisions
    # digest() re-asserts cross-replica convergence before returning.
    assert shard.digest().root == expected_root
    for replica in shard.replicas:
        assert replica.ledger.digest().root == expected_root
    stats = shard.stats()
    assert stats["decided"] == stats["proposed"] == len(
        chunked(golden_stream())
    )
    shard.close()


@pytest.mark.parametrize("kind", ["paxos", "pbft", "sharper"])
def test_replicated_shard_durable_wal_matches_standalone(kind, tmp_path):
    """Replica WAL bytes equal a standalone durable framework's over
    the same decided order (the replay path *is* the pipeline)."""
    standalone_dir = str(tmp_path / "standalone")
    standalone = build_plaintext(durability=Durability.wal(standalone_dir))
    for batch in chunked(golden_stream()):
        standalone.submit_many(batch)
    standalone.close()
    expected_sha = wal_sha256(standalone_dir)

    def build_durable(replica=0):
        return build_plaintext(
            durability=Durability.wal(str(tmp_path / f"r{replica}"))
        )

    shard = ReplicatedShard(build_durable, replicas=2,
                            driver=DRIVER_FACTORIES[kind](), name=kind)
    for batch in chunked(golden_stream()):
        shard.submit_many(batch)
    shard.close()
    for index in range(2):
        assert wal_sha256(str(tmp_path / f"r{index}")) == expected_sha


def test_decided_sequences_identical_across_drivers():
    """The decision *sequence* itself (payload order, dense sequence
    numbers) is driver-independent for one proposer."""
    streams = {}
    for kind, factory in DRIVER_FACTORIES.items():
        driver = factory()
        payloads = [{"updates": [{"n": n}]} for n in range(5)]
        for payload in payloads:
            driver.propose_batch(payload)
        decided = list(driver.catch_up(0))
        assert [d.sequence for d in decided] == list(range(5))
        streams[kind] = [d.payload for d in decided]
        driver.close()
    reference = streams.pop("local")
    for kind, payloads in streams.items():
        assert payloads == reference, kind


# -- crash / catch-up --------------------------------------------------------

@pytest.mark.parametrize("kind", ["paxos", "pbft"])
def test_replica_crash_and_catch_up_reconverges(kind):
    shard = ReplicatedShard(build_plaintext, replicas=3,
                            driver=DRIVER_FACTORIES[kind](), name="c")
    stream = golden_stream()
    shard.submit_many(stream[:8])
    shard.crash_replica(2)
    assert shard.replicas[2] is None
    shard.submit_many(stream[8:])  # serves from the 2 live replicas
    shard.restart_replica(2)
    root = shard.assert_converged()
    assert shard._applied == [2, 2, 2]
    # And the reconverged root is the standalone root.
    standalone = build_plaintext()
    standalone.submit_many(stream[:8])
    standalone.submit_many(stream[8:])
    assert root == standalone.ledger.digest().root


def test_durable_replica_recovers_wal_then_catches_up(tmp_path):
    """A durable replica restarts from its own WAL (recovery replays
    the first batch) and only replays the suffix via catch_up."""
    def build_durable(replica=0):
        return build_plaintext(
            durability=Durability.wal(str(tmp_path / f"r{replica}"))
        )

    shard = ReplicatedShard(build_durable, replicas=2,
                            driver=PaxosDriver(), name="d")
    stream = golden_stream()
    shard.submit_many(stream[:8])
    shard.crash_replica(1)
    shard.submit_many(stream[8:])
    framework = shard.restart_replica(1)
    assert shard._applied == [2, 2]
    assert framework.ledger.digest().root == shard.replicas[0].ledger.digest().root
    shard.close()


def test_catch_up_rejects_gapped_prefix():
    shard = ReplicatedShard(build_plaintext, replicas=1,
                            driver=LocalDriver(), name="g")
    shard.submit_many(golden_stream()[:4])
    # Corrupt the committed prefix: drop the first decided batch.
    shard.driver._log[0] = DecidedBatch(
        sequence=1, payload=shard.driver._log[0].payload
    )
    shard._applied[0] = 0
    with pytest.raises(IntegrityError, match="gap"):
        shard.catch_up(0)


def test_divergent_replica_is_fail_closed():
    """Root divergence across replicas raises, never warns: poison one
    replica's ledger behind the shard's back and replay a batch."""
    shard = ReplicatedShard(build_plaintext, replicas=2,
                            driver=LocalDriver(), name="x")
    stream = golden_stream()
    shard.submit_many(stream[:4])
    shard.replicas[1].ledger.append({"poison": True})
    with pytest.raises(IntegrityError, match="diverged"):
        shard.submit_many(stream[4:8])


def test_builder_type_error_propagates_without_a_second_call():
    """A builder that takes ``replica`` and raises ``TypeError`` of its
    own must not be retried without the index: every replica would
    then be built for the default index and share one WAL directory."""
    seen = []

    def broken_build(replica=0):
        seen.append(replica)
        raise TypeError("unsupported operand inside the builder")

    with pytest.raises(TypeError, match="inside the builder"):
        ReplicatedShard(broken_build, replicas=2)
    assert seen == [0]

    seen.clear()

    def indexed_build(replica=0):
        seen.append(replica)
        return build_plaintext()

    ReplicatedShard(indexed_build, replicas=3).close()
    assert seen == [0, 1, 2]


# -- the sharded consensus knob ----------------------------------------------

@pytest.mark.parametrize("kind", [
    "paxos", "pbft", "sharper",
    pytest.param(ReplicationPlan(kind="paxos", replicas=2, profile="wan"),
                 id="paxos-wan"),
    pytest.param(ReplicationPlan(kind="pbft", replicas=2, profile="wan"),
                 id="pbft-wan"),
])
def test_sharded_consensus_matches_plain_deployment(kind):
    plain = ShardedPReVer(two_shard_specs())
    stream = sharded_stream()
    plain_results = plain.submit_many(stream)
    plain_root = plain.digest().root
    plain.close()

    backed = ShardedPReVer(two_shard_specs(), consensus=kind)
    results = backed.submit_many(sharded_stream())
    assert backed.digest().root == plain_root
    assert [r.applied for r in results] == [
        r.applied for r in plain_results
    ]
    report = backed.consensus_report()
    assert set(report) == {"s0", "s1", "coordinator"}
    assert all(stats["driver"] == resolve_plan(kind).kind
               for stats in report.values())
    backed.close()


def test_sharded_consensus_dict_plans_per_shard():
    """Per-shard plans: one consensus-backed shard next to a plain one,
    no coordinator driver."""
    plain = ShardedPReVer(two_shard_specs())
    stream = sharded_stream()
    plain.submit_many(stream)
    plain_root = plain.digest().root
    plain.close()

    mixed = ShardedPReVer(
        two_shard_specs(),
        consensus={"s0": ReplicationPlan(kind="paxos", replicas=2)},
    )
    mixed.submit_many(sharded_stream())
    assert mixed.digest().root == plain_root
    assert mixed.replication is None
    assert set(mixed.consensus_report()) == {"s0"}
    mixed.close()


def test_sharded_consensus_unknown_shard_name_is_refused():
    with pytest.raises(PReVerError, match="unknown shards"):
        ShardedPReVer(two_shard_specs(), consensus={"nope": "paxos"})


def test_escalations_order_through_coordinator_driver():
    """Cross-shard rejections anchor on the escalation ledger in the
    coordinator driver's decided order, and the driver's stats see the
    proposals."""
    from repro.core.federated import TokenVerifier

    constraint = spanning_count_constraint(bound=3)
    backed = ShardedPReVer(two_shard_specs(), consensus="pbft")
    backed.register_cross_shard_constraint(constraint,
                                           TokenVerifier(constraint))
    results = backed.submit_many(sharded_stream(8))
    rejected = [r for r in results if not r.applied and r.shard is None]
    assert rejected, "the token budget must trip"
    assert len(backed.escalation_ledger) == len(rejected)
    coordinator = backed.consensus_report()["coordinator"]
    assert coordinator["decided"] == len(rejected)
    # Ledger order matches rejection order (decided order == proposal
    # order for one coordinator).
    anchored = [entry.payload["update_id"]
                for entry in backed.escalation_ledger.entries()]
    assert anchored == [r.update.update_id for r in rejected]
    backed.close()


def test_sharper_shards_share_one_ledger():
    """Sharper plans co-locate every pipeline shard (and the
    coordinator) as consensus shards of one SharPer ledger."""
    backed = ShardedPReVer(two_shard_specs(), consensus="sharper")
    ledgers = {
        handle.driver.ledger for handle in backed.shards
    }
    ledgers.add(backed.replication.ledger)
    assert len(ledgers) == 1
    names = set(next(iter(ledgers)).shards)
    assert names == {"s0", "s1", "coordinator"}
    backed.submit_many(sharded_stream(8))
    backed.close()


# -- observability ------------------------------------------------------------

def test_consensus_metrics_surface_on_the_registry():
    """The coordinator registry carries the driver timers/counters the
    ops plane exports over ``/metrics``."""
    backed = ShardedPReVer(two_shard_specs(), consensus="paxos")
    backed.submit_many(sharded_stream(8))
    assert backed.metrics.counter_value("consensus.batches_proposed") >= 2
    assert backed.metrics.counter_value("consensus.batches_decided") >= 2
    snapshot = backed.metrics.snapshot()
    assert "consensus.propose" in snapshot["timers"]
    assert "consensus.decide" in snapshot["timers"]
    assert "consensus.committed_lag" in snapshot["gauges"]
    backed.close()


def test_replicated_shard_binds_driver_observability():
    """The shard routes batches through its driver and binds the
    driver's metrics into the shard registry."""
    shard = ReplicatedShard(build_plaintext, replicas=1,
                            driver=LocalDriver())
    results = shard.submit_many(golden_stream()[:8])
    assert len(results) == 8
    assert shard.metrics.counter_value("consensus.batches_decided") == 1
    assert shard.driver.stats()["delivered"] == 1
    shard.close()
