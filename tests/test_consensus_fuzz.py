"""Randomized-schedule fuzzing of the consensus protocols.

Hypothesis varies network seeds (message interleavings), crash
patterns, and command mixes; the invariants must hold on every
schedule:

* agreement — no two nodes decide differently for any slot;
* validity — decided values were actually submitted (or protocol
  no-ops);
* durability — once decided, a slot never changes;
* compaction is invisible — releasing decided slots changes neither
  the decided stream nor any replica root, under failover, crashes and
  message loss.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.driver import PaxosDriver
from repro.consensus.paxos import PaxosCluster
from repro.consensus.pbft import PBFTCluster
from repro.core.replicated import ReplicatedShard
from repro.durability import Durability
from repro.model.update import Update, UpdateOperation
from repro.net.simnet import LatencyModel, SimNetwork

from tests.test_pipeline_stages import build_plaintext


def agreement_holds(nodes) -> bool:
    decided_slots = {}
    for node in nodes:
        for slot, value in node.log._decisions.items():
            if slot in decided_slots and str(decided_slots[slot]) != str(value):
                return False
            decided_slots[slot] = value
    return True


@given(seed=st.integers(0, 10_000),
       commands=st.integers(1, 12),
       crash=st.sampled_from([None, 3, 4]))
@settings(max_examples=25, deadline=None)
def test_paxos_agreement_under_random_schedules(seed, commands, crash):
    network = SimNetwork(
        latency=LatencyModel(base=0.001, jitter=0.002, seed=seed),
        seed=seed,
    )
    cluster = PaxosCluster(n=5, network=network)
    if crash is not None:
        cluster.crash(crash)
    for i in range(commands):
        cluster.submit({"op": i})
    cluster.run()
    assert agreement_holds(cluster.nodes)
    # With at most one crash, everything must decide.
    assert len(cluster.committed()) == commands
    # Validity: decided values were submitted.
    submitted = {str({"op": i}) for i in range(commands)}
    for value in cluster.committed():
        assert str(value) in submitted


@given(seed=st.integers(0, 10_000),
       commands=st.integers(1, 8),
       silent=st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=20, deadline=None)
def test_pbft_agreement_under_random_schedules(seed, commands, silent):
    network = SimNetwork(
        latency=LatencyModel(base=0.001, jitter=0.002, seed=seed),
        seed=seed,
    )
    cluster = PBFTCluster(f=1, network=network, view_timeout=60.0)
    if silent is not None:
        cluster.nodes[silent].silence()
    for i in range(commands):
        cluster.submit({"tx": i})
    cluster.run()
    assert agreement_holds(cluster.nodes)
    assert len(cluster.committed()) == commands


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_pbft_equivocation_never_violates_agreement(seed):
    network = SimNetwork(
        latency=LatencyModel(base=0.001, jitter=0.003, seed=seed),
        seed=seed,
    )
    cluster = PBFTCluster(f=1, network=network, view_timeout=0.5)
    cluster.nodes[0].equivocate = True
    cluster.submit({"tx": "target"})
    cluster.run()
    assert agreement_holds(cluster.nodes[1:])  # honest replicas


@given(seed=st.integers(0, 10_000),
       failover_at=st.integers(0, 4))
@settings(max_examples=15, deadline=None)
def test_paxos_decisions_survive_leader_changes(seed, failover_at):
    network = SimNetwork(
        latency=LatencyModel(base=0.001, jitter=0.002, seed=seed),
        seed=seed,
    )
    cluster = PaxosCluster(n=5, network=network)
    for i in range(failover_at + 1):
        cluster.submit({"op": i})
    cluster.run()
    before = dict(cluster.nodes[1].log._decisions)
    cluster.elect(1)
    cluster.submit({"op": "post-failover"})
    cluster.run()
    after = cluster.nodes[1].log._decisions
    # Durability: nothing decided before the failover changed.
    for slot, value in before.items():
        assert str(after[slot]) == str(value)
    assert agreement_holds(cluster.nodes)


# -- log compaction under adversity --------------------------------------------
#
# A replicated shard over Paxos on a lossy network, driven through
# failovers, Paxos-node crashes and replica crashes/restarts, must
# deliver the same decided stream and hold the same replica roots after
# every step as an uncompacted reference run of the same schedule — and
# that stream must be exactly the proposed batches, once each.

COMPACTION_STEPS = ("submit", "failover", "crash_node", "revive_node",
                    "crash_replica", "restart_replica")


def lossy_driver(seed: int) -> PaxosDriver:
    network = SimNetwork(
        latency=LatencyModel(base=0.001, jitter=0.002, seed=seed),
        loss_rate=0.1, seed=seed,
    )
    driver = PaxosDriver(network=network)
    lead(driver.cluster, 0)
    return driver


def lead(cluster, index: int) -> None:
    """Elect node ``index``, re-running ballots the network ate."""
    for _ in range(50):
        cluster.elect(index)
        if cluster.leader.is_leader:
            return
    raise AssertionError(f"node {index} never won a ballot")


def fuzz_batch(number: int) -> list:
    return [Update(table="events", operation=UpdateOperation.INSERT,
                   payload={"id": n, "who": ("alice", "bob")[n % 2],
                            "amount": 2},
                   update_id=f"fz-{n:05d}")
            for n in range(4 * number, 4 * number + 4)]


def run_schedule(steps, seed: int, directory: str, compact: bool = True):
    """Play ``steps`` on a fresh 3-replica shard (replica 1 durable);
    returns the per-step trail, the delivered stream, and the numbers
    of the proposed batches."""
    def build(replica=0):
        if replica != 1:
            return build_plaintext()
        return build_plaintext(durability=Durability.wal(
            os.path.join(directory, "compacted" if compact else "reference")))

    driver = lossy_driver(seed)
    shard = ReplicatedShard(build, replicas=3, driver=driver)
    if not compact:
        driver.compact = lambda upto: 0
    delivered, proposed = [], []
    apply_decided = shard._apply_decided

    def record(decided):
        delivered.append((decided.sequence, [
            doc["update_id"] for doc in decided.payload["updates"]]))
        return apply_decided(decided)

    shard._apply_decided = record
    cluster = driver.cluster
    trail = []
    for number, step in enumerate(steps):
        crashed = [i for i, node in enumerate(cluster.nodes) if node.crashed]
        down = [i for i, replica in enumerate(shard.replicas)
                if replica is None]
        leader = cluster.nodes.index(cluster.leader)
        if step == "submit":
            proposed.append(number)
            shard.submit_many(fuzz_batch(number))
        elif step == "failover":
            lead(cluster, next(i for i in (leader + 1, leader + 2, leader)
                               if i % 3 not in crashed) % 3)
        elif step == "crash_node" and not crashed:
            cluster.crash((leader + 1 + number % 2) % 3)
        elif step == "revive_node" and crashed:
            cluster.nodes[crashed[0]].crashed = False
        elif step == "crash_replica" and not down:
            shard.crash_replica(1 + number % 2)
        elif step == "restart_replica" and down:
            shard.restart_replica(down[0])
        trail.append((step, len(delivered), tuple(
            replica.ledger.digest().root if replica is not None else None
            for replica in shard.replicas)))
    for index, replica in enumerate(shard.replicas):
        if replica is None:
            shard.restart_replica(index)
    trail.append(("end", len(delivered), shard.assert_converged()))
    shard.close()
    return trail, delivered, proposed


def assert_compaction_is_invisible(steps, seed: int) -> None:
    with tempfile.TemporaryDirectory() as directory:
        trail, delivered, proposed = run_schedule(steps, seed, directory)
        reference = run_schedule(steps, seed, directory, compact=False)
    assert trail == reference[0]
    assert delivered == reference[1]
    # Each proposed batch exactly once, in order, densely numbered.
    assert [ids for _, ids in delivered] == [
        [u.update_id for u in fuzz_batch(n)] for n in proposed]
    assert [seq for seq, _ in delivered] == list(range(len(proposed)))
    standalone = build_plaintext()
    for number in proposed:
        standalone.submit_many(fuzz_batch(number))
    assert trail[-1][2] == standalone.ledger.digest().root


#: Hand-written schedules that hit each rule: a stale node (crashed
#: while the others compacted) taking over, and a crashed durable
#: replica pinning the log across a failover.
PINNED_SCHEDULES = {
    "stale-leader": ["submit", "crash_node", "submit", "submit",
                     "revive_node", "failover", "failover", "submit",
                     "submit"],
    # crash_replica takes down replica 1 (durable) on an even step and
    # replica 2 (not durable) on an odd one.
    "pinned-replica": ["submit", "submit", "crash_replica", "submit",
                       "failover", "submit", "restart_replica", "submit"],
    "install": ["submit", "submit", "submit", "crash_replica", "submit",
                "failover", "submit", "restart_replica", "submit"],
}


@pytest.mark.parametrize("name", sorted(PINNED_SCHEDULES))
@pytest.mark.parametrize("seed", [3, 17])
def test_compaction_schedules_match_the_uncompacted_run(name, seed):
    assert_compaction_is_invisible(PINNED_SCHEDULES[name], seed)


@given(seed=st.integers(0, 10_000),
       steps=st.lists(st.sampled_from(COMPACTION_STEPS + ("submit",) * 3),
                      min_size=3, max_size=14))
@settings(max_examples=12, deadline=None)
def test_compaction_under_random_adversity(seed, steps):
    assert_compaction_is_invisible(steps, seed)


def test_lossy_retransmits_decided_twice_are_delivered_once():
    """The dedup rule at work: on this schedule the lossy network makes
    the driver retransmit batches that end up decided in two slots,
    and each is still delivered once."""
    driver = lossy_driver(33)
    payloads = [{"updates": [{"n": n}]} for n in range(40)]
    for payload in payloads:
        driver.propose_batch(payload)
    delivered = [batch.payload for batch in driver.committed_stream()]
    assert delivered == payloads
    assert driver._raw_cursor > len(payloads)  # some slot decided twice
    driver.compact(len(payloads))
    assert all(len(node.log) == 0 and not node.accepted
               for node in driver.cluster.nodes if not node.crashed)
    driver.close()
