"""Failure injection: partitions, loss, forks, colluding adversaries.

These tests exercise the unhappy paths that distinguish a framework
claiming integrity from one that merely works when everything does.
"""

import pytest

from repro.consensus.paxos import PaxosCluster
from repro.consensus.pbft import PBFTCluster
from repro.ledger.audit import LedgerAuditor
from repro.ledger.central import CentralLedger
from repro.net.simnet import SimNetwork


# -- consensus under partitions ----------------------------------------------

def test_paxos_minority_partition_blocks_then_reelection_recovers():
    cluster = PaxosCluster(n=5)
    # Cut the leader + one follower away from the other three.
    cluster.network.partition(
        {"paxos-0", "paxos-1"}, {"paxos-2", "paxos-3", "paxos-4"}
    )
    cluster.submit({"op": "stranded"})
    cluster.run()
    assert cluster.committed() == []  # no quorum reachable
    cluster.network.heal_partition()
    # Recovery: a fresh ballot gathers promises carrying the stranded
    # accepted value and re-proposes it (Paxos's safety rule).
    cluster.elect(0)
    cluster.run()
    assert {"op": "stranded"} in cluster.committed()


def test_paxos_majority_partition_still_commits_after_takeover():
    cluster = PaxosCluster(n=5)
    cluster.network.partition(
        {"paxos-0"}, {"paxos-1", "paxos-2", "paxos-3", "paxos-4"}
    )
    # The majority side elects a new leader and makes progress.
    cluster.elect(1)
    cluster.submit({"op": "x"})
    cluster.run()
    majority_logs = [cluster.nodes[i].log.committed_prefix()
                     for i in (1, 2, 3, 4)]
    assert any({"op": "x"} in log for log in majority_logs)
    # The isolated old leader learned nothing.
    assert cluster.nodes[0].log.committed_prefix() == []


def test_pbft_even_split_blocks_then_heals():
    cluster = PBFTCluster(f=1, view_timeout=50.0)
    names = cluster.names
    cluster.network.partition(set(names[:2]), set(names[2:]))
    cluster.submit({"tx": "blocked"})
    cluster.run(until=5.0)
    assert cluster.committed() == []
    cluster.network.heal_partition()
    cluster.submit({"tx": "after-heal"})
    cluster.run()
    assert any(v == {"tx": "after-heal"} for v in cluster.committed())


def test_paxos_under_light_message_loss_with_retries():
    """With 2% loss, individual decrees may stall, but client retries
    eventually commit every command (at-least-once with dedup by the
    decision log is the deployment pattern)."""
    network = SimNetwork(loss_rate=0.02, seed=3)
    cluster = PaxosCluster(n=5, network=network)
    wanted = [{"op": i} for i in range(10)]
    for value in wanted:
        cluster.submit(value)
    cluster.run()
    committed = {str(v) for v in cluster.committed()}
    missing = [v for v in wanted if str(v) not in committed]
    for value in missing:  # one retry round
        cluster.submit(value)
    cluster.run()
    committed = {str(v) for v in cluster.leader.log._decisions.values()}
    assert all(str(v) in committed for v in wanted) or len(missing) <= 2


# -- ledger forks ---------------------------------------------------------------

def test_split_view_attack_detected_by_gossip():
    """A malicious holder serves auditor A one history and auditor B a
    forked one; each alone is satisfied, gossip catches it."""
    honest = CentralLedger()
    for i in range(5):
        honest.append({"update": i})

    forked = CentralLedger()
    for i in range(4):
        forked.append({"update": i})
    forked.append({"update": "EVIL"})
    forked.append({"update": 5})

    auditor_a, auditor_b = LedgerAuditor("a"), LedgerAuditor("b")
    assert auditor_a.audit(honest).ok       # A sees the honest history
    assert auditor_b.audit(forked).ok       # B sees the fork — and is happy
    # Cross-check: the holder cannot link the two digests.
    assert not auditor_a.cross_check(auditor_b, honest)
    assert not auditor_b.cross_check(auditor_a, forked)


def test_gossip_accepts_honest_lag():
    ledger = CentralLedger()
    for i in range(3):
        ledger.append({"update": i})
    auditor_a = LedgerAuditor("a")
    auditor_a.audit(ledger)
    for i in range(3, 6):
        ledger.append({"update": i})
    auditor_b = LedgerAuditor("b")
    auditor_b.audit(ledger)
    # A is behind B, but both views are on one history.
    assert auditor_a.cross_check(auditor_b, ledger)


def test_gossip_same_size_fork_detected():
    ledger_a = CentralLedger()
    ledger_b = CentralLedger()
    for i in range(4):
        ledger_a.append({"update": i})
        ledger_b.append({"update": i if i != 2 else "EVIL"})
    auditor_a, auditor_b = LedgerAuditor("a"), LedgerAuditor("b")
    auditor_a.audit(ledger_a)
    auditor_b.audit(ledger_b)
    assert not auditor_a.cross_check(auditor_b, ledger_a)


def test_gossip_trivially_true_before_first_audit():
    assert LedgerAuditor("a").cross_check(LedgerAuditor("b"), CentralLedger())


# -- colluding platforms in Separ --------------------------------------------------

def test_separ_colluding_platforms_cannot_reidentify_across_weeks():
    """Pseudonyms rotate weekly, so even a full-collusion coalition
    cannot link one worker's week-0 activity to their week-1 activity."""
    from repro.core.separ import SeparSystem

    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=40)
    system.register_worker("w")
    system.complete_task("w", "uber", 10)
    week0 = system.workers["w"].pseudonym(0)
    system.advance_weeks(1)
    system.complete_task("w", "lyft", 10)
    week1 = system.workers["w"].pseudonym(1)
    view = system.collusion_view(["uber", "lyft"])
    assert week0 in view["pseudonym_counts"]
    assert week1 in view["pseudonym_counts"]
    assert week0 != week1  # nothing in the view links them


def test_separ_platform_replaying_spent_token_is_caught():
    """A covert platform replaying a token it observed (to frame the
    worker or double-count hours) trips double-spend detection."""
    from repro.core.separ import SeparSystem
    from repro.privacy.tokens import DoubleSpendError, Token

    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=40)
    system.register_worker("w")
    system.complete_task("w", "uber", 2)
    spent_entry = system.registry.ledger.entry(0).payload
    replayed = Token(
        serial=spent_entry["serial"],
        period=spent_entry["period"],
        pseudonym=spent_entry["pseudonym"],
        signature=0,  # the platform never saw the signature... forge fails
    )
    with pytest.raises(Exception):
        system.registry.spend([replayed], "lyft")


def test_separ_worker_reusing_spent_tokens_is_rejected():
    """A cheating worker client that hands its already-spent tokens to
    a second platform: the coordinator's token check refuses the task
    as a double spend, anchors the rejection, and no hours count."""
    from repro.core.separ import SeparSystem
    from repro.privacy.tokens import DoubleSpendError

    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=40)
    wallet = system.register_worker("w").wallet
    spent = []
    honest_take = wallet.take

    def replaying_take(period, count):
        if spent:
            return spent[:count]
        spent.extend(honest_take(period, count))
        return list(spent)

    wallet.take = replaying_take
    assert system.complete_task("w", "uber", 2).accepted
    result = system.complete_task("w", "lyft", 2)
    assert not result.accepted
    assert result.reason == "double spend detected"
    anchored = system.coordinator.escalation_ledger.entry(0).payload
    assert anchored["decision"]["failed_constraint"] == "token-double-spend"
    assert system.hours_worked("w") == 2
    assert system.registry.total_spent() == 2
    with pytest.raises(DoubleSpendError):
        system.registry.spend(spent[:1], "lyft")


@pytest.mark.parametrize("handed", ["fresh-then-spent", "fresh-twice"])
def test_separ_rejected_token_set_spends_none_of_its_tokens(handed):
    """A cheating worker client that pays for a task with one fresh
    token plus a spent one (or the fresh one twice): the task is
    rejected as a double spend, and the fresh token is not recorded
    either — spends, the pseudonym's spend count and hours all read as
    before the attempt."""
    from repro.core.separ import SeparSystem

    system = SeparSystem(["uber", "lyft"], weekly_hour_cap=40)
    worker = system.register_worker("w")
    spent = []
    honest_take = worker.wallet.take

    def mixing_take(period, count):
        if not spent:
            spent.extend(honest_take(period, count))
            return list(spent)
        fresh = honest_take(period, 1)
        again = spent if handed == "fresh-then-spent" else fresh
        return fresh + again[:count - 1]

    worker.wallet.take = mixing_take
    assert system.complete_task("w", "uber", 2).accepted
    period = system.current_period()

    def books():
        return (system.registry.total_spent(),
                system.registry.spend_count(period, worker.pseudonym(period)),
                system.hours_worked("w"))

    assert books() == (2, 2, 2)
    result = system.complete_task("w", "lyft", 2)
    assert not result.accepted
    assert result.reason == "double spend detected"
    assert books() == (2, 2, 2)


# -- crash injection in the durable pipeline ----------------------------------

def _durable_framework(tmp_path, crash_after=None):
    """One emissions database with WAL+snapshot durability."""
    from repro.core.contexts import single_private_database
    from repro.database import Database, TableSchema
    from repro.database.schema import ColumnType
    from repro.durability import Durability
    from repro.model.constraints import upper_bound_regulation

    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    database = Database("cloud-manager")
    database.create_table(schema)
    cap = upper_bound_regulation("cap", "emissions", "co2", bound=10**9,
                                 match_columns=[])
    cap.constraint_id = "cst-cap"  # stable across rebuilds (see recovery)
    durability = Durability.wal_with_snapshots(
        str(tmp_path / "durable"), snapshot_every=50, crash_after=crash_after
    )
    return single_private_database(
        database, [cap], engine="plaintext", durability=durability
    ), database


def _emissions(i):
    from repro.model.update import Update, UpdateOperation

    return Update(
        table="emissions", operation=UpdateOperation.INSERT,
        payload={"id": i, "co2": 5}, update_id=f"upd-{i:05d}",
    )


@pytest.mark.parametrize(
    "point", ["wal_update", "apply", "anchor_append", "anchor_marker"]
)
def test_crash_injection_never_forks_recovered_history(tmp_path, point):
    """Whatever pipeline stage the process dies at, the recovered
    ledger passes a fresh audit AND gossip cross-checks against an
    auditor who saw the pre-crash history — a crash must never present
    as a fork."""
    from repro.durability import SimulatedCrash

    framework, _ = _durable_framework(tmp_path)
    framework.submit_many([_emissions(i) for i in range(4)])
    witness = LedgerAuditor("pre-crash")
    assert witness.audit(framework.ledger).ok
    framework.close()

    crashing, _ = _durable_framework(tmp_path, crash_after=point)
    crashing.recover()
    with pytest.raises(SimulatedCrash):
        crashing.submit_many([_emissions(i) for i in range(10, 14)])

    recovered, _ = _durable_framework(tmp_path)
    report = recovered.recover()
    assert report.verified_against_anchor
    after = LedgerAuditor("post-recovery")
    assert after.audit(recovered.ledger).ok
    # The pre-crash witness sees the recovered ledger as an honest
    # extension (or identical history), never a fork.
    assert witness.cross_check(after, recovered.ledger)
    recovered.close()


def test_wal_bit_flip_is_caught_by_crc(tmp_path):
    """A single flipped bit anywhere in a decision record is caught by
    the frame CRC: recovery refuses instead of replaying altered
    history (bit rot is an integrity event, not a torn write)."""
    import os

    from repro.common.errors import WalCorruptionError
    from repro.durability import WriteAheadLog

    framework, _ = _durable_framework(tmp_path)
    framework.submit_many([_emissions(i) for i in range(6)])
    framework.close()
    wal_dir = str(tmp_path / "durable" / "wal")
    segment = WriteAheadLog.__new__(WriteAheadLog)  # path helper only
    segment.directory = wal_dir
    path = segment.segment_paths()[0]
    with open(path, "rb") as handle:
        buf = bytearray(handle.read())
    # Flip one payload bit in the FIRST record: damage followed by
    # valid records is provably not a torn write.  (Damage to the very
    # last record is indistinguishable from a tear and gets truncated.)
    buf[12] ^= 0x40
    with open(path, "wb") as handle:
        handle.write(buf)

    # The WAL opens (and refuses) at framework construction.
    with pytest.raises(WalCorruptionError):
        _durable_framework(tmp_path)
