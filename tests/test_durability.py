"""Durability layer: WAL framing/repair, snapshots, recovery.

The contract under test: with durability on, the state recovered after
an interruption equals the state as of the last durable anchor marker
— table rows, ledger entries, Merkle root, and (for stateful engines)
aggregate decisions all match an uninterrupted run; and damage the WAL
cannot prove harmless (mid-log corruption, sequence holes) makes
recovery refuse rather than silently skip history.
"""

import dataclasses
import os
import struct
import subprocess
import sys
import textwrap
import time

import pytest

from repro.common.errors import (
    DurabilityError,
    IntegrityError,
    WalCorruptionError,
)
from repro.common.serialization import canonical_json, from_canonical_json
from repro.core.contexts import single_private_database
from repro.core.framework import PReVer
from repro.core.verifiers import PaillierVerifier
from repro.crypto.hashing import digest_canonical
from repro.crypto.paillier import generate_paillier_keypair
from repro.database import Database, TableSchema
from repro.database.schema import ColumnType
from repro.durability import (
    CRASH_POINTS,
    Durability,
    SimulatedCrash,
    WriteAheadLog,
)
from repro.durability.wal import encode_record
from repro.model.constraints import upper_bound_regulation
from repro.model.update import Update, UpdateOperation
from repro.obs.tracing import Tracer


# -- fixtures / builders ------------------------------------------------------

# One small keypair for every Paillier test: recovery requires the
# operator to re-supply the same key material the crashed run used.
PAILLIER_KEYPAIR = generate_paillier_keypair(128)


def make_update(i: int, co2: int = 10, org: str = "acme") -> Update:
    return Update(
        table="emissions",
        operation=UpdateOperation.INSERT,
        payload={"id": i, "org": org, "co2": co2},
        update_id=f"upd-{i:05d}",
    )


def build(engine="plaintext", durability=None, tracer=None, bound=1_000_000):
    """A fresh single-database framework over an emissions table."""
    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    database = Database("cloud-manager")
    database.create_table(schema)
    cap = upper_bound_regulation(
        "iso-cap", "emissions", "co2", bound=bound, match_columns=["org"]
    )
    # Recovery rebuilds the topology in a new process: constraint ids
    # live inside anchored payloads and snapshot aggregate keys, so they
    # must be stable across builds rather than freshly auto-generated.
    cap.constraint_id = "cst-iso-cap"
    if engine == "paillier":
        verifier = PaillierVerifier([cap], keypair=PAILLIER_KEYPAIR)
        framework = PReVer(
            databases=[database], engine=verifier, durability=durability,
            tracer=tracer,
        )
        framework.constraints.append(cap)
        return framework, database
    framework = single_private_database(
        database, [cap], engine=engine, durability=durability, tracer=tracer
    )
    return framework, database


def durable_dir(tmp_path) -> str:
    return str(tmp_path / "durable")


# -- WAL framing, rotation, repair -------------------------------------------


def test_wal_roundtrip_across_reopen(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append_update({"update_id": "u1"})
    wal.append_update({"update_id": "u2"})
    wal.append_anchor({"payloads": [], "size": 2, "root": "ab"})
    wal.close()

    reopened = WriteAheadLog(str(tmp_path / "wal"))
    records = list(reopened.records())
    assert [(lsn, kind) for lsn, kind, _ in records] == [
        (1, "update"), (2, "update"), (3, "anchor")
    ]
    assert records[0][2] == {"update_id": "u1"}
    assert records[2][2] == {"payloads": [], "size": 2, "root": "ab"}
    assert reopened.last_lsn == 3
    # Appends continue the sequence.
    assert reopened.append_update({"update_id": "u3"}) == 4
    reopened.close()


def test_wal_records_since_lsn(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    for i in range(5):
        wal.append_update({"i": i})
    assert [lsn for lsn, _, _ in wal.records(since_lsn=3)] == [4, 5]
    wal.close()


def test_wal_torn_final_record_is_truncated(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    for i in range(3):
        wal.append_update({"i": i})
    wal.close()
    path = wal.segment_paths()[0]
    # Simulate a crash mid-write: a half-written frame at the tail.
    frame = encode_record(4, "update", {"i": 3})
    with open(path, "ab") as handle:
        handle.write(frame[: len(frame) // 2])

    reopened = WriteAheadLog(str(tmp_path / "wal"))
    assert reopened.truncated_records == 1
    assert reopened.last_lsn == 3
    assert len(list(reopened.records())) == 3
    # The torn bytes are physically gone; the next append reuses LSN 4.
    assert reopened.append_update({"i": "new"}) == 4
    reopened.close()
    final = WriteAheadLog(str(tmp_path / "wal"))
    assert [lsn for lsn, _, _ in final.records()] == [1, 2, 3, 4]
    final.close()


def test_wal_crc_corrupt_middle_record_refuses(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    for i in range(5):
        wal.append_update({"i": i})
    wal.close()
    path = wal.segment_paths()[0]
    with open(path, "rb") as handle:
        buf = bytearray(handle.read())
    # Flip one payload bit inside the *second* record (8-byte header +
    # payload per record, so record 2's payload starts after record 1's
    # frame plus another header).
    first_length = struct.unpack_from(">I", buf, 0)[0]
    second_payload_at = 8 + first_length + 8
    buf[second_payload_at + 4] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(buf)

    with pytest.raises(WalCorruptionError, match="refusing to skip history"):
        WriteAheadLog(str(tmp_path / "wal"))


def test_wal_lsn_gap_refuses(tmp_path):
    directory = tmp_path / "wal"
    directory.mkdir()
    with open(directory / "wal-000000000001.log", "wb") as handle:
        handle.write(encode_record(1, "update", {"i": 0}))
        handle.write(encode_record(3, "update", {"i": 2}))  # 2 missing
    with pytest.raises(WalCorruptionError, match="sequence broken"):
        WriteAheadLog(str(directory))


def test_wal_corrupt_non_final_segment_refuses(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=64)
    for i in range(10):
        wal.append_update({"i": i})
    wal.close()
    segments = wal.segment_paths()
    assert len(segments) > 2
    # Truncate an *earlier* segment: even a torn-looking tail is not
    # repairable there — only the last segment can legitimately tear.
    with open(segments[0], "r+b") as handle:
        handle.truncate(os.path.getsize(segments[0]) - 3)
    with pytest.raises(WalCorruptionError):
        WriteAheadLog(str(tmp_path / "wal"))


def test_wal_segment_rotation_and_prune(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=64)
    for i in range(10):
        wal.append_update({"i": i})
    assert len(wal.segment_paths()) > 2
    assert [lsn for lsn, _, _ in wal.records()] == list(range(1, 11))
    removed = wal.prune(upto_lsn=wal.last_lsn)
    assert removed >= 1
    # The active segment survives and the tail is still readable.
    remaining = [lsn for lsn, _, _ in wal.records()]
    assert remaining and remaining[-1] == 10
    wal.close()


def test_wal_ensure_next_lsn(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.ensure_next_lsn(41)
    assert wal.append_update({"i": 0}) == 41
    wal.close()


def test_wal_fsync_batching_counts(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"), fsync_every=2)
    for i in range(5):
        wal.append_update({"i": i})
    # 5 updates at fsync_every=2 -> fsyncs after the 2nd and 4th.
    assert wal.metrics.counter_value("durability.fsyncs") == 2
    wal.append_anchor({"payloads": [], "size": 0, "root": ""}, sync=True)
    assert wal.metrics.counter_value("durability.fsyncs") == 3
    wal.close()


# -- snapshots ----------------------------------------------------------------


def test_snapshot_self_check_skips_tampered_file(tmp_path):
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=2
    )
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(2)])
    framework.submit_many([make_update(i) for i in range(2, 4)])
    snapshotter = framework._snapshotter
    paths = snapshotter.snapshot_paths()
    assert len(paths) == 2
    framework.close()
    # Corrupt the newest snapshot; latest() must fall back to the older.
    with open(paths[-1], "r+b") as handle:
        handle.truncate(os.path.getsize(paths[-1]) - 2)
    newest_lsn = int(os.path.basename(paths[-1])[5:-5])
    lsn, _ = snapshotter.latest()
    assert lsn < newest_lsn
    # ...and recovery still reaches the full pre-crash state by
    # replaying the longer WAL tail.
    fresh, database = build(durability=durability)
    report = fresh.recover()
    assert report.snapshot_lsn == lsn
    assert report.replayed_anchors == 1
    assert report.verified_against_anchor
    assert len(database.table("emissions").rows()) == 4
    fresh.close()


def test_snapshot_restore_refuses_used_framework(tmp_path):
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=2
    )
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(2)])
    framework.close()
    used, _ = build(durability=durability)
    used.submit(make_update(99))
    with pytest.raises(DurabilityError, match="fresh instance"):
        used.recover()
    used.close()


def test_snapshot_now_and_wal_prune(tmp_path):
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=0,  # manual snapshots only
        segment_max_bytes=64,
    )
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(8)])
    segments_before = len(framework._wal.segment_paths())
    path = framework.snapshot_now()
    assert os.path.exists(path)
    assert len(framework._wal.segment_paths()) < segments_before
    framework.close()
    # Snapshot-only recovery: the WAL tail before the snapshot is gone.
    fresh, database = build(durability=durability)
    report = fresh.recover()
    assert report.snapshot_lsn is not None
    assert report.replayed_updates == 0
    assert report.verified_against_anchor
    assert len(database.table("emissions").rows()) == 8
    # LSN continuity: new records must not reuse snapshot-covered LSNs.
    fresh.submit(make_update(100))
    assert fresh._wal.last_lsn > report.snapshot_lsn
    fresh.close()


def rewrite_snapshot(path, edit):
    """Apply ``edit`` to a snapshot's body and recompute the file's
    sha256 self-check, as anyone who can write the file can."""
    with open(path, "r", encoding="utf-8") as handle:
        document = from_canonical_json(handle.read())
    edit(document["snapshot"])
    document["sha256"] = digest_canonical(document["snapshot"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document))


def snapshotted_run(tmp_path):
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=0
    )
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(4)])
    path = framework.snapshot_now()
    root = framework.ledger.digest().root
    framework.close()
    return durability, path, root


def test_recovery_refuses_a_snapshot_with_a_rewritten_decision(tmp_path):
    """The self-check is unkeyed, so it cannot catch a rewritten
    decision; the ledger root check, which covers every restored entry,
    must — recovery refuses instead of reporting the rewritten history
    verified against its anchor."""
    durability, path, _ = snapshotted_run(tmp_path)

    def forge(body):
        assert body["ledger"]["entries"][1]["status"] == "applied"
        body["ledger"]["entries"][1]["status"] = "rejected"

    rewrite_snapshot(path, forge)
    fresh, _ = build(durability=durability)
    with pytest.raises(IntegrityError, match="root mismatch"):
        fresh.recover()
    fresh.close()


def test_version_1_snapshot_still_loads(tmp_path):
    """Version 1 also stored the ledger's leaf hashes; restore ignores
    them (here: forged ones) and rehashes the entries."""
    durability, path, root = snapshotted_run(tmp_path)

    def as_version_1(body):
        body["version"] = 1
        body["ledger"]["leaf_hashes"] = ["00" * 32] * body["ledger"]["size"]

    rewrite_snapshot(path, as_version_1)
    fresh, database = build(durability=durability)
    report = fresh.recover()
    assert report.snapshot_lsn is not None and report.verified_against_anchor
    assert fresh.ledger.digest().root == root
    assert len(database.table("emissions").rows()) == 4
    fresh.close()


def test_snapshot_now_needs_snapshot_mode():
    framework, _ = build()
    with pytest.raises(DurabilityError):
        framework.snapshot_now()


# -- recovery edge cases ------------------------------------------------------


def test_recover_requires_durability():
    framework, _ = build()
    with pytest.raises(DurabilityError, match="needs durability"):
        framework.recover()


def test_recovery_empty_wal(tmp_path):
    durability = Durability.wal(durable_dir(tmp_path))
    framework, _ = build(durability=durability)
    report = framework.recover()
    assert report.replayed_updates == 0
    assert report.final_size == 0
    assert not report.verified_against_anchor  # nothing anchored yet
    # The framework serves normally after an empty recovery.
    assert framework.submit(make_update(1)).applied
    framework.close()


def test_recovery_drops_unanchored_tail(tmp_path):
    """Updates logged but never covered by an anchor marker were never
    durable decisions — recovery must drop, not replay, them."""
    durability = Durability.wal(durable_dir(tmp_path))
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(3)])
    anchored_root = framework.ledger.digest().root
    # Simulate a crash after logging two more updates but before their
    # batch anchored, by writing the update records directly.
    now = framework.clock.now()
    for i in (10, 11):
        framework._wal.append_update(
            framework._wal_update_record(make_update(i), now)
        )
    framework.close()

    fresh, database = build(durability=durability)
    report = fresh.recover()
    assert report.dropped_unanchored == 2
    assert report.replayed_updates == 3
    assert fresh.ledger.digest().root == anchored_root
    assert len(database.table("emissions").rows()) == 3
    fresh.close()


def test_recovery_refuses_when_anchor_covers_unlogged_update(tmp_path):
    """An anchor marking an update applied without its update record
    means history is missing — recovery must refuse."""
    durability = Durability.wal(durable_dir(tmp_path))
    framework, _ = build(durability=durability)
    framework.submit(make_update(1))
    framework.close()
    # Rewrite the segment keeping only the anchor record.
    wal = WriteAheadLog(os.path.join(durable_dir(tmp_path), "wal"))
    anchor = [d for _, kind, d in wal.records() if kind == "anchor"][0]
    wal.close()
    path = wal.segment_paths()[0]
    with open(path, "wb") as handle:
        handle.write(encode_record(1, "anchor", anchor))

    fresh, _ = build(durability=durability)
    with pytest.raises(WalCorruptionError, match="no update record"):
        fresh.recover()
    fresh.close()


def test_recovery_refuses_on_root_mismatch(tmp_path):
    """A well-framed anchor whose payloads were rewritten (valid CRC,
    coherent LSNs) still fails the per-batch Merkle root check."""
    durability = Durability.wal(durable_dir(tmp_path))
    framework, _ = build(durability=durability)
    framework.submit(make_update(1))
    framework.close()
    wal = WriteAheadLog(os.path.join(durable_dir(tmp_path), "wal"))
    records = list(wal.records())
    wal.close()
    (lsn1, _, update_data), (lsn2, _, anchor_data) = records
    anchor_data["payloads"][0]["status"] = "rejected"
    path = wal.segment_paths()[0]
    with open(path, "wb") as handle:
        handle.write(encode_record(lsn1, "update", update_data))
        handle.write(encode_record(lsn2, "anchor", anchor_data))

    fresh, _ = build(durability=durability)
    with pytest.raises(IntegrityError, match="disagree"):
        fresh.recover()
    fresh.close()


def test_recovery_refuses_non_fresh_framework(tmp_path):
    durability = Durability.wal(durable_dir(tmp_path))
    framework, _ = build(durability=durability)
    framework.ledger.append({"forged": True})
    with pytest.raises(DurabilityError, match="fresh instance"):
        framework.recover()
    framework.close()


# -- recovery equivalence -----------------------------------------------------


def assert_equivalent(recovered, reference, database, reference_db):
    """Recovered state matches the uninterrupted reference run."""
    assert recovered.ledger.digest().root == reference.ledger.digest().root
    assert len(recovered.ledger) == len(reference.ledger)
    assert recovered.decision_history() == reference.decision_history()
    assert (database.table("emissions").rows()
            == reference_db.table("emissions").rows())
    assert recovered.acceptance_rate() == reference.acceptance_rate()


@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_recovery_equivalence(tmp_path, engine):
    """Crash + recover converges on the uninterrupted run's state,
    including future decisions (the aggregates 'remember' correctly)."""
    bound = 100

    # Reference: uninterrupted, durability off.
    reference, reference_db = build(engine=engine, bound=bound)
    for i in range(3):
        assert reference.submit(make_update(i, co2=30)).applied

    # Durable run over the same updates, then an unclean stop.
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=2
    )
    durable, _ = build(engine=engine, durability=durability, bound=bound)
    for i in range(3):
        durable.submit(make_update(i, co2=30))
    durable.close()

    recovered, database = build(engine=engine, durability=durability,
                                bound=bound)
    report = recovered.recover()
    assert report.verified_against_anchor
    assert_equivalent(recovered, reference, database, reference_db)

    # Same decision on the same next update: 90 + 30 > 100 -> reject.
    assert not recovered.submit(make_update(3, co2=30)).applied
    assert not reference.submit(make_update(3, co2=30)).applied
    recovered.close()


def test_recovered_engine_decides_like_the_process_that_crashed(tmp_path):
    """Apply failures count in neither: the live Paillier engine's
    running total and the one ``replay_applied`` rebuilds agree on the
    next decision."""
    durability = Durability.wal(durable_dir(tmp_path))
    live, _ = build(engine="paillier", durability=durability, bound=10)
    duplicates = [dataclasses.replace(make_update(1, co2=4),
                                      update_id=f"dup-{n}") for n in range(3)]
    results = live.submit_many(duplicates)
    assert [r.applied for r in results] == [True, False, False]
    live.close()

    recovered, _ = build(engine="paillier", durability=durability, bound=10)
    assert recovered.recover().verified_against_anchor
    # 4 applied + 4 <= 10: both accept (8 + 4 would not have).
    assert live.engine.verify(make_update(2, co2=4), 0.0).accepted
    assert recovered.submit(make_update(2, co2=4)).applied
    recovered.close()


@pytest.mark.parametrize("mode", ["wal", "wal+snapshot"])
@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_recovered_results_index_the_anchored_decisions(tmp_path, engine,
                                                        mode):
    """WAL replay and snapshot restore register the decisions they
    restore: after a crash mid-stream, the recovered ``results`` read
    what an uncrashed run decided on the anchored prefix, at the ledger
    sequences the crashed process anchored them at."""
    bound = 50
    stream = [make_update(i, co2=20, org=f"org-{i % 3}") for i in range(20)]
    chunks = [stream[at:at + 4] for at in range(0, len(stream), 4)]

    reference, _ = build(engine=engine, bound=bound)
    expected = [(r.update.update_id, r.applied)
                for chunk in chunks[:4] for r in reference.submit_many(chunk)]
    assert len(expected) == 16 and 0 < reference.acceptance_rate() < 1

    directory = durable_dir(tmp_path)
    durability = (Durability.wal(directory) if mode == "wal" else
                  Durability.wal_with_snapshots(directory, snapshot_every=0))
    live, _ = build(engine=engine, durability=durability, bound=bound)
    anchored = []
    for number, chunk in enumerate(chunks[:4]):
        anchored += [(r.ledger_sequence, r.update.update_id, r.applied)
                     for r in live.submit_many(chunk)]
        if number == 1 and mode == "wal+snapshot":
            # A non-decision entry inside the snapshot, then a snapshot
            # that WAL replay of batches 3 and 4 extends.
            live.publish_state("emissions")
            live.snapshot_now()
    live.close()

    crashing, _ = build(engine=engine, bound=bound,
                        durability=durability.with_crash_after(
                            "anchor_append"))
    crashing.recover()
    with pytest.raises(SimulatedCrash):
        crashing.submit_many(chunks[4])

    recovered, _ = build(engine=engine, durability=durability, bound=bound)
    assert recovered.recover().verified_against_anchor
    results = recovered.results
    assert [(r.update_id, r.applied) for r in results] == expected
    assert [(r.ledger_sequence, r.update_id, r.applied)
            for r in results] == anchored
    assert len(results) == recovered._submitted_count == 16
    assert recovered.acceptance_rate() == reference.acceptance_rate()
    recovered.close()


def test_durability_off_is_byte_identical(tmp_path):
    """Anchored payloads never depend on the durability mode: ledger
    roots with durability off equal roots with it on."""
    off, _ = build()
    off.submit_many([make_update(i) for i in range(5)])
    modes = {
        "wal": Durability.wal,
        "wal-fsync-each": lambda d: Durability.wal(d, fsync_every=1),
        "wal+snapshot": lambda d: Durability.wal_with_snapshots(
            d, snapshot_every=3),
    }
    for label, policy in modes.items():
        on, _ = build(durability=policy(str(tmp_path / label)))
        on.submit_many([make_update(i) for i in range(5)])
        assert off.ledger.digest().root == on.ledger.digest().root, label
        on.close()


# -- crash-point matrix -------------------------------------------------------


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_at_every_point_recovers_to_last_anchor(tmp_path, point):
    """Killed at any injected crash point, recovery lands exactly on
    the last *durable* anchor: the in-flight batch survives iff its
    anchor marker reached the WAL."""
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=100
    )
    framework, _ = build(durability=durability)
    framework.submit_many([make_update(i) for i in range(3)])
    root_before = framework.ledger.digest().root
    framework.close()

    crashing, _ = build(durability=durability.with_crash_after(point))
    crashing.recover()
    assert crashing.ledger.digest().root == root_before
    with pytest.raises(SimulatedCrash):
        crashing.submit_many([make_update(i, co2=7) for i in range(10, 13)])
    root_at_crash = crashing.ledger.digest().root
    # No close(): a killed process flushes nothing extra either — every
    # record was flushed at append time, which is what a kill leaves.

    recovered, database = build(durability=durability)
    report = recovered.recover()
    assert report.verified_against_anchor
    if point == "anchor_marker":
        # The marker hit disk: the batch is durable and replays fully.
        assert recovered.ledger.digest().root == root_at_crash
        assert len(database.table("emissions").rows()) == 6
        assert report.dropped_unanchored == 0
    else:
        # Crash before the marker: the batch never became durable.
        assert recovered.ledger.digest().root == root_before
        assert len(database.table("emissions").rows()) == 3
        # wal_update/apply fire after the first update of the batch was
        # logged; anchor_append fires after all three were.
        expected_dropped = 3 if point == "anchor_append" else 1
        assert report.dropped_unanchored == expected_dropped
    # The recovered instance keeps serving.
    assert recovered.submit(make_update(50)).applied
    recovered.close()


def test_crash_point_on_single_submit(tmp_path):
    durability = Durability.wal(durable_dir(tmp_path))
    crashing, _ = build(
        durability=durability.with_crash_after("anchor_append")
    )
    with pytest.raises(SimulatedCrash):
        crashing.submit(make_update(1))
    recovered, database = build(durability=durability)
    report = recovered.recover()
    assert report.final_size == 0
    assert report.dropped_unanchored == 1
    assert database.table("emissions").rows() == []
    recovered.close()


def test_real_process_kill_recovers(tmp_path):
    """Not simulated: a child process is SIGKILLed mid-run; the parent
    recovers from whatever physically reached disk."""
    durable = durable_dir(tmp_path)
    ready = str(tmp_path / "ready")
    child_script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {os.path.join(os.getcwd(), "src")!r})
        sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
        from test_durability import build, make_update
        from repro.durability import Durability
        framework, _ = build(durability=Durability.wal({durable!r}))
        framework.submit_many([make_update(i) for i in range(20)])
        open({ready!r}, "w").write("ok")
        i = 1000
        while True:
            framework.submit_many(
                [make_update(j) for j in range(i, i + 200)]
            )
            i += 200
    """)
    process = subprocess.Popen([sys.executable, "-c", child_script])
    try:
        deadline = time.time() + 60
        while not os.path.exists(ready) and time.time() < deadline:
            time.sleep(0.05)
        assert os.path.exists(ready), "child never finished its first batch"
        time.sleep(0.2)  # let it get mid-flight in a later batch
    finally:
        process.kill()
        process.wait()

    recovered, database = build(durability=Durability.wal(durable))
    report = recovered.recover()
    assert report.replayed_anchors >= 1
    assert report.verified_against_anchor
    assert len(database.table("emissions").rows()) >= 20
    assert recovered.submit(make_update(999_999)).applied
    recovered.close()


# -- observability integration ------------------------------------------------


def test_durability_metrics_and_spans(tmp_path):
    durability = Durability.wal_with_snapshots(
        durable_dir(tmp_path), snapshot_every=2
    )
    framework, _ = build(durability=durability, tracer=Tracer())
    framework.submit_many([make_update(i) for i in range(4)])
    metrics = framework.metrics
    assert metrics.counter_value("durability.wal_records") == 5  # 4 upd + 1 anc
    assert metrics.counter_value("durability.fsyncs") >= 1
    assert metrics.counter_value("durability.snapshots") == 1
    assert metrics.timer_total("durability.wal_append") > 0.0
    assert metrics.timer_total("durability.fsync") > 0.0
    assert len(framework.tracer.spans_named("durability.wal_append")) == 5
    assert len(framework.tracer.spans_named("durability.snapshot")) == 1
    framework.close()

    fresh, _ = build(durability=durability, tracer=Tracer())
    fresh.recover()
    assert fresh.metrics.timer_total("durability.recover") > 0.0
    assert len(fresh.tracer.spans_named("durability.recover")) == 1
    fresh.close()


def test_durability_off_writes_nothing(tmp_path):
    framework, _ = build()
    framework.submit_many([make_update(i) for i in range(3)])
    framework.close()
    assert not os.path.exists(durable_dir(tmp_path))
    assert framework.metrics.counter_value("durability.wal_records") == 0


# -- policy validation --------------------------------------------------------


def test_policy_validation():
    with pytest.raises(DurabilityError, match="unknown durability mode"):
        Durability(mode="paranoid")
    with pytest.raises(DurabilityError, match="needs a directory"):
        Durability(mode="wal")
    with pytest.raises(DurabilityError, match="unknown crash point"):
        Durability.wal("/tmp/x", crash_after="nope")
    assert not Durability.off().enabled
    assert Durability.wal("/tmp/x").enabled
    assert not Durability.wal("/tmp/x").snapshots_enabled
    assert Durability.wal_with_snapshots("/tmp/x").snapshots_enabled
