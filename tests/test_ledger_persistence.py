"""Ledger persistence: the durability snapshot's ledger state, written
to a file and restored, with at-rest tamper detection."""

import pytest

from repro.common.errors import IntegrityError
from repro.common.serialization import canonical_json, from_canonical_json
from repro.durability.snapshot import Snapshotter
from repro.ledger.central import CentralLedger


def filled(n=6):
    ledger = CentralLedger(name="audit-log")
    for i in range(n):
        ledger.append({"update": i, "blob": bytes([i])})
    return ledger


def save(ledger, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(ledger.snapshot_state()))


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return from_canonical_json(handle.read())


def restored_from(state):
    ledger = CentralLedger(name="restored")
    ledger.restore_state(state)
    return ledger


def test_snapshot_restore_roundtrip(tmp_path):
    path = str(tmp_path / "ledger.json")
    original = filled()
    save(original, path)
    restored = restored_from(read(path))
    assert len(restored) == len(original)
    assert restored.digest() == original.digest()
    assert restored.entry(3).payload == {"update": 3, "blob": b"\x03"}
    assert restored.entries() == original.entries()


def test_proofs_survive_reload(tmp_path):
    path = str(tmp_path / "ledger.json")
    original = filled()
    digest = original.digest()
    save(original, path)
    restored = restored_from(read(path))
    proof = restored.prove_inclusion(2)
    assert CentralLedger.verify_entry(digest, restored.entry(2), proof)


def test_tampered_file_rejected(tmp_path):
    """A rewritten entry under the honest root is refused: the tree is
    rebuilt from the restored entries, not from stored leaf hashes."""
    path = str(tmp_path / "ledger.json")
    save(filled(), path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert text.count('"update":2') == 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"update":2', '"update":999'))
    ledger = CentralLedger(name="restored")
    with pytest.raises(IntegrityError, match="root mismatch"):
        ledger.restore_state(read(path))
    assert len(ledger) == 0  # nothing of the refused state stays


def test_truncated_file_rejected(tmp_path):
    path = str(tmp_path / "ledger.json")
    save(filled(), path)
    state = read(path)
    state["entries"] = state["entries"][:-2]
    with pytest.raises(IntegrityError, match="size mismatch"):
        restored_from(state)
    state["size"] -= 2
    with pytest.raises(IntegrityError, match="root mismatch"):
        restored_from(state)


def test_reordered_file_rejected(tmp_path):
    path = str(tmp_path / "ledger.json")
    save(filled(), path)
    state = read(path)
    entries = state["entries"]
    entries[1], entries[2] = entries[2], entries[1]
    with pytest.raises(IntegrityError, match="root mismatch"):
        restored_from(state)


def test_empty_file_rejected(tmp_path):
    """An empty snapshot file fails the self-check and is skipped."""
    snapshotter = Snapshotter(str(tmp_path))
    open(str(tmp_path / "snap-000000000001.json"), "w").close()
    assert len(snapshotter.snapshot_paths()) == 1
    assert snapshotter.latest() is None


def test_empty_ledger_roundtrips(tmp_path):
    path = str(tmp_path / "ledger.json")
    original = CentralLedger(name="fresh")
    save(original, path)
    restored = restored_from(read(path))
    assert len(restored) == 0
    assert restored.digest() == original.digest()


def test_reloaded_ledger_keeps_appending(tmp_path):
    path = str(tmp_path / "ledger.json")
    original = filled(3)
    old_digest = original.digest()
    save(original, path)
    restored = restored_from(read(path))
    restored.append({"update": 3, "blob": b"\x03"})
    original.append({"update": 3, "blob": b"\x03"})
    assert restored.digest() == original.digest()
    proof = restored.prove_consistency(3, 4)
    assert CentralLedger.verify_extension(old_digest, restored.digest(), proof)


def test_restore_refuses_a_non_empty_ledger():
    with pytest.raises(IntegrityError, match="non-empty"):
        filled(2).restore_state(filled(2).snapshot_state())
