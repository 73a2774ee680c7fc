"""Centralized ledger (RC4-single): proofs, auditing, tamper detection."""

import sys
import threading
import time

import pytest

from repro.common.errors import IntegrityError
from repro.ledger.audit import AuditOutcome, LedgerAuditor
from repro.ledger.central import CentralLedger, LedgerDigest


def filled(n=10):
    ledger = CentralLedger()
    for i in range(n):
        ledger.append({"update": i})
    return ledger


def test_append_and_read():
    ledger = filled(5)
    assert len(ledger) == 5
    assert ledger.entry(3).payload == {"update": 3}
    assert [e.payload["update"] for e in ledger.entries(since=3)] == [3, 4]


def test_entry_out_of_range():
    with pytest.raises(IntegrityError):
        filled(2).entry(5)


def test_entry_rejects_negative_sequences():
    ledger = filled(3)
    for sequence in (-1, -3, -4):
        with pytest.raises(IntegrityError):
            ledger.entry(sequence)


def test_find_searches_leaf_bytes_within_one_leaf():
    ledger = CentralLedger()
    ledger.append_batch([{"tag": "a"}, {"tag": "b"}, {"tag": "a"}])
    assert ledger.find(b'"tag":"a"') == 0
    assert ledger.find(b'"tag":"a"', since=1) == 2
    assert ledger.find(b'"tag":"a"', since=3) is None
    assert ledger.find(b'"tag":"c"') is None
    # The bytes across a leaf boundary are no leaf's content.
    boundary = b'"sequence":0}{"payload":'
    assert boundary in b"".join(e.leaf_bytes() for e in ledger.entries())
    assert ledger.find(boundary) is None


def test_readers_see_whole_entries_while_a_writer_appends():
    """A reader on another thread sees every entry as appended, digests
    that later reads agree with, and working ``/trace`` lookups — and
    holds no view of the leaf buffer that would stop it growing."""
    from repro.core.framework import PReVer
    from repro.database.engine import Database

    framework = PReVer([Database("db")])
    ledger = framework.ledger
    total, batch = 3200, 8
    errors, reads, digests = [], [], []

    def payload(sequence):
        return {"trace_id": f"tr-{sequence}", "i": sequence}

    def write():
        try:
            for at in range(0, total, batch):
                ledger.append_batch([payload(s) for s in range(at, at + batch)])
                time.sleep(0)  # let the reader in between batches, too
        except Exception as exc:  # pragma: no cover - the failure report
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-append as well
    writer = threading.Thread(target=write)
    writer.start()
    try:
        while writer.is_alive() or not reads:
            size = len(ledger)
            if not size:
                continue
            entry = ledger.entry(size - 1)
            since = max(0, size - 4)
            held = ledger.entries(since)
            assert entry.payload == payload(size - 1)
            assert [e.payload for e in held[:size - since]] == [
                payload(s) for s in range(since, size)]
            if len(reads) % 8 == 0:
                digests.append(ledger.digest(size))
                trail = framework.verification_trail(f"tr-{size // 2}")
                assert trail["verified"] and trail["sequence"] == size // 2
            reads.append(size)
    finally:
        writer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not errors, errors
    assert len(reads) > 1 and len(ledger) == total
    assert [e.payload for e in ledger.entries()] == [
        payload(s) for s in range(total)]
    assert digests == [ledger.digest(d.size) for d in digests]


def test_digest_changes_with_appends():
    ledger = filled(3)
    d3 = ledger.digest()
    ledger.append({"update": 3})
    d4 = ledger.digest()
    assert d3.size == 3 and d4.size == 4
    assert d3.root != d4.root


def test_inclusion_proof_verifies_against_digest():
    ledger = filled(12)
    digest = ledger.digest()
    for i in (0, 5, 11):
        entry = ledger.entry(i)
        proof = ledger.prove_inclusion(i)
        assert CentralLedger.verify_entry(digest, entry, proof)


def test_inclusion_fails_for_wrong_entry():
    ledger = filled(12)
    digest = ledger.digest()
    proof = ledger.prove_inclusion(5)
    from repro.ledger.central import LedgerEntry

    fake = LedgerEntry(sequence=5, payload={"update": 999})
    assert not CentralLedger.verify_entry(digest, fake, proof)


def test_inclusion_fails_for_wrong_digest_size():
    ledger = filled(12)
    proof = ledger.prove_inclusion(5, size=10)
    assert not CentralLedger.verify_entry(ledger.digest(), ledger.entry(5), proof)


def test_consistency_between_digests():
    ledger = filled(6)
    old = ledger.digest()
    for i in range(6, 10):
        ledger.append({"update": i})
    new = ledger.digest()
    proof = ledger.prove_consistency(old.size, new.size)
    assert CentralLedger.verify_extension(old, new, proof)


def test_tamper_detected_by_consistency():
    ledger = filled(8)
    old = ledger.digest()
    ledger.tamper_rewrite(2, {"update": "evil"})
    ledger.append({"update": 8})
    new = ledger.digest()
    proof = ledger.prove_consistency(old.size, new.size)
    assert not CentralLedger.verify_extension(old, new, proof)


def test_tamper_out_of_range():
    with pytest.raises(IntegrityError):
        filled(2).tamper_rewrite(5, {})


# -- auditor -------------------------------------------------------------------

def test_auditor_first_contact_then_consistent():
    ledger = filled(5)
    auditor = LedgerAuditor()
    report = auditor.audit(ledger)
    assert report.outcome is AuditOutcome.FIRST_CONTACT
    ledger.append({"update": 5})
    report2 = auditor.audit(ledger)
    assert report2.outcome is AuditOutcome.CONSISTENT
    assert auditor.trusted_digest.size == 6


def test_auditor_detects_rewrite():
    ledger = filled(5)
    auditor = LedgerAuditor()
    auditor.audit(ledger)
    trusted_before = auditor.trusted_digest
    ledger.tamper_rewrite(1, {"update": "evil"})
    report = auditor.audit(ledger)
    assert report.outcome is AuditOutcome.TAMPERED
    assert not report.ok
    # The auditor must NOT adopt the tampered digest.
    assert auditor.trusted_digest == trusted_before


def test_auditor_detects_history_shrink():
    ledger = filled(5)
    auditor = LedgerAuditor()
    auditor.audit(ledger)
    shrunk = filled(3)  # an attacker serving an older/shorter fork
    report = auditor.audit(shrunk)
    assert report.outcome is AuditOutcome.TAMPERED
    assert "history shrank" in report.failures


def test_auditor_spot_checks():
    ledger = filled(20)
    auditor = LedgerAuditor()
    report = auditor.audit(ledger, spot_check=5)
    assert report.ok
    assert len(report.checked_entries) == 5


def test_auditor_never_needs_payload_plaintext():
    """Auditing works over opaque payloads (commitments) — the
    privacy-preserving RC4 requirement."""
    ledger = CentralLedger()
    for i in range(4):
        ledger.append({"commitment": f"c{i}", "ciphertext": "0xdead"})
    auditor = LedgerAuditor()
    assert auditor.audit(ledger, spot_check=2).ok
