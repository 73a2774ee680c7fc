"""Byte-identity suite for the encode-once layer.

The fast canonical encoder (``repro.common.encoding``) replaced the
``json.JSONEncoder`` path under every hash, signature, Merkle leaf and
WAL frame in the repo, and the anchor stage now encodes each decision
payload exactly once, splicing the fragment into the ledger leaf and
the WAL record.  None of that may change a single byte: the legacy
encoder is kept in-tree as the oracle (``legacy_canonical_json``) and
this suite checks the new path against it across every value shape the
system produces, plus pinned end-to-end goldens (ledger root, WAL
sha256) captured against the pre-encode-once pipeline.

The caching rules are also load-bearing:

* a ``LedgerEntry`` *is* its canonical leaf bytes (the one resident
  copy of an anchored payload): immutable, compared and printed by
  ``(sequence, payload)``, decoding the payload on demand;
* mutable ``Update`` is *never* identity-cached — tamper detection
  requires that mutating a signed update changes its ``body_bytes``;
* mutable ``Constraint`` uses a key-based memo that invalidates when
  any signed field changes.

Regenerate the end-to-end goldens (only after an *intentional* format
change):

    PYTHONPATH=src python tests/test_encoding.py
"""

import dataclasses
import hashlib
import math
import os
import pickle
from enum import IntEnum

import pytest

from repro.common.encoding import (
    RawJson,
    encode_canonical,
    encode_canonical_bytes,
    legacy_canonical_json,
)
from repro.common.errors import SerializationError
from repro.common.serialization import (
    canonical_bytes,
    canonical_json,
    from_canonical_json,
)
from repro.core.contexts import single_private_database
from repro.crypto.hashing import digest_canonical
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability
from repro.ledger.central import CentralLedger, LedgerEntry
from repro.model.constraints import upper_bound_regulation
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation


# -- corpus: every value shape the system serializes ------------------------

class _Color(IntEnum):
    RED = 1


class _OddStr(str):
    pass


def _to_dict_obj():
    class Thing:
        def to_dict(self):
            return {"kind": "thing", "n": 3}
    return Thing()


CORPUS = [
    None,
    True,
    False,
    0,
    -1,
    2 ** 300,                       # big int (beyond float precision)
    1.5,
    -0.0,
    float("inf"),
    float("-inf"),
    "",
    "plain",
    'quotes " and \\ backslash',
    "unicode é€\U0001f600",
    "control \x00\x1f chars",
    b"",
    b"\x00\xff\xa5",
    [],
    {},
    (),
    [1, "two", None, [3, [4]]],
    {"b": 1, "a": 2, "nested": {"z": [1, 2], "y": {}}},
    {"payload": {"id": 7, "org": "org3", "co2": 10},
     "update_id": "upd-0000007", "table": "emissions",
     "operation": "insert", "producers": ["alice", "bob"],
     "managers": [], "visibility": "private", "key": None},
    {"update_id": "upd-0000007", "table": "emissions", "status": "applied",
     "decision": {"accepted": True, "engine": "plaintext",
                  "constraint_ids": ["cst-emissions-cap"],
                  "failed_constraint": None},
     "timestamp": 7.0},               # the anchored decision-record shape
    {"mixed": [True, False, None, 0, 1.25, "s", b"\x01", {"k": []}]},
    {"tagged": b"\xde\xad\xbe\xef"},
    _Color.RED,                     # int subclass → fallback path
    _OddStr("substr"),              # str subclass → fallback path
    {"enum": _Color.RED, "deep": [[_Color.RED]]},
]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_fast_encoder_matches_legacy(index):
    value = CORPUS[index]
    assert encode_canonical(value) == legacy_canonical_json(value)
    assert (encode_canonical_bytes(value)
            == legacy_canonical_json(value).encode("utf-8"))


def test_nonfinite_floats_match_legacy():
    for value in (float("inf"), float("-inf")):
        assert encode_canonical(value) == legacy_canonical_json(value)
    # NaN != NaN, so compare the emitted text directly.
    assert encode_canonical(float("nan")) == "NaN"
    assert legacy_canonical_json(float("nan")) == "NaN"


def test_to_dict_hook_matches_legacy():
    obj = _to_dict_obj()
    assert encode_canonical(obj) == legacy_canonical_json(obj)
    assert encode_canonical([obj, {"o": obj}]) == legacy_canonical_json(
        [obj, {"o": obj}]
    )


def test_roundtrip_property():
    for value in CORPUS:
        try:
            text = canonical_json(value)
        except SerializationError:
            continue
        decoded = from_canonical_json(text)
        # Canonical JSON collapses tuples to lists and enum members to
        # their values; re-encoding must reach a fixed point.
        assert canonical_json(decoded) == text


def test_non_string_keys_rejected_like_legacy():
    bad = [{1: "a"}, {"outer": {2: "b"}}, {"k": [{None: 1}]},
           {1: "a", "b": 2}]
    for value in bad:
        with pytest.raises(SerializationError):
            encode_canonical(value)
        with pytest.raises(SerializationError):
            legacy_canonical_json(value)


def test_unserializable_rejected():
    with pytest.raises(SerializationError):
        encode_canonical(object())
    with pytest.raises(SerializationError):
        encode_canonical({"k": {1, 2}})


# -- RawJson splicing -------------------------------------------------------

def test_rawjson_splice_equals_direct_encoding():
    payload = CORPUS[22]  # the update-shaped dict
    encoded = encode_canonical(payload)
    spliced = encode_canonical(
        {"sequence": 41, "payload": RawJson(encoded)}
    )
    direct = encode_canonical({"sequence": 41, "payload": payload})
    assert spliced == direct


def test_rawjson_splice_in_lists():
    items = [{"a": 1}, {"b": [2, 3]}]
    fragments = [RawJson(encode_canonical(item)) for item in items]
    assert encode_canonical(fragments) == encode_canonical(items)


# -- zero-recompute ledger paths --------------------------------------------

def test_ledger_entry_leaf_bytes_cached_and_stable():
    entry = LedgerEntry(sequence=3, payload={"k": "v", "n": 9})
    first = entry.leaf_bytes()
    assert entry.leaf_bytes() is first  # the stored bytes, not a re-encode
    assert first == canonical_bytes(
        {"sequence": 3, "payload": {"k": "v", "n": 9}}
    )


def test_ledger_entry_frozen():
    entry = LedgerEntry(sequence=0, payload={"a": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.sequence = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.payload = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        del entry.sequence
    assert not hasattr(entry, "__dict__")  # slotted: nothing to memoise on


def test_ledger_entry_compares_and_prints_by_sequence_and_payload():
    entry = LedgerEntry(sequence=4, payload={"b": [1, 2], "a": "x"})
    same = LedgerEntry(sequence=4, payload={"a": "x", "b": (1, 2)})
    assert entry == same and hash(entry) == hash(same)
    assert entry != LedgerEntry(sequence=5, payload={"b": [1, 2], "a": "x"})
    assert entry != LedgerEntry(sequence=4, payload={"b": [1, 3], "a": "x"})
    assert entry != (4, {"b": [1, 2], "a": "x"})
    assert repr(entry) == (
        "LedgerEntry(sequence=4, payload={'a': 'x', 'b': [1, 2]})"
    )


def test_ledger_entry_pickle_round_trip():
    entry = LedgerEntry(sequence=9, payload={"blob": b"\x00\xff", "n": 1})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(entry, protocol))
        assert clone == entry
        assert clone.leaf_bytes() == entry.leaf_bytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.sequence = 0


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_ledger_entry_payload_decodes_what_was_appended(index):
    value = CORPUS[index]
    ledger = CentralLedger()
    plain = ledger.append(value)
    spliced = LedgerEntry.with_encoded_payload(0, canonical_json(value))
    assert plain.leaf_bytes() == spliced.leaf_bytes() == canonical_bytes(
        {"sequence": 0, "payload": value}
    )
    assert plain.encoded_payload() == canonical_json(value)
    decoded = ledger.entry(0).payload
    # Tuples come back as lists and subclasses as their base type:
    # the decode is the anchored value, a fixed point of the encoder.
    assert decoded == from_canonical_json(canonical_json(value))
    assert canonical_json(decoded) == canonical_json(value)


def test_pre_encoded_append_matches_plain_append():
    payloads = [{"id": i, "blob": b"\x01" * i, "note": f"n{i}"}
                for i in range(12)]
    plain = CentralLedger(name="plain")
    for payload in payloads:
        plain.append(payload)
    spliced = CentralLedger(name="spliced")
    spliced.append_batch(
        payloads, encoded_payloads=[canonical_json(p) for p in payloads]
    )
    assert plain.digest() == spliced.digest()
    for i in range(len(payloads)):
        assert plain.entry(i).leaf_bytes() == spliced.entry(i).leaf_bytes()


def test_pre_encoded_append_length_mismatch_rejected():
    from repro.common.errors import IntegrityError
    ledger = CentralLedger()
    with pytest.raises(IntegrityError):
        ledger.append_batch([{"a": 1}, {"b": 2}], encoded_payloads=["{}"])


# -- mutation hazards -------------------------------------------------------

def test_update_body_bytes_not_cached():
    """Tamper-detection semantics: mutating a signed update MUST change
    its body bytes, so Update is never identity-cached."""
    update = Update(table="t", operation=UpdateOperation.INSERT,
                    payload={"hours": 1}, update_id="u-1")
    before = update.body_bytes()
    update.payload["hours"] = 99
    assert update.body_bytes() != before


def test_constraint_body_memo_invalidates_on_mutation():
    constraint = upper_bound_regulation("cap", "t", "v", 100, ["org"])
    before = constraint.body_bytes()
    assert constraint.body_bytes() is before  # memo hit
    constraint.constraint_id = "cst-pinned"
    after = constraint.body_bytes()
    assert after != before
    assert b"cst-pinned" in after


def test_digest_canonical_matches_manual_idiom():
    value = {"view": 3, "digest": "abc", "seq": 9}
    assert digest_canonical(value) == hashlib.sha256(
        canonical_bytes(value)
    ).hexdigest()
    assert digest_canonical(value, domain=b"D") == hashlib.sha256(
        b"D" + canonical_bytes(value)
    ).hexdigest()


# -- end-to-end goldens (pre-encode-once pipeline) --------------------------
#
# Captured against commit d22fdb9 (before this change) with the fully
# deterministic workload below: SimClock timestamps, pinned update and
# constraint ids.  The encode-once pipeline must reproduce them
# byte-for-byte on the batched and single-update paths.

GOLDEN_ROOT = "3bb144e6e2129fba00fadb9db9eb9f53a19898869e2b5619567633c71defdf4e"
GOLDEN_WAL_BATCHED = (
    "a95723911f253e3e89ec4f3d673002d9d3949a9620f7c285266d127e6bead043"
)
GOLDEN_WAL_SINGLE = (
    "389895ddcbd2b0c00582ac7182e7be63f98486c44dbcd7b2cd01933ce9081c27"
)
GOLDEN_LEAF3_SHA = (
    "569702dcea6d6b4cab02f4926a5226fd1ca0b67aabc448aa6b71174eed22e960"
)
GOLDEN_BODY_SHA = (
    "1af46d5731056599630b05ef74d0cbad6e6025620259067ece39f2daa4e3effd"
)


def _build_framework(state_dir, tracer=None):
    db = Database("mgr")
    db.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    ))
    reg = upper_bound_regulation("cap", "emissions", "co2", 10 ** 7, ["org"])
    reg.constraint_id = "cst-emissions-cap"
    return single_private_database(
        db, [reg], engine="plaintext", durability=Durability.wal(state_dir),
        tracer=tracer,
    )


def _stream(n):
    return [
        Update(table="emissions", operation=UpdateOperation.INSERT,
               payload={"id": i, "org": f"org{i % 8}", "co2": 10},
               update_id=f"upd-{i:07d}")
        for i in range(n)
    ]


def _wal_sha(state_dir):
    sha = hashlib.sha256()
    wal_dir = os.path.join(state_dir, "wal")
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def test_golden_batched_root_and_wal(tmp_path):
    fw = _build_framework(str(tmp_path))
    stream = _stream(60)
    for i in range(0, 60, 20):
        fw.submit_many(stream[i:i + 20])
    fw.close()
    assert fw.ledger.digest().root.hex() == GOLDEN_ROOT
    assert _wal_sha(str(tmp_path)) == GOLDEN_WAL_BATCHED
    leaf3 = hashlib.sha256(fw.ledger.entry(3).leaf_bytes()).hexdigest()
    assert leaf3 == GOLDEN_LEAF3_SHA


def test_golden_single_root_and_wal(tmp_path):
    fw = _build_framework(str(tmp_path))
    for update in _stream(60):
        fw.submit(update)
    fw.close()
    assert fw.ledger.digest().root.hex() == GOLDEN_ROOT
    assert _wal_sha(str(tmp_path)) == GOLDEN_WAL_SINGLE


def test_golden_signature_body():
    update = Update(table="emissions", operation=UpdateOperation.INSERT,
                    payload={"id": 1, "org": "org1", "co2": 10},
                    update_id="upd-fixed", producers=["alice"])
    body = hashlib.sha256(update.body_bytes()).hexdigest()
    assert body == GOLDEN_BODY_SHA


def test_trace_reuses_cached_leaf_bytes(tmp_path, monkeypatch):
    """The /trace re-verification path (verification_trail →
    CentralLedger.verify_entry) must check the entry's stored leaf
    bytes, not re-encode a payload — and the proof must still verify."""
    from repro.ledger import central
    from repro.obs.tracing import Tracer

    fw = _build_framework(str(tmp_path), tracer=Tracer())
    results = fw.submit_many(_stream(8))
    fw.close()
    leaf_encodes = []
    encode = central.encode_canonical
    monkeypatch.setattr(
        central, "encode_canonical",
        lambda value: leaf_encodes.append(value) or encode(value),
    )
    entry = fw.ledger.entry(5)
    digest = fw.ledger.digest()
    proof = fw.ledger.prove_inclusion(5)
    assert CentralLedger.verify_entry(digest, entry, proof)
    trail = fw.verification_trail(results[5].trace_id)
    assert trail["verified"] and trail["sequence"] == 5
    assert trail["payload"] == entry.payload
    assert leaf_encodes == []  # neither path built leaf bytes again
    # The wrapper does count: a forged entry has to encode its payload.
    LedgerEntry(sequence=5, payload=trail["payload"])
    assert len(leaf_encodes) == 1


def test_trace_builds_only_the_matching_entry(tmp_path, monkeypatch):
    """/trace finds its trace id with one search over the packed leaf
    bytes: it builds the matching entry and no other, and an unknown
    trace id builds none."""
    from repro.obs.tracing import Tracer

    fw = _build_framework(str(tmp_path), tracer=Tracer())
    results = fw.submit_many(_stream(40))
    fw.close()
    built = []
    from_leaf = LedgerEntry._from_leaf
    monkeypatch.setattr(LedgerEntry, "_from_leaf", classmethod(
        lambda cls, sequence, leaf:
            built.append(sequence) or from_leaf(sequence, leaf)))
    trail = fw.verification_trail(results[31].trace_id)
    assert trail["verified"] and trail["sequence"] == 31
    assert built == [31]
    built.clear()
    assert fw.verification_trail("tr-none") is None
    assert built == []


if __name__ == "__main__":
    # Golden regeneration helper (see module docstring).
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fw = _build_framework(tmp)
        stream = _stream(60)
        for i in range(0, 60, 20):
            fw.submit_many(stream[i:i + 20])
        fw.close()
        print("GOLDEN_ROOT =", repr(fw.ledger.digest().root.hex()))
        print("GOLDEN_WAL_BATCHED =", repr(_wal_sha(tmp)))
        print("GOLDEN_LEAF3_SHA =", repr(
            hashlib.sha256(fw.ledger.entry(3).leaf_bytes()).hexdigest()
        ))
    with tempfile.TemporaryDirectory() as tmp:
        fw = _build_framework(tmp)
        for update in _stream(60):
            fw.submit(update)
        fw.close()
        print("GOLDEN_WAL_SINGLE =", repr(_wal_sha(tmp)))
    update = Update(table="emissions", operation=UpdateOperation.INSERT,
                    payload={"id": 1, "org": "org1", "co2": 10},
                    update_id="upd-fixed", producers=["alice"])
    print("GOLDEN_BODY_SHA =", repr(
        hashlib.sha256(update.body_bytes()).hexdigest()
    ))
