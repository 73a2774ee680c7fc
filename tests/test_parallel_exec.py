"""The multicore execution layer (``repro.parallel``).

Two families of guarantees:

* executor mechanics — chunk splitting, order preservation, the inline
  small-batch fast path, and env-driven selection;
* equivalence — decisions, applied rows, ledger roots and proofs are
  byte-identical whichever executor runs the crypto, for the plaintext
  and Paillier engines, batch signature verification, and the Paillier
  batch primitives.

Also covers the satellite edge cases: a tampered signature inside an
otherwise-valid batch, empty batches, batches of one, non-coprime
Paillier ciphertexts, and the per-stage ``throughput_report`` rates.
"""

import math
import os
import pickle

import pytest

from repro.common.errors import PReVerError
from repro.common.metrics import MetricsRegistry
from repro.common.randomness import deterministic_rng
from repro.core.contexts import single_private_database
from repro.core.framework import PReVer
from repro.crypto.group import SchnorrGroup
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierError,
    PaillierPublicKey,
    decrypt_batch,
    encrypt_batch,
    fold_ciphertexts,
)
from repro.crypto.signatures import SchnorrSignature, SchnorrSigner, verify_batch
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.ledger.central import CentralLedger
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation
from repro.obs.tracing import Tracer
from repro.parallel import (
    SERIAL_EXECUTOR,
    ParallelExecutor,
    SerialExecutor,
    executor_from_env,
    make_executor,
    resolve_executor,
    split_chunks,
)
from repro.parallel.executors import TARGET_CHUNK_SECONDS


def _double(chunk):
    return [x * 2 for x in chunk]


def _pids(chunk):
    return [os.getpid()] * len(chunk)


def small_parallel(workers=2, tracer=None):
    """A pool executor forced past the inline threshold for tiny
    test batches."""
    return ParallelExecutor(workers=workers, min_items=2, tracer=tracer)


# -- executor mechanics -----------------------------------------------------

def test_split_chunks_shapes_and_order():
    assert split_chunks([], 4) == []
    assert split_chunks([1, 2, 3], 1) == [[1, 2, 3]]
    assert split_chunks([1, 2], 5) == [[1], [2]]  # never empty chunks
    chunks = split_chunks(list(range(10)), 3)
    assert [len(c) for c in chunks] == [4, 3, 3]  # near-even
    assert [x for c in chunks for x in c] == list(range(10))


def test_serial_executor_runs_inline():
    assert SerialExecutor().map_chunks(_double, [1, 2, 3]) == [2, 4, 6]
    assert SerialExecutor().map_chunks(_double, []) == []
    assert SERIAL_EXECUTOR.parallel is False


def test_parallel_executor_preserves_input_order():
    out = small_parallel().map_chunks(_double, list(range(100)))
    assert out == [x * 2 for x in range(100)]


def test_parallel_executor_inlines_small_batches():
    executor = ParallelExecutor(workers=2, min_items=8)
    pids = executor.map_chunks(_pids, list(range(4)))
    assert pids == [os.getpid()] * 4  # below min_items: no pool traffic


def test_chunk_planner_sizes_fan_out_from_measured_cost():
    """Clock-free: the per-label cost table is fed through ``_observe``
    with hand-picked elapsed times."""
    executor = ParallelExecutor(workers=4)
    # Unmeasured label: full fan-out (expensive until proven cheap).
    assert executor._plan_chunks("fresh", 64) == 4
    # Cheap: 64 items at 1 us each is far below one target chunk.
    executor._observe("cheap", n_items=64, elapsed=64e-6, n_chunks=1)
    assert executor._plan_chunks("cheap", 64) == 1
    # Expensive: a pooled batch reports wall time, so 2.5 ms over 4
    # chunks of 100 items is 100 us per item serial-equivalent.
    executor._observe("dear", n_items=100, elapsed=0.0025, n_chunks=4)
    assert executor._cost_ewma["dear"] == pytest.approx(100e-6)
    predicted = 100e-6 * 120
    assert executor._plan_chunks("dear", 120) == \
        math.ceil(predicted / TARGET_CHUNK_SECONDS) == 3
    assert executor._plan_chunks("dear", 10_000) == 4  # capped at workers
    # Later samples fold in as an EWMA; empty or unclocked batches don't.
    executor._observe("dear", n_items=100, elapsed=0.005, n_chunks=4)
    assert executor._cost_ewma["dear"] == pytest.approx(
        0.3 * 200e-6 + 0.7 * 100e-6)
    executor._observe("dear", n_items=0, elapsed=1.0, n_chunks=1)
    executor._observe("dear", n_items=10, elapsed=0.0, n_chunks=1)
    assert executor._cost_ewma["dear"] == pytest.approx(130e-6)


def test_measured_cheap_label_stops_paying_pool_round_trips():
    executor = small_parallel()
    executor._observe("unit.pids", n_items=10, elapsed=10e-6, n_chunks=1)
    pids = executor.map_chunks(_pids, list(range(10)), label="unit.pids")
    assert pids == [os.getpid()] * 10


def test_parallel_executor_rejects_bad_worker_count():
    with pytest.raises(PReVerError):
        ParallelExecutor(workers=0)
    with pytest.raises(PReVerError):
        make_executor("thread")


def test_env_driven_selection():
    assert isinstance(executor_from_env({}), SerialExecutor)
    assert isinstance(executor_from_env({"REPRO_EXECUTOR": "serial"}),
                      SerialExecutor)
    chosen = executor_from_env(
        {"REPRO_EXECUTOR": "process", "REPRO_WORKERS": "2"}
    )
    assert isinstance(chosen, ParallelExecutor)
    assert chosen.workers == 2


def test_resolve_executor_prefers_explicit(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    explicit = SerialExecutor()
    assert resolve_executor(explicit) is explicit
    assert isinstance(resolve_executor(None), ParallelExecutor)
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    assert isinstance(resolve_executor(None), SerialExecutor)


def test_parallel_map_records_spans():
    tracer = Tracer()
    executor = small_parallel(tracer=tracer)
    executor.map_chunks(_double, list(range(10)), label="unit.double")
    maps = tracer.spans_named("parallel.map")
    assert len(maps) == 1
    span = maps[0]
    assert span.attributes["label"] == "unit.double"
    assert span.attributes["workers"] == 2
    assert span.attributes["items"] == 10
    chunks = tracer.spans_named("parallel.chunk")
    assert len(chunks) == span.attributes["chunks"]
    assert all(c.parent_id == span.span_id for c in chunks)


# -- pipeline equivalence ---------------------------------------------------

def make_db(name="db"):
    db = Database(name)
    db.create_table(
        TableSchema.build(
            "events",
            [("id", ColumnType.INT), ("who", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def cap_constraint(bound=55):
    # Pinned constraint_id so failed_constraint compares equal across
    # independently built frameworks.
    template = upper_bound_regulation("cap", "events", "amount", bound, ["who"])
    return Constraint(
        name="cap", kind=ConstraintKind.INTERNAL,
        aggregate=template.aggregate, comparison=template.comparison,
        bound=bound, tables=("events",), constraint_id="cst-cap",
    )


def make_update(i, who="w", amount=10, update_id=None):
    return Update(
        table="events", operation=UpdateOperation.INSERT,
        payload={"id": i, "who": who, "amount": amount},
        update_id=update_id or f"upd-{i:05d}",
    )


def mixed_stream():
    # alice exceeds the 55 cap on her 6th update of 10; bob stays under.
    return [make_update(i, who=("alice" if i % 2 == 0 else "bob"),
                        update_id=f"x-{i:03d}")
            for i in range(14)]


def assert_frameworks_equivalent(serial_fw, parallel_fw,
                                 serial_results, parallel_results):
    assert len(serial_results) == len(parallel_results)
    for s, p in zip(serial_results, parallel_results):
        assert s.accepted == p.accepted
        assert s.applied == p.applied
        assert s.ledger_sequence == p.ledger_sequence
        assert s.outcome.failed_constraint == p.outcome.failed_constraint
        assert s.update.status == p.update.status
    serial_rows = sorted(
        r["id"] for r in serial_fw.databases[0].table("events").scan())
    parallel_rows = sorted(
        r["id"] for r in parallel_fw.databases[0].table("events").scan())
    assert serial_rows == parallel_rows
    serial_digest = serial_fw.ledger.digest()
    parallel_digest = parallel_fw.ledger.digest()
    assert serial_digest.size == parallel_digest.size
    assert serial_digest.root == parallel_digest.root
    for sequence in range(len(parallel_fw.ledger)):
        proof = parallel_fw.ledger.prove_inclusion(sequence)
        entry = parallel_fw.ledger.entry(sequence)
        assert CentralLedger.verify_entry(serial_digest, entry, proof)


@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_submit_many_parallel_matches_serial(engine):
    def build(executor):
        return single_private_database(
            make_db("mgr"), [cap_constraint()], engine=engine,
            executor=executor)

    serial_fw = build(SerialExecutor())
    parallel_fw = build(small_parallel())
    serial_results = serial_fw.submit_many(mixed_stream())
    parallel_results = parallel_fw.submit_many(mixed_stream())
    assert any(not r.accepted for r in serial_results)
    assert any(r.applied for r in serial_results)
    assert_frameworks_equivalent(
        serial_fw, parallel_fw, serial_results, parallel_results)


def test_signed_batch_parallel_matches_serial():
    producer = DataProducer("alice")

    def stream():
        good = make_update(1, update_id="s-1").sign_with(producer)
        tampered = make_update(2, update_id="s-2").sign_with(producer)
        tampered.payload["amount"] = 999
        unsigned = make_update(3, update_id="s-3")
        more = [make_update(i, update_id=f"s-{i}").sign_with(producer)
                for i in range(4, 10)]
        return [good, tampered, unsigned, *more]

    serial_fw = PReVer([make_db()], require_signed_updates=True,
                       executor=SerialExecutor())
    parallel_fw = PReVer([make_db()], require_signed_updates=True,
                         executor=small_parallel())
    serial_results = serial_fw.submit_many(stream())
    parallel_results = parallel_fw.submit_many(stream())
    assert parallel_results[1].outcome.failed_constraint == "bad signature"
    assert parallel_results[2].outcome.failed_constraint == "unsigned update"
    assert_frameworks_equivalent(
        serial_fw, parallel_fw, serial_results, parallel_results)


def test_framework_traces_parallel_spans():
    tracer = Tracer()
    framework = single_private_database(
        make_db("mgr"), [cap_constraint()], engine="paillier",
        tracer=tracer, executor=small_parallel())
    framework.submit_many(mixed_stream())
    maps = tracer.spans_named("parallel.map")
    assert maps, "parallel paillier preparation should record map spans"
    assert all(span.attributes["workers"] == 2 for span in maps)
    assert "paillier.encrypt" in {span.attributes["label"] for span in maps}
    assert tracer.spans_named("parallel.chunk")


# -- batch signature verification -------------------------------------------

def test_verify_batch_empty_and_single():
    assert verify_batch([]) == []
    signer = SchnorrSigner()
    signature = signer.sign(b"solo")
    assert verify_batch([(signer.public_key, b"solo", signature)]) == [True]
    assert verify_batch([(signer.public_key, b"other", signature)]) == [False]


@pytest.mark.parametrize("executor", [None, "process"])
def test_verify_batch_pinpoints_tampered_signature(executor):
    executor = small_parallel() if executor == "process" else executor
    signers = [SchnorrSigner() for _ in range(6)]
    items = []
    for i, signer in enumerate(signers):
        message = f"msg-{i}".encode()
        items.append((signer.public_key, message, signer.sign(message)))
    pk, message, signature = items[3]
    items[3] = (pk, message, SchnorrSignature(
        commitment=signature.commitment,
        response=(signature.response + 1) % signers[3].group.q,
    ))
    verdicts = verify_batch(items, executor=executor)
    assert verdicts == [True, True, True, False, True, True]


def test_verify_batch_rejects_non_member_commitment():
    group = SchnorrGroup.default()
    signer = SchnorrSigner(group)
    good = signer.sign(b"ok")
    # p - 1 ≡ -1 is a quadratic non-residue mod a safe prime, so it
    # fails subgroup membership before the combined equation runs.
    bad = SchnorrSignature(commitment=group.p - 1, response=good.response)
    verdicts = verify_batch([
        (signer.public_key, b"ok", good),
        (signer.public_key, b"ok", bad),
    ])
    assert verdicts == [True, False]


def test_verify_batch_matches_per_signature_for_all_bad():
    signers = [SchnorrSigner() for _ in range(3)]
    items = [(s.public_key, b"m", s.sign(b"other")) for s in signers]
    assert verify_batch(items) == [False, False, False]


# -- Paillier batch primitives ----------------------------------------------

def test_encrypt_batch_parallel_equals_serial_with_seeded_rng(paillier):
    plaintexts = [3, 1, 4, 1, 5, 9, 2, 6]
    serial = encrypt_batch(paillier.public_key, plaintexts,
                           rng=deterministic_rng(11))
    parallel = encrypt_batch(paillier.public_key, plaintexts,
                             executor=small_parallel(),
                             rng=deterministic_rng(11))
    assert [c.value for c in serial] == [c.value for c in parallel]


def test_decrypt_and_fold_batch_parallel_equals_serial(paillier):
    plaintexts = [7, -2, 40, 0, -13, 5]
    ciphertexts = encrypt_batch(paillier.public_key, plaintexts, signed=True)
    serial = decrypt_batch(paillier.private_key, ciphertexts, signed=True)
    parallel = decrypt_batch(paillier.private_key, ciphertexts, signed=True,
                             executor=small_parallel())
    assert serial == parallel == plaintexts
    folded_serial = fold_ciphertexts(ciphertexts)
    folded_parallel = fold_ciphertexts(ciphertexts, executor=small_parallel())
    assert folded_serial.value == folded_parallel.value
    assert paillier.private_key.decrypt_signed(folded_parallel) == sum(plaintexts)


def test_weighted_fold_encrypts_weighted_sum(paillier):
    plaintexts = [7, -2, 40, 0, -13, 5]
    weights = [1, 3, 0, 2, 5, 1]
    ciphertexts = encrypt_batch(paillier.public_key, plaintexts, signed=True)
    expected = sum(w * m for w, m in zip(weights, plaintexts))
    serial = fold_ciphertexts(ciphertexts, weights=weights)
    parallel = fold_ciphertexts(ciphertexts, weights=weights,
                                executor=small_parallel())
    assert serial.value == parallel.value
    assert paillier.private_key.decrypt_signed(serial) == expected
    # The multi-exp fold equals the naive scalar-multiply-then-fold.
    naive = fold_ciphertexts([c * w for c, w in zip(ciphertexts, weights)])
    assert paillier.private_key.decrypt_signed(naive) == expected
    with pytest.raises(PaillierError):
        fold_ciphertexts(ciphertexts, weights=weights[:-1])


def test_fold_empty_batch(paillier):
    identity = fold_ciphertexts([], public_key=paillier.public_key)
    assert identity.value == 1
    assert paillier.private_key.decrypt(identity) == 0
    with pytest.raises(PaillierError):
        fold_ciphertexts([])


def test_encrypt_batch_signed_range_check(paillier):
    with pytest.raises(PaillierError):
        encrypt_batch(paillier.public_key, [paillier.public_key.n // 2],
                      signed=True)


@pytest.mark.parametrize("executor", [None, "process"])
def test_non_coprime_ciphertext_rejected(paillier, executor):
    executor = small_parallel() if executor == "process" else executor
    # gcd(p, n) = p: the L-function's division by n is undefined, and a
    # well-formed encryptor can never emit such a value.
    bogus = PaillierCiphertext(public_key=paillier.public_key,
                               value=paillier.private_key.p)
    good = paillier.public_key.encrypt(5)
    with pytest.raises(PaillierError, match="coprime"):
        decrypt_batch(paillier.private_key, [good, bogus], executor=executor)
    with pytest.raises(PaillierError, match="coprime"):
        paillier.private_key.decrypt(bogus)
    with pytest.raises(PaillierError, match="coprime"):
        paillier.private_key.decrypt_classic(bogus)


def test_public_key_pickles_without_randomness_pool(paillier):
    key = PaillierPublicKey(paillier.public_key.n)
    key.precompute_randomness(4, rng=deterministic_rng(3))
    assert key.randomness_pool_size == 4
    clone = pickle.loads(pickle.dumps(key))
    assert clone.n == key.n
    assert clone.randomness_pool_size == 0  # pools are per-process
    private_clone = pickle.loads(pickle.dumps(paillier.private_key))
    assert private_clone.decrypt(clone.encrypt(42)) == 42


def test_randomness_pool_drains_fifo_deterministically(paillier):
    first = PaillierPublicKey(paillier.public_key.n)
    second = PaillierPublicKey(paillier.public_key.n)
    first.precompute_randomness(6, rng=deterministic_rng(9))
    second.precompute_randomness(6, rng=deterministic_rng(9))
    serial = [first.encrypt(m).value for m in range(6)]
    batched = [c.value for c in encrypt_batch(second, list(range(6)))]
    assert serial == batched  # same seed, same drain order
    assert first.randomness_pool_size == 0
    assert second.randomness_pool_size == 0


# -- metrics ----------------------------------------------------------------

def test_throughput_report_rates_use_stage_wall_time():
    registry = MetricsRegistry()
    for _ in range(4):
        registry.counter("pipeline.updates").add()
        registry.timer("pipeline.stage.verify").record(0.5)
        registry.timer("pipeline.stage.apply").record(0.25)
    report = registry.throughput_report()
    verify = report["stages"]["verify"]
    apply_ = report["stages"]["apply"]
    # Per-stage rate comes from that stage's own wall time, not the
    # summed elapsed across stages (which would report 4/3 for both).
    assert verify["per_sec"] == pytest.approx(4 / 2.0)
    assert apply_["per_sec"] == pytest.approx(4 / 1.0)
    assert report["total_seconds"] == pytest.approx(3.0)
    assert report["updates_per_sec"] == pytest.approx(4 / 3.0)
    # A stage that never fired reports a zero rate, not a crash.
    registry.timer("pipeline.stage.idle")
    assert registry.throughput_report()["stages"]["idle"]["per_sec"] == 0.0
