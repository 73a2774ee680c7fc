"""Golden equivalence suite for the staged-pipeline refactor.

The stage decomposition (``repro.core.pipeline``) must be invisible:
``submit`` and ``submit_many`` have to produce the *same bytes* the
monolithic pre-refactor framework produced — same decisions, same
ledger digests, same inclusion proofs, and the same WAL bytes.  The
streams below are fully deterministic (pinned update/constraint ids,
``SimClock`` timestamps), so the expected roots and WAL hashes were
captured once against the pre-refactor framework and pinned here as
golden constants.  If a refactor changes any of them, it changed
observable behavior, not just structure.

Traced runs stamp counter-based trace ids into anchored payloads, so
their digests depend on global id-counter state; those are checked
structurally instead (payloads identical after stripping ``trace_id``,
spans have the full validate → verify → apply → anchor shape).

Regenerate goldens (only after an *intentional* format change):

    PYTHONPATH=src python tests/test_pipeline_stages.py
"""

import hashlib
import os

import pytest

from repro.core.contexts import single_private_database
from repro.core.framework import PReVer
from repro.database.engine import Database
from repro.database.expr import lit, update_field
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability
from repro.ledger.central import CentralLedger
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation
from repro.obs.events import EventLog
from repro.obs.tracing import Tracer


# -- the deterministic workload ---------------------------------------------

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


def pinned_constraints():
    """The cap + predicate pair with ids pinned for reproducibility."""
    template = upper_bound_regulation("cap", "events", "amount", 50, ["who"])
    cap = Constraint(
        name="cap", kind=ConstraintKind.INTERNAL,
        aggregate=template.aggregate, comparison=template.comparison,
        bound=50, tables=("events",), constraint_id="cst-cap",
    )
    positive = Constraint(
        name="positive", kind=ConstraintKind.INTERNAL,
        predicate=update_field("amount") > lit(0),
        constraint_id="cst-positive",
    )
    return [positive, cap]


def golden_stream():
    """Accepts, aggregate rejections, predicate rejections, a duplicate
    key (apply failure), and a MODIFY (cache invalidation) — every
    decision path the pipeline has."""
    stream = []
    for i in range(10):
        who = "alice" if i % 2 == 0 else "bob"
        amount = 20 if i < 6 else -5
        stream.append(Update(
            table="events", operation=UpdateOperation.INSERT,
            payload={"id": i, "who": who, "amount": amount},
            update_id=f"g-{i:04d}",
        ))
    stream.append(Update(  # duplicate primary key -> apply failure
        table="events", operation=UpdateOperation.INSERT,
        payload={"id": 0, "who": "alice", "amount": 5},
        update_id="g-dup",
    ))
    stream.append(Update(  # MODIFY mid-stream -> aggregate cache drop
        table="events", operation=UpdateOperation.MODIFY,
        payload={"amount": 1}, key=(1,), update_id="g-mod",
    ))
    stream.extend(Update(
        table="events", operation=UpdateOperation.INSERT,
        payload={"id": i, "who": "bob", "amount": 10},
        update_id=f"g-{i:04d}",
    ) for i in range(20, 24))
    return stream


def build_plaintext(durability=None, tracer=None):
    framework = PReVer([make_db()], durability=durability, tracer=tracer)
    for constraint in pinned_constraints():
        framework.register_constraint(constraint)
    return framework


def build_paillier(durability=None, tracer=None):
    db = make_db("mgr")
    regulation = upper_bound_regulation("cap", "events", "amount", 55, ["who"])
    regulation.constraint_id = "cst-cap"
    return single_private_database(
        db, [regulation], engine="paillier",
        durability=durability, tracer=tracer,
    )


BUILDERS = {"plaintext": build_plaintext, "paillier": build_paillier}

#: Golden constants captured against the pre-refactor monolithic
#: framework (PR 4 tree).  Keys: (engine, path); values: the ledger
#: root hex and the sha256 over the concatenated WAL segment bytes.
GOLDEN = {
    ("plaintext", "sequential"): {
        "root": "b961e7e0dd4f66b293c935fec090952a09a1d43ddae84782e1657415387c9bc7",
        "wal_sha256":
            "31468952bae8915e5c540347e7243b7a22a84d569794e1c4768e4d4f984eea5a",
    },
    ("plaintext", "batched"): {
        "root": "b961e7e0dd4f66b293c935fec090952a09a1d43ddae84782e1657415387c9bc7",
        "wal_sha256":
            "902eb907f554e3597916c34177851b6e2aa32da637139d6bc3b8ca6f95e94fa3",
    },
    ("paillier", "sequential"): {
        "root": "af2bcb005c02dd6135868fa20bfa37e1c4dad260e09d934b00479c52279a0ccb",
        "wal_sha256":
            "a13f7ae339a383aa4c9689231a62fa9a29ae4b67db5836c696d15621d0ef5da4",
    },
    ("paillier", "batched"): {
        "root": "af2bcb005c02dd6135868fa20bfa37e1c4dad260e09d934b00479c52279a0ccb",
        "wal_sha256":
            "5bb508a36c779ccedc129f33c5f8ac38838c8cd5c9a1b4318c10916aaedfedf0",
    },
}


#: How each non-``submit`` path cuts the stream into ``submit_many``
#: calls.  ``submit`` is a batch of one, so "singles" must reproduce
#: the "sequential" goldens byte for byte; "batched" is two chunks so
#: its WAL holds two anchor markers.
PARTITIONS = {
    "singles": lambda stream: [[update] for update in stream],
    "batched": lambda stream: [stream[:8], stream[8:]],
    "whole": lambda stream: [stream],
}


def wal_sha256(state_dir):
    """sha256 over every WAL segment's bytes, oldest segment first."""
    wal_dir = os.path.join(state_dir, "wal")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def run_path(engine, path, state_dir, tracer=None):
    """One engine x submission-path run under WAL durability; returns
    (framework, results)."""
    framework = BUILDERS[engine](
        durability=Durability.wal(state_dir), tracer=tracer
    )
    stream = golden_stream()
    if path == "sequential":
        results = [framework.submit(u) for u in stream]
    else:
        results = []
        for chunk in PARTITIONS[path](stream):
            results.extend(framework.submit_many(chunk))
    framework.close()
    return framework, results


# -- golden tests ------------------------------------------------------------

@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
@pytest.mark.parametrize("path", ["sequential", "singles", "batched"])
def test_pipeline_matches_pre_refactor_goldens(engine, path, tmp_path):
    framework, results = run_path(engine, path, str(tmp_path))
    golden = GOLDEN[(engine, "sequential" if path == "singles" else path)]
    assert framework.ledger.digest().root.hex() == golden["root"], \
        "stage decomposition changed the anchored decision bytes"
    assert wal_sha256(str(tmp_path)) == golden["wal_sha256"], \
        "stage decomposition changed the WAL bytes"
    # The stream exercises every path.
    assert any(r.applied for r in results)
    assert any(r.outcome.failed_constraint == "apply-failure" for r in results)
    assert any(not r.accepted for r in results)


@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_sequential_and_batched_digests_interchange(engine, tmp_path):
    """However the stream is cut into batches — 24 ``submit`` calls,
    24 batches of one, 8 + 16, or one batch of 24 — decisions, root
    and every entry's inclusion proof are the same."""
    seq_fw, seq_results = run_path(engine, "sequential",
                                   str(tmp_path / "sequential"))
    seq_digest = seq_fw.ledger.digest()
    for path in PARTITIONS:
        bat_fw, bat_results = run_path(engine, path, str(tmp_path / path))
        assert len(seq_results) == len(bat_results), path
        for s, b in zip(seq_results, bat_results):
            assert (s.accepted, s.applied) == (b.accepted, b.applied), path
            assert s.ledger_sequence == b.ledger_sequence, path
            assert s.outcome.failed_constraint == \
                b.outcome.failed_constraint, path
        assert seq_digest.root == bat_fw.ledger.digest().root, path
        for sequence in range(len(bat_fw.ledger)):
            proof = bat_fw.ledger.prove_inclusion(sequence)
            entry = bat_fw.ledger.entry(sequence)
            assert CentralLedger.verify_entry(seq_digest, entry, proof), path


# -- the surface outside-in tracers wrap ---------------------------------------

@pytest.mark.parametrize("entry", ["submit", "submit_many"])
def test_stage_callables_resolve_on_the_instance_at_call_time(entry, tmp_path):
    """``benchmarks/e2e/trace.py`` instruments a built framework by
    shadowing stage methods with instance attributes.  That only works
    while the driver looks each callable up on the stage at call time:
    a driver that cached bound methods, or a stage with ``__slots__``,
    would leave the tracer blind (or unable to install itself)."""
    framework = build_plaintext(durability=Durability.wal(str(tmp_path)))
    pipeline = framework.pipeline
    calls = {}

    def shadow(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[fn.__qualname__] = calls.get(fn.__qualname__, 0) + 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    shadow(pipeline.verify, "run_one")
    shadow(pipeline.anchor, "run_batch")
    shadow(pipeline.durability, "commit")
    stream = golden_stream()[:4]
    if entry == "submit":
        for update in stream:
            framework.submit(update)
        batches = len(stream)
    else:
        framework.submit_many(stream)
        batches = 1
    framework.close()
    assert calls == {
        "VerifyStage.run_one": len(stream),
        "AnchorStage.run_batch": batches,
        "DurabilityStage.commit": batches,
    }


# -- traced runs: structural equivalence -------------------------------------

def strip_trace_ids(framework):
    payloads = []
    for entry in framework.ledger.entries():
        payload = dict(entry.payload)
        assert payload.pop("trace_id", None) is not None, \
            "traced runs must stamp trace_id into anchored payloads"
        payloads.append(payload)
    return payloads


@pytest.mark.parametrize("engine", ["plaintext", "paillier"])
def test_traced_runs_match_untraced_payloads(engine, tmp_path):
    """With a recording tracer the anchored payloads must differ from
    the untraced ones *only* by the stamped trace_id, on both paths."""
    untraced_fw, _ = run_path(engine, "sequential", str(tmp_path / "u"))
    reference = [entry.payload for entry in untraced_fw.ledger.entries()]
    for path in ("sequential", "batched"):
        tracer = Tracer()
        log = EventLog()
        tracer.add_sink(log)
        framework, results = run_path(engine, path, str(tmp_path / path),
                                      tracer=tracer)
        assert strip_trace_ids(framework) == reference
        # Every update got a full-shape trace.
        spans_by_trace = {}
        for record in log.events("span_close"):
            spans_by_trace.setdefault(record["trace_id"], []).append(
                record["name"]
            )
        for result in results:
            names = spans_by_trace[result.trace_id]
            assert {"validate", "verify", "apply", "anchor"} <= set(names)


if __name__ == "__main__":
    import json
    out = {}
    import tempfile
    for engine in BUILDERS:
        for path in ("sequential", "batched"):
            with tempfile.TemporaryDirectory() as tmp:
                framework, _ = run_path(engine, path, tmp)
                out[f"{engine}/{path}"] = {
                    "root": framework.ledger.digest().root.hex(),
                    "wal_sha256": wal_sha256(tmp),
                }
    print(json.dumps(out, indent=2))
