"""Sharded front-end tests: partitioning, cross-shard escalation
(fail-closed), and per-shard crash recovery.

The load-bearing guarantees pinned here:

* one shard's decision/digest stream is identical to a standalone
  ``PReVer`` fed the same substream (so sharding is an invisible
  scale-out, not a semantics change);
* a single-shard ``ShardedPReVer`` reproduces the *golden* roots and
  WAL bytes of the pre-refactor monolith (tests/test_pipeline_stages);
* cross-shard constraints without an RC2 federated verifier are
  refused, and escalation rejections never touch a shard's ledger;
* after a crash — simulated at every injected crash point, and a real
  SIGKILL — per-shard recovery reproduces every shard root and the
  combined root-of-roots.
"""

import functools
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.common.errors import PReVerError
from repro.core.framework import PReVer
from repro.core.federated import TokenVerifier
from repro.core.sharded import ShardedPReVer, ShardPlan, ShardSpec
from repro.crypto.merkle import MerkleTree
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability, SimulatedCrash
from repro.durability.policy import CRASH_POINTS
from repro.model.constraints import (
    AggregateSpec,
    Comparison,
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.update import Update, UpdateOperation

from tests.test_pipeline_stages import (
    GOLDEN,
    build_plaintext,
    golden_stream,
    wal_sha256,
)


# -- deterministic two-shard topology ----------------------------------------

TABLES = {"s0": "orders", "s1": "payments"}


def shard_db(name, table):
    db = Database(name)
    db.create_table(
        TableSchema.build(
            table,
            [("id", ColumnType.INT), ("who", ColumnType.TEXT),
             ("amount", ColumnType.INT)],
            primary_key=["id"],
        )
    )
    return db


def build_shard(name, table, state_dir=None, crash_after=None):
    """Builder for one shard's framework."""
    durability = None
    if state_dir is not None:
        durability = Durability.wal(os.path.join(state_dir, name))
        if crash_after is not None:
            durability = durability.with_crash_after(crash_after)
    framework = PReVer([shard_db(name, table)], durability=durability)
    template = upper_bound_regulation("cap", table, "amount", 50, ["who"])
    framework.register_constraint(Constraint(
        name="cap", kind=ConstraintKind.INTERNAL,
        aggregate=template.aggregate, comparison=template.comparison,
        bound=50, tables=(table,), constraint_id=f"cst-{name}-cap",
    ))
    return framework


def two_shard_specs(state_dir=None, crash_after=None):
    return [
        ShardSpec(name, (table,), functools.partial(
            build_shard, name, table,
            state_dir=state_dir, crash_after=crash_after,
        ))
        for name, table in sorted(TABLES.items())
    ]


def sharded_stream(n=12, offset=0, who="alice"):
    """Deterministic updates alternating between the two tables; per
    shard the amounts trip the 50-cap after two accepts per ``who``."""
    stream = []
    for i in range(offset, offset + n):
        table = TABLES["s0"] if i % 2 == 0 else TABLES["s1"]
        stream.append(Update(
            table=table, operation=UpdateOperation.INSERT,
            payload={"id": i, "who": who, "amount": 20},
            update_id=f"sh-{i:04d}",
        ))
    return stream


def substream(stream, table):
    return [u for u in stream if u.table == table]


# -- plan validation (fail-closed partitioning) ------------------------------


def test_plan_rejects_overlapping_tables():
    specs = [
        ShardSpec("a", ("t1", "t2"), lambda: None),
        ShardSpec("b", ("t2",), lambda: None),
    ]
    with pytest.raises(PReVerError, match="claimed by shards"):
        ShardPlan(specs)


def test_plan_rejects_duplicate_names_and_empty_shards():
    with pytest.raises(PReVerError, match="duplicate shard names"):
        ShardPlan([ShardSpec("a", ("t1",), lambda: None),
                   ShardSpec("a", ("t2",), lambda: None)])
    with pytest.raises(PReVerError, match="owns no tables"):
        ShardPlan([ShardSpec("a", (), lambda: None)])
    with pytest.raises(PReVerError, match="at least one shard"):
        ShardPlan([])


def test_unknown_table_fails_whole_batch_before_dispatch():
    sharded = ShardedPReVer(two_shard_specs())
    good = sharded_stream(2)
    bad = Update(table="nowhere", operation=UpdateOperation.INSERT,
                 payload={"id": 1, "who": "x", "amount": 1},
                 update_id="sh-bad")
    with pytest.raises(PReVerError, match="no shard owns"):
        sharded.submit_many(good + [bad])
    # Fail-before-mutate: nothing reached any shard.
    assert all(d.size == 0 for d in sharded.shard_digests().values())
    sharded.close()


# -- shard == standalone substream equivalence -------------------------------


def test_each_shard_equals_standalone_framework_on_its_substream():
    stream = sharded_stream(12)
    sharded = ShardedPReVer(two_shard_specs())
    results = sharded.submit_many(stream)

    for name, table in TABLES.items():
        standalone = build_shard(name, table)
        solo_results = standalone.submit_many(substream(stream, table))
        shard_digest = sharded.shard_digests()[name]
        assert shard_digest.root == standalone.ledger.digest().root
        sharded_sub = [r for r in results if r.shard == name]
        assert len(sharded_sub) == len(solo_results)
        for a, b in zip(sharded_sub, solo_results):
            assert (a.accepted, a.applied, a.ledger_sequence) == \
                (b.accepted, b.applied, b.ledger_sequence)
    single = sharded.submit(Update(
        table=TABLES["s0"], operation=UpdateOperation.INSERT,
        payload={"id": 900, "who": "bob", "amount": 10},
        update_id="sh-one",
    ))
    assert single.applied and single.shard == "s0"
    report = sharded.throughput_report()
    assert report["combined"]["updates"] == len(stream) + 1
    sharded.close()


def test_root_of_roots_is_merkle_over_shard_roots():
    sharded = ShardedPReVer(two_shard_specs())
    sharded.submit_many(sharded_stream(8))
    digest = sharded.digest()
    assert digest.root == MerkleTree(list(digest.shard_roots)).root()
    assert digest.shard_roots == tuple(
        d.root for d in sharded.shard_digests().values()
    )
    sharded.close()


@pytest.mark.parametrize("path", ["sequential", "batched"])
def test_single_shard_front_end_reproduces_monolith_goldens(path, tmp_path):
    """A one-shard ShardedPReVer is byte-identical to the pre-refactor
    framework: same golden ledger root and same golden WAL bytes."""
    state = str(tmp_path)
    spec = ShardSpec("only", ("events",), functools.partial(
        build_plaintext, durability=Durability.wal(state)
    ))
    sharded = ShardedPReVer([spec])
    stream = golden_stream()
    if path == "sequential":
        for update in stream:
            sharded.submit(update)
    else:
        sharded.submit_many(stream[:8])
        sharded.submit_many(stream[8:])
    sharded.close()
    golden = GOLDEN[("plaintext", path)]
    assert sharded.shard_digests()["only"].root.hex() == golden["root"]
    assert wal_sha256(state) == golden["wal_sha256"]
    # With one shard the root-of-roots is the Merkle tree over one leaf.
    assert sharded.digest().root == MerkleTree(
        [bytes.fromhex(golden["root"])]
    ).root()


# -- cross-shard constraints: fail-closed escalation -------------------------


def spanning_count_constraint(bound=3):
    """COUNT over both shards' tables — no single shard can check it."""
    return Constraint(
        name="global-count", kind=ConstraintKind.INTERNAL,
        aggregate=AggregateSpec(func="COUNT", column=None),
        comparison=Comparison.LE, bound=bound,
        tables=(TABLES["s0"], TABLES["s1"]),
        constraint_id="cst-global-count",
    )


def test_cross_shard_without_verifier_is_refused():
    sharded = ShardedPReVer(two_shard_specs())
    with pytest.raises(PReVerError, match="needs an RC2 federated verifier"):
        sharded.register_cross_shard_constraint(spanning_count_constraint())
    sharded.close()


def test_single_shard_constraint_must_go_to_its_shard():
    sharded = ShardedPReVer(two_shard_specs())
    local = Constraint(
        name="local", kind=ConstraintKind.INTERNAL,
        aggregate=spanning_count_constraint().aggregate,
        comparison=Comparison.LE, bound=3, tables=(TABLES["s0"],),
        constraint_id="cst-local",
    )
    with pytest.raises(PReVerError, match="register it there"):
        sharded.register_cross_shard_constraint(
            local, TokenVerifier(spanning_count_constraint())
        )
    sharded.close()


def test_unsupported_cross_shard_verifier_is_refused():
    sharded = ShardedPReVer(two_shard_specs())
    with pytest.raises(PReVerError, match="unsupported cross-shard verifier"):
        sharded.register_cross_shard_constraint(
            spanning_count_constraint(), verifier=object()
        )
    sharded.close()


def test_token_escalation_rejects_over_budget_and_anchors_coordinator_side():
    """A global COUNT<=3 budget enforced by token spending: the fourth
    update is rejected coordinator-side, anchored on the escalation
    ledger, and never reaches its home shard."""
    constraint = spanning_count_constraint(bound=3)
    sharded = ShardedPReVer(two_shard_specs())
    sharded.register_cross_shard_constraint(
        constraint, TokenVerifier(constraint)
    )
    stream = [Update(
        table=TABLES["s0"] if i % 2 == 0 else TABLES["s1"],
        operation=UpdateOperation.INSERT,
        payload={"id": i, "who": "alice", "amount": 1},
        update_id=f"tok-{i}", producers=["alice"],
    ) for i in range(5)]
    results = sharded.submit_many(stream)
    assert [r.applied for r in results] == [True, True, True, False, False]
    rejected = [r for r in results if not r.applied]
    assert all(r.shard is None for r in rejected)
    assert all(
        r.outcome.failed_constraint == "cst-global-count" for r in rejected
    )
    # Rejections are anchored on the coordinator's escalation ledger...
    assert len(sharded.escalation_ledger) == 2
    history = [e.payload for e in sharded.escalation_ledger.entries()]
    assert all(p["scope"] == "cross-shard" for p in history)
    # ...and the shard ledgers saw only the accepted substreams.
    clean = ShardedPReVer(two_shard_specs())
    clean.submit_many(stream[:3])
    assert sharded.shard_digests()["s0"].root == \
        clean.shard_digests()["s0"].root
    assert sharded.shard_digests()["s1"].root == \
        clean.shard_digests()["s1"].root
    acceptance = sharded.acceptance_rate()
    assert acceptance == pytest.approx(3 / 5)
    sharded.close()
    clean.close()


# -- per-shard durability and recovery ---------------------------------------


def durable_dir(tmp_path):
    return str(tmp_path / "shards")


def test_sharded_recover_replays_every_shard(tmp_path):
    state = durable_dir(tmp_path)
    sharded = ShardedPReVer(two_shard_specs(state_dir=state))
    sharded.submit_many(sharded_stream(8))
    roots_before = {n: d.root for n, d in sharded.shard_digests().items()}
    combined_before = sharded.digest().root
    sharded.close()

    recovered = ShardedPReVer(two_shard_specs(state_dir=state))
    reports = recovered.recover()
    assert set(reports) == {"s0", "s1"}
    assert all(r.verified_against_anchor for r in reports.values())
    assert {n: d.root for n, d in recovered.shard_digests().items()} == \
        roots_before
    assert recovered.digest().root == combined_before
    # The recovered front-end keeps serving with the same decisions.
    follow_up = recovered.submit(Update(
        table=TABLES["s0"], operation=UpdateOperation.INSERT,
        payload={"id": 500, "who": "carol", "amount": 10},
        update_id="sh-follow",
    ))
    assert follow_up.applied
    recovered.close()


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_sharded_crash_at_every_point_recovers_shard_roots(tmp_path, point):
    """Simulated crash in the first-dispatched shard (s0) mid-batch:
    recovery lands every shard on its last durable anchor, and the
    root-of-roots is reproduced exactly."""
    state = durable_dir(tmp_path)
    sharded = ShardedPReVer(two_shard_specs(state_dir=state))
    sharded.submit_many(sharded_stream(6))
    roots_durable = {n: d.root for n, d in sharded.shard_digests().items()}
    sharded.close()

    crashing = ShardedPReVer(
        two_shard_specs(state_dir=state, crash_after=point)
    )
    crashing.recover()
    with pytest.raises(SimulatedCrash):
        crashing.submit_many(sharded_stream(6, offset=100, who="bob"))
    s0_at_crash = crashing.shard_digests()["s0"].root

    recovered = ShardedPReVer(two_shard_specs(state_dir=state))
    reports = recovered.recover()
    assert all(r.verified_against_anchor for r in reports.values())
    roots_after = {n: d.root for n, d in recovered.shard_digests().items()}
    if point == "anchor_marker":
        # s0's batch became durable before the crash.
        assert roots_after["s0"] == s0_at_crash
    else:
        assert roots_after["s0"] == roots_durable["s0"]
    # s1 was never dispatched (s0 crashed first): its root is untouched.
    assert roots_after["s1"] == roots_durable["s1"]
    expected = MerkleTree([roots_after["s0"], roots_after["s1"]]).root()
    assert recovered.digest().root == expected
    recovered.close()


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_sharded_real_sigkill_recovers_every_root(tmp_path, point):
    """Not simulated: a child running a ShardedPReVer SIGKILLs itself
    at an injected crash point mid-batch; the parent recovers every
    shard from what physically reached disk and reproduces the
    root-of-roots."""
    state = durable_dir(tmp_path)
    roots_path = str(tmp_path / "durable_roots")
    child_script = textwrap.dedent(f"""
        import os, signal, sys
        sys.path.insert(0, {os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src"))!r})
        sys.path.insert(0, {os.path.abspath(
            os.path.join(os.path.dirname(__file__), ".."))!r})
        from repro.core.framework import PReVer
        from tests.test_sharded import (
            ShardedPReVer, sharded_stream, two_shard_specs,
        )

        def _sigkill_crash_point(self, name):
            if self._crash_after == name:
                os.kill(os.getpid(), signal.SIGKILL)
        PReVer._crash_point = _sigkill_crash_point

        sharded = ShardedPReVer(
            two_shard_specs(state_dir={state!r}, crash_after={point!r})
        )
        # First batch is fully durable: crash points only fire when
        # _crash_after is set, and the kill hook replaces the raise, so
        # arm it only for the second batch.
        for shard in sharded.shards:
            shard.framework._crash_after = None
        sharded.submit_many(sharded_stream(6))
        with open({roots_path!r}, "w") as handle:
            for name, digest in sorted(sharded.shard_digests().items()):
                handle.write(digest.root.hex() + "\\n")
        for shard in sharded.shards:
            shard.framework._crash_after = {point!r}
        sharded.submit_many(sharded_stream(6, offset=100, who="bob"))
        raise SystemExit("crash point never fired")
    """)
    process = subprocess.Popen([sys.executable, "-c", child_script])
    deadline = time.time() + 120
    while process.poll() is None and time.time() < deadline:
        time.sleep(0.05)
    if process.poll() is None:
        process.kill()
        process.wait()
        pytest.fail("child did not die at its crash point")
    assert process.returncode == -signal.SIGKILL, \
        f"child exited {process.returncode}, expected SIGKILL"
    durable_roots = {}
    with open(roots_path) as handle:
        for name, line in zip(sorted(TABLES), handle):
            durable_roots[name] = bytes.fromhex(line.strip())

    recovered = ShardedPReVer(two_shard_specs(state_dir=state))
    reports = recovered.recover()
    assert all(r.verified_against_anchor for r in reports.values())
    roots_after = {n: d.root for n, d in recovered.shard_digests().items()}
    # s1 never saw the second batch (s0 is dispatched first and died).
    assert roots_after["s1"] == durable_roots["s1"]
    if point == "anchor_marker":
        # s0's second batch was durable: it must replay on top.
        assert roots_after["s0"] != durable_roots["s0"]
        reference = build_shard("s0", TABLES["s0"])
        reference.submit_many(substream(sharded_stream(6), TABLES["s0"]))
        reference.submit_many(
            substream(sharded_stream(6, offset=100, who="bob"), TABLES["s0"])
        )
        assert roots_after["s0"] == reference.ledger.digest().root
    else:
        assert roots_after["s0"] == durable_roots["s0"]
    expected = MerkleTree([roots_after["s0"], roots_after["s1"]]).root()
    assert recovered.digest().root == expected
    # And it serves again.
    assert recovered.submit(Update(
        table=TABLES["s1"], operation=UpdateOperation.INSERT,
        payload={"id": 700, "who": "dave", "amount": 5},
        update_id="sh-after",
    )).applied
    recovered.close()
