"""What a decided update leaves resident, and what importing costs.

The rule the ledger, outcome, engine and database layers keep: once
``Pipeline.run_batch`` returns, a decided update is its table row, its
canonical leaf bytes in the ledger's one buffer plus an 8-byte end
offset (and the leaf hash in the tree), and one 8-byte slot in the
framework's decision index (``PReVer.results`` reads the ledger through
it).  The engine's transcript is a fixed window of observations, full
before the first reading.  Three deployment shapes are held to a
traced-bytes-per-update budget — tracemalloc, ``gc.collect()`` before
each reading, the slope between two readings so set-up and warm-up
cancel — and object-graph walks check that no store keeps a ``dict``
per update besides the row itself and that the ledger keeps no object
per entry besides the tree's leaf hash.

Budgets are this tree's measurement + 15 %.  The parent commit
(b8ed9d8: a ``LedgerEntry`` object per entry, every manager
observation kept) read, with the same code:

    shape                         parent    this tree   budget
    plaintext, row predicate         918        587        675
    3 replicas, LocalDriver        2,540      2,151      2,475
    Paillier, signed updates       1,090        749        860   (B/update)

Print the current readings, and each store's share of them, with
``PYTHONPATH=src python tests/test_memory_slope.py``.
"""

import gc
import subprocess
import sys
import tracemalloc
from types import BuiltinFunctionType, FunctionType, ModuleType

import pytest

import repro
from repro.common.randomness import deterministic_rng
from repro.consensus.driver import LocalDriver
from repro.core.contexts import single_private_database
from repro.core.replicated import ReplicatedShard
from repro.core.verifiers import TRANSCRIPT_WINDOW
from repro.crypto.paillier import generate_paillier_keypair
from repro.database.engine import Database
from repro.database.expr import col, lit
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation
from repro.parallel.executors import SERIAL_EXECUTOR

BUDGET_BYTES_PER_UPDATE = {"plain": 675, "replicated": 2475,
                           "paillier": 860}
CHUNK = 32
STORES = ("ledger", "tree", "database", "transcript", "driver")


# -- the three shapes ---------------------------------------------------------


def build_emissions():
    """Plaintext engine, one row-predicate regulation ``co2 <= 90``."""
    database = Database("manager")
    database.create_table(TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)], primary_key=["id"]))
    regulation = Constraint(
        name="co2-limit", kind=ConstraintKind.REGULATION,
        predicate=col("co2") <= lit(90), tables=("emissions",),
        constraint_id="cst-slope-co2")
    # The serial executor is the default; naming it keeps the slope the
    # same under CI's REPRO_EXECUTOR=process matrix entry.
    return single_private_database(database, [regulation],
                                   engine="plaintext",
                                   executor=SERIAL_EXECUTOR)


def emissions_updates(start: int, count: int):
    """A quarter of the stream breaks the limit, like the benchmark's."""
    return [
        Update(table="emissions", operation=UpdateOperation.INSERT,
               payload={"id": i, "org": f"org-{i % 256:03d}",
                        "co2": (30, 30, 30, 95)[i % 4]},
               update_id=f"e{i:08d}")
        for i in range(start, start + count)
    ]


def build_tasks_paillier():
    """Paillier engine, per-worker cap, signed updates required."""
    database = Database("manager")
    database.create_table(TableSchema.build(
        "tasks",
        [("id", ColumnType.INT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)], primary_key=["id"]))
    cap = upper_bound_regulation("flsa", "tasks", "hours", 400, ["worker"])
    cap.constraint_id = "cst-slope-flsa"
    framework = single_private_database(database, [cap], engine="paillier",
                                        executor=SERIAL_EXECUTOR)
    framework.engine.keypair = generate_paillier_keypair(
        256, rng=deterministic_rng(7))
    framework.require_signed_updates = True
    return framework


def signed_task_updates(producer):
    def make(start: int, count: int):
        return [
            Update(table="tasks", operation=UpdateOperation.INSERT,
                   payload={"id": i, "worker": f"w{i % 64:03d}",
                            "hours": 1 + i % 8},
                   update_id=f"t{i:08d}").sign_with(producer)
            for i in range(start, start + count)
        ]
    return make


def traced_bytes_per_update(submit, make_updates, updates: int,
                            observations: int = 1, stores=None):
    """Slope of live traced bytes over ``updates`` decided updates, and
    of each store's deep size when ``stores`` (a callable returning
    :func:`store_bytes`) is given.  The warm-up first fills the engine's
    transcript window (``observations`` per update), so a full window
    reads as the constant it is; the caller's own update list is dropped
    before each reading (whatever still holds an update is the
    system's)."""
    def run(start: int, count: int):
        for at in range(start, start + count, CHUNK):
            submit(make_updates(at, CHUNK))
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
        return traced, stores() if stores else {}

    warm = TRANSCRIPT_WINDOW // observations + CHUNK
    tracemalloc.start()
    try:
        before, stores_before = run(0, warm)
        after, stores_after = run(warm, updates)
    finally:
        tracemalloc.stop()
    return (after - before) / updates, {
        name: (stores_after[name] - stores_before[name]) / updates
        for name in stores_after
    }


def measure(shape: str, walk: bool = False):
    """``(traced bytes per decided update, {store: bytes per update})``
    for one shape; the per-store walk only with ``walk``."""
    driver, observations = (), 1
    if shape == "plain":
        framework = build_emissions()
        submit, make, updates = framework.submit_many, emissions_updates, 1024
        frameworks = [framework]
    elif shape == "replicated":
        shard = ReplicatedShard(build_emissions, replicas=3,
                                driver=LocalDriver())
        submit, make, updates = shard.submit_many, emissions_updates, 1024
        frameworks = shard.replicas
        driver = (shard.driver._log, shard._batch_sizes)
    else:
        framework = build_tasks_paillier()
        submit, updates = framework.submit_many, 256
        make = signed_task_updates(DataProducer("slope-producer"))
        frameworks = [framework]
        observations = 2  # the group key, then the proposed ciphertext
    stores = (lambda: store_bytes(frameworks, driver)) if walk else None
    return traced_bytes_per_update(submit, make, updates, observations,
                                   stores)


@pytest.mark.parametrize("shape", sorted(BUDGET_BYTES_PER_UPDATE))
def test_retained_bytes_per_decided_update(shape):
    assert measure(shape)[0] <= BUDGET_BYTES_PER_UPDATE[shape]


# -- what the stores are made of ----------------------------------------------

_OPAQUE = (type, ModuleType, FunctionType, BuiltinFunctionType)


def reachable(*roots, seen=None):
    """Objects reachable from ``roots`` through the object graph
    (instance ``__dict__``s included), not descending into classes,
    modules or functions, nor into anything already in ``seen``."""
    seen = set() if seen is None else seen
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def dicts_reachable(root) -> int:
    """Plain ``dict`` objects reachable from ``root``."""
    return sum(type(obj) is dict for obj in reachable(root))


def store_bytes(frameworks, driver=()) -> dict:
    """Deep ``sys.getsizeof`` per store, summed over ``frameworks``;
    each object counts under the first store that reaches it, and the
    tree is walked before the ledger that holds it."""
    roots = {
        "tree": [fw.ledger._tree for fw in frameworks],
        "ledger": [fw.ledger for fw in frameworks],
        "database": [db for fw in frameworks for db in fw.databases],
        "transcript": [fw.engine.manager_transcript for fw in frameworks],
        "driver": list(driver),
    }
    seen = set()
    return {name: sum(map(sys.getsizeof, reachable(*objs, seen=seen)))
            for name, objs in roots.items()}


def test_no_store_keeps_a_dict_per_update_besides_the_table_row():
    framework = build_emissions()
    decided = 512
    for at in range(0, decided, CHUNK):
        framework.submit_many(emissions_updates(at, CHUNK))
    table = framework.databases[0].table("emissions")
    assert len(framework.ledger) == decided and 0 < len(table) < decided
    constant = 16  # instance __dict__s, tree and index bookkeeping
    assert dicts_reachable(framework.ledger) <= constant
    # The decision journal is an index into that ledger: walking the
    # view, or every record it hands out, reaches nothing new.
    assert len(framework.results) == decided
    assert dicts_reachable(framework.results) <= constant
    assert dicts_reachable(framework.results[:]) <= constant
    assert dicts_reachable(framework.databases[0]) <= len(table) + constant


def test_ledger_object_count_does_not_grow_with_depth():
    """One leaf buffer and one offset array, however deep: the only
    object per entry is the tree's leaf hash."""
    framework = build_emissions()
    ledger = framework.ledger
    counts = []
    for start in (0, 256):
        for at in range(start, start + 256, CHUNK):
            framework.submit_many(emissions_updates(at, CHUNK))
        counts.append(sum(1 for _ in reachable(ledger)) - len(ledger))
    assert len(ledger) == 512
    assert counts[0] == counts[1]


# -- import on demand ---------------------------------------------------------


def test_update_path_import_leaves_the_rest_of_the_tree_unloaded():
    probe = (
        "import sys; import repro.core.framework; "
        "print([m for m in ('http.server', 'multiprocessing', "
        "'concurrent.futures', 'repro.chain', 'repro.consensus.pbft', "
        "'repro.privacy', 'repro.core.sharded', 'repro.obs.server') "
        "if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=60, check=True,
        env={"PYTHONPATH": ":".join(p for p in sys.path if p)},
    )
    assert out.stdout.strip() == "[]"


def test_lazy_packages_export_what_they_declare():
    import ast
    import importlib
    import pkgutil

    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.__path__, "repro.")
        if info.ispkg
    ]
    assert len(packages) == 17
    for package in packages:
        # What ruff's F822 checks: every __all__ entry is bound
        # statically — here by the `if TYPE_CHECKING:` imports, which
        # must name exactly what the lazy table resolves.
        with open(package.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        static = {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names} - {"TYPE_CHECKING", "lazy_exports"}
        exported = set(package.__all__) - {"__version__"}
        assert static == exported, package.__name__
        assert exported <= set(dir(package))
        for name in exported:
            assert getattr(package, name) is not None, (package, name)
            assert name in vars(package)  # cached: resolved once
        with pytest.raises(AttributeError):
            package.no_such_name
    # The spellings the README and the quickstart use.
    from repro import PReVer, single_private_database as spd  # noqa: F401
    from repro.crypto import MerkleTree, zkp

    assert PReVer is importlib.import_module("repro.core.framework").PReVer
    assert MerkleTree.__module__ == "repro.crypto.merkle"
    assert zkp is sys.modules["repro.crypto.zkp"]


if __name__ == "__main__":
    # Traced bytes per decided update against the budget, then where
    # they live: the per-store slope of a deep size walk ("rest" is what
    # the walk does not reach — allocator rounding, the decision index,
    # timers, interpreter state).
    print(f"{'shape':12s} {'traced':>8s} {'budget':>7s}"
          + "".join(f" {name:>10s}" for name in STORES) + f" {'rest':>7s}")
    for shape in sorted(BUDGET_BYTES_PER_UPDATE):
        traced, per_store = measure(shape, walk=True)
        print(f"{shape:12s} {traced:8.0f} {BUDGET_BYTES_PER_UPDATE[shape]:7d}"
              + "".join(f" {per_store[name]:10.0f}" for name in STORES)
              + f" {traced - sum(per_store.values()):7.0f}")
