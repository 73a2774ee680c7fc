"""Outside-in span tracing: wrap each layer's public callables from here.

No file under ``src/`` knows about this module.  A traced run replaces,
on the live instances and imported modules, the callables at each layer
boundary with a wrapper that records one span per call — name, start,
end, the span that was open on the same thread when it began, and an
optional key (an update id, a list of them, a count).  Spans stay in
memory and are written as JSONL when the run ends.  A layer's self time
is its span minus the part its direct children cover.
"""

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# A span on the wire and in memory: (id, parent id or 0, name, start, end, key)
Span = Tuple[int, int, str, float, float, object]


class Recorder:
    """Collects spans from every wrapper it installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- installing wrappers ----------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None, static: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is an instance (the bound method is shadowed by an
        instance attribute), a module, or — with ``static`` — a class
        whose staticmethod is rewrapped.  ``key(args, result)`` labels
        the span.
        """
        fn = getattr(owner, attr)
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        traced = self._traced(fn, name, key)
        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._undo.append((owner, attr, previous, had_own))

    def _traced(self, fn, name, key):
        spans, ids, local, clock = (self.spans, self._ids, self._local,
                                    perf_counter)

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, name, start, end,
                          key(args, result) if key is not None else None))
            return result

        return traced

    def wrap_scan(self, table) -> None:
        """``Table.scan`` returns a lazy iterator, so a span around the
        call would time nothing: the span runs from the first row pulled
        to exhaustion and its key is the number of rows the caller read."""
        scan = table.scan
        spans, ids = self.spans, self._ids

        def counted(predicate=None):
            rows = 0
            start = perf_counter()
            try:
                for row in scan(predicate):
                    rows += 1
                    yield row
            finally:
                spans.append((next(ids), 0, "database.scan", start,
                              perf_counter(), rows))

        table.scan = counted
        self._undo.append((table, "scan", None, False))

    def unwrap_all(self) -> None:
        """Put every wrapped callable back (modules are process-wide)."""
        for owner, attr, previous, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- cost of the instrumentation itself -------------------------------

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call, measured on a no-op."""
        def noop():
            return None

        scratch = Recorder()
        traced = scratch._traced(noop, "calibrate", None)
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            traced()
        return max(0.0, (perf_counter() - start - bare) / calls)

    # -- output -----------------------------------------------------------

    def dump(self, path: str) -> None:
        write_jsonl(path, self.spans)


def write_jsonl(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sid, parent, name, start, end, key in spans:
            handle.write(json.dumps(
                {"id": sid, "parent": parent, "name": name,
                 "start": start, "end": end, "key": key}) + "\n")


def read_jsonl(path: str) -> List[Span]:
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            spans.append((doc["id"], doc["parent"], doc["name"],
                          doc["start"], doc["end"], doc["key"]))
    return spans


# -- layer boundaries ---------------------------------------------------------


def _ids_of_updates(args, _result):
    return [update.update_id for update in args[0]]


def trace_framework(rec: Recorder, framework, label: str = "") -> None:
    """Wrap one ``PReVer``: its submit entry, every pipeline stage, the
    ledger, the engine, the WAL and its tables.  ``label`` prefixes the
    entry span so replicas of one shard stay distinguishable."""
    rec.wrap(framework, "submit_many", f"{label}core.pipeline.submit_many",
             key=_ids_of_updates)
    pipeline = framework.pipeline
    for stage, name in ((pipeline.auth, "core.auth"),
                        (pipeline.route, "core.route"),
                        (pipeline.verify, "core.verify"),
                        (pipeline.durability, "durability.log"),
                        (pipeline.apply, "core.apply")):
        rec.wrap(stage, "run_one", f"{name}.run_one")
        rec.wrap(stage, "run_batch", f"{name}.run_batch")
    rec.wrap(pipeline.anchor, "run_batch", "core.anchor.run_batch")
    rec.wrap(pipeline.durability, "commit", "durability.commit")
    trace_ledger(rec, framework.ledger)
    engine = framework.engine
    if engine is not None:
        rec.wrap(engine, "verify", "engine.verify")
        if hasattr(engine, "prepare_batch"):
            rec.wrap(engine, "prepare_batch", "crypto.paillier.prepare_batch")
    wal = framework._wal
    if wal is not None:
        rec.wrap(wal, "append_update", "durability.wal.append_update")
        rec.wrap(wal, "append_anchor", "durability.wal.append_anchor")
        rec.wrap(wal, "sync", "durability.wal.sync")
    for database in framework.databases:
        for table_name in database.table_names():
            rec.wrap_scan(database.table(table_name))


def trace_ledger(rec: Recorder, ledger) -> None:
    rec.wrap(ledger, "append_batch", "ledger.central.append_batch",
             key=lambda args, _r: len(args[0]))
    rec.wrap(ledger, "digest", "ledger.central.digest")
    rec.wrap(ledger, "prove_inclusion", "ledger.central.prove_inclusion")
    rec.wrap(ledger, "prove_consistency", "ledger.central.prove_consistency")


def trace_verifiers(rec: Recorder) -> None:
    """The auditor's side: static checks that need no ledger access."""
    from repro.ledger.central import CentralLedger

    rec.wrap(CentralLedger, "verify_entry", "ledger.central.verify_entry",
             static=True)
    rec.wrap(CentralLedger, "verify_extension",
             "ledger.central.verify_extension", static=True)


def trace_shard(rec: Recorder, shard) -> None:
    """Wrap a ``ReplicatedShard``: its entry, its driver, each replica."""
    rec.wrap(shard, "submit_many", "core.replicated.submit_many",
             key=lambda args, _r: len(args[0]))
    driver = shard.driver
    rec.wrap(driver, "propose_batch", "consensus.driver.propose_batch")
    rec.wrap(driver, "encode_batch", "consensus.driver.encode_batch",
             key=lambda args, _r: len(args[0]))
    rec.wrap(driver, "decode_batch", "consensus.driver.decode_batch",
             key=lambda _a, result: len(result))
    for index, replica in enumerate(shard.replicas):
        if replica is not None:
            trace_framework(rec, replica, label=f"replica{index}.")


def _update_id_in(message) -> Optional[str]:
    """The update id a SUBMIT request or its RESULT response carries."""
    body = message.get("body") if isinstance(message, dict) else None
    if not isinstance(body, dict):
        return None
    for field in ("update", "result"):
        doc = body.get(field)
        if isinstance(doc, dict):
            return doc.get("update_id")
    return None


def trace_protocol(rec: Recorder, side: str) -> None:
    """Wrap the wire codec in this process (``side`` = client|server)."""
    from repro.serve import protocol

    rec.wrap(protocol, "encode_frame", f"serve.{side}.encode_frame",
             key=lambda args, result: [_update_id_in(args[0]), len(result)])
    rec.wrap(protocol, "decode_payload", f"serve.{side}.decode_payload",
             key=lambda args, result: [_update_id_in(result), len(args[1])])
    if side == "server":
        rec.wrap(protocol, "update_from_wire", "serve.protocol.update_from_wire",
                 key=lambda _a, result: result.update_id)
        rec.wrap(protocol, "result_to_wire", "serve.protocol.result_to_wire",
                 key=lambda args, _r: args[0].update.update_id)
    else:
        rec.wrap(protocol, "update_to_wire", "serve.client.update_to_wire",
                 key=lambda args, _r: args[0].update_id)


def trace_scheduler(rec: Recorder, scheduler) -> None:
    rec.wrap(scheduler, "try_submit", "serve.scheduler.try_submit",
             key=lambda args, result: [args[0][0].update_id,
                                       result is not None])


# -- aggregation --------------------------------------------------------------


class Totals:
    """Count, inclusive seconds and self seconds of one span name."""

    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


def check_nesting(spans: Iterable[Span]) -> int:
    """Every child lies inside its parent; returns the number of
    violations (spans nest by construction, so this guards the recorder)."""
    by_id = {span[0]: span for span in spans}
    bad = 0
    for _sid, parent, _name, start, end, _key in by_id.values():
        if parent and parent in by_id:
            _, _, _, pstart, pend, _ = by_id[parent]
            if start < pstart or end > pend:
                bad += 1
    return bad


def summarize(spans: Iterable[Span], start: float = float("-inf"),
              end: float = float("inf")) -> Dict[str, Totals]:
    """Per-name totals over spans that began inside ``[start, end)``.
    A replica label (``replica0.``) is folded into the bare name."""
    spans = [span for span in spans if start <= span[3] < end]
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, s, e, _key in spans:
        if parent:
            child_time[parent] += e - s
    out: Dict[str, Totals] = defaultdict(Totals)
    for sid, _parent, name, s, e, _key in spans:
        if name.startswith("replica"):
            name = name.split(".", 1)[1]
        totals = out[name]
        totals.count += 1
        totals.total += e - s
        totals.self_time += (e - s) - child_time.get(sid, 0.0)
    return out
