"""The four workloads: constants, framework builders, phases and checks.

Every parameter is a constant here; the only inputs a run takes are the
seed and the measuring time, and the measuring time is split between a
workload's phases by the fixed shares in ``PHASES``.  Each workload
returns a ``Run``: end-to-end values from its own clocks, the operations
it attempted and how many did not get the correct outcome (a named check
is one operation), and the windows a traced run needs to cut its spans.
"""

import asyncio
import gc
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter, process_time
from typing import Callable, Dict, Optional

import gen
import loadgen
import stats

HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of ``--seconds`` each measured phase gets.
PHASES = {
    "serve_durable": {"rung_150": 0.12, "rung_300": 0.32, "rung_600": 0.12,
                      "closed": 0.24, "audit": 0.20},
    "group_plain": {"write": 0.80, "audit": 0.20},
    "group_paillier": {"write": 0.80, "audit": 0.20},
    "replicated_paxos": {"write": 0.80, "audit": 0.20},
}

CHUNK = {"group_plain": 64, "group_paillier": 64, "replicated_paxos": 8}
WARMUP_BATCHES = 20
SLICES = 4                      # quarters of a phase: throughput is also
                                # reported per quarter, and serve_durable
                                # reports the median quarter
PREFIX = 1024                   # shared prefix replayed through plaintext
PAILLIER_KEY_SEED = 2022        # one Paillier key for every run

RATES = (150, 300, 600)         # the paced ladder, updates/s
NOMINAL = 300                   # the rung the latency metrics come from
TAIL = 95                       # gated tail percentile: the highest one
                                # every workload's sample supports
TAIL_STRETCHES = 8              # parts of a write phase whose own tails
                                # are compared (stats.quiet_tail)
LATENCY_LIMIT_S = 0.200         # p99 limit a rung must meet
LAG_LIMIT_S = 0.005             # generator lag beyond this voids a rung
CORRUPTED = 20                  # updates sent with a broken signature
CONNECTIONS = 2
IN_FLIGHT = 8                   # closed-loop callers per connection: few
                                # enough that all their resends land in
                                # one 5 ms coalescing window
CLOSED_POOL_UPS = 1500          # updates pre-signed per closed-loop second
SERVE_WARMUP = 32
PRODUCER = "bench-producer"

CATCHUP_BATCHES = 50            # decided on two replicas before restart
AUDIT_OLD_DIGESTS = 8


class Run:
    """What one workload run measured."""

    def __init__(self):
        self.e2e: Dict[str, float] = {}       # BENCHMARK.json end_to_end
        self.own: Dict[str, float] = {}       # this workload's own gated values
        self.operations = 0
        self.wrong = 0
        self.checks: Dict[str, bool] = {}
        self.detail: Dict[str, object] = {}
        self.windows: Dict[str, tuple] = {}   # phase -> (start, end) clock
        self.layers: Dict[str, float] = {}

    def count(self, attempted: int, failed: int) -> None:
        self.operations += attempted
        self.wrong += failed

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        """Wrong operations plus failed checks: a check is one operation
        attempted, so ``compare`` sees it in the failed share."""
        return self.wrong + sum(not ok for ok in self.checks.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0


# -- framework builders -------------------------------------------------------


def build_emissions(durable_dir: Optional[str] = None, signed: bool = False):
    """Plaintext engine, one row-predicate regulation ``co2 <= 90`` with a
    pinned id (recovery refuses a framework whose ids moved)."""
    from repro.core.contexts import single_private_database
    from repro.database.engine import Database
    from repro.database.expr import col, lit
    from repro.database.schema import ColumnType, TableSchema
    from repro.durability import Durability
    from repro.model.constraints import Constraint, ConstraintKind

    database = Database("manager")
    database.create_table(TableSchema.build(
        gen.EmissionsStream.TABLE,
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)], primary_key=["id"]))
    regulation = Constraint(
        name="co2-limit", kind=ConstraintKind.REGULATION,
        predicate=col("co2") <= lit(gen.EmissionsStream.LIMIT),
        tables=(gen.EmissionsStream.TABLE,), constraint_id="cst-e2e-co2")
    durability = Durability.serving(durable_dir) if durable_dir else None
    framework = single_private_database(
        database, [regulation], engine="plaintext", durability=durability)
    framework.require_signed_updates = signed
    return framework


def build_tasks(engine: str, signed: bool):
    """The per-worker cap ``SUM(hours) <= 400`` under ``engine``."""
    from repro.core.contexts import single_private_database
    from repro.database.engine import Database
    from repro.database.schema import ColumnType, TableSchema
    from repro.model.constraints import upper_bound_regulation

    database = Database("manager")
    database.create_table(TableSchema.build(
        gen.TasksStream.TABLE,
        [("id", ColumnType.INT), ("worker", ColumnType.TEXT),
         ("hours", ColumnType.INT)], primary_key=["id"]))
    regulation = upper_bound_regulation(
        "flsa", gen.TasksStream.TABLE, "hours", gen.TasksStream.CAP,
        ["worker"])
    regulation.constraint_id = "cst-e2e-flsa"
    framework = single_private_database(database, [regulation], engine=engine)
    framework.require_signed_updates = signed
    if engine == "paillier":
        # The key is deployment configuration, not workload input: every
        # run and every seed uses the same one.  Modular exponentiation
        # cost follows the bit length of n, and fresh 255- and 256-bit
        # moduli differed by 8 % in throughput from run to run.
        import inspect

        from repro.common.randomness import deterministic_rng
        from repro.crypto.paillier import generate_paillier_keypair

        bits = inspect.signature(
            type(framework.engine)).parameters["key_bits"].default
        framework.engine.keypair = generate_paillier_keypair(
            bits, rng=deterministic_rng(PAILLIER_KEY_SEED))
    return framework


# -- phases shared by every workload ------------------------------------------


def submit_checked(submit: Callable, stream, chunk: int, batches: int,
                   run: Run) -> None:
    """``batches`` untimed chunks, each compared with the oracle."""
    for _ in range(batches):
        updates, expected = stream.take(chunk)
        run.count(chunk, gen.wrong_decisions(submit(updates), expected))


def write_window(submit: Callable, stream, chunk: int, seconds: float,
                 run: Run) -> None:
    """Closed loop, one caller: generate a chunk (untimed), submit it
    (timed), check it against the oracle (untimed), until the timed calls
    add up to ``seconds``."""
    stamps, busy, cpu = [], 0.0, 0.0
    first = None
    while busy < seconds:
        updates, expected = stream.take(chunk)
        cpu0, start = process_time(), perf_counter()
        results = submit(updates)
        end, cpu1 = perf_counter(), process_time()
        first = start if first is None else first
        busy += end - start
        cpu += cpu1 - cpu0
        stamps.append((busy, end - start, len(updates)))
        run.count(len(updates), gen.wrong_decisions(results, expected))
    run.windows["write"] = (first, perf_counter())
    decided = sum(n for _, _, n in stamps)
    # Every update of a call waits for the whole call, so the sample
    # unit is the call (all calls carry the same number of updates).
    latencies = [lat for _, lat, _n in stamps]
    run.e2e["throughput_ups"] = decided / busy
    run.e2e["latency_p50_ms"] = stats.percentile(latencies, 50) * 1e3
    # The tail of the whole window is the host's, not the program's (see
    # stats.quiet_tail); it stays in the detail for whoever wants it.
    run.e2e["latency_p95_ms"] = stats.quiet_tail(
        latencies, TAIL, TAIL_STRETCHES) * 1e3
    run.e2e["cpu_us_per_update"] = cpu / decided * 1e6
    per_slice = stats.slices([(at - lat / 2, n) for at, lat, n in stamps],
                             0.0, seconds, SLICES)
    run.detail["write"] = {
        "updates": decided, "calls": len(stamps), "busy_s": busy,
        "slice_ups": per_slice,
        "latency_samples": len(latencies),
        "window_p95_ms": stats.percentile(latencies, TAIL) * 1e3,
        "supported_percentile": stats.supported_percentile(len(latencies)),
    }


def audit_phase(ledger, seconds: float, seed: int) -> dict:
    """An auditor who trusts only published digests: alternately prove and
    verify a seeded entry against the final digest, and prove and verify
    that an earlier digest is a prefix of it.  One tampered leaf is the
    negative control.  Runs wherever the ledger lives (here, or in the
    server process)."""
    from repro.ledger.central import CentralLedger, LedgerEntry

    rng = random.Random(seed)
    final = ledger.digest()
    step = max(1, final.size // AUDIT_OLD_DIGESTS)
    earlier = [ledger.digest(size) for size in
               range(step, final.size, step)][:AUDIT_OLD_DIGESTS]
    proofs = failures = 0
    busy = 0.0
    first = perf_counter()
    while busy < seconds:
        start = perf_counter()
        if proofs % 2 == 0 or not earlier:
            sequence = rng.randrange(final.size)
            proof = ledger.prove_inclusion(sequence)
            ok = CentralLedger.verify_entry(
                final, ledger.entry(sequence), proof)
        else:
            old = earlier[(proofs // 2) % len(earlier)]
            proof = ledger.prove_consistency(old.size)
            ok = CentralLedger.verify_extension(old, final, proof)
        busy += perf_counter() - start
        proofs += 1
        failures += 0 if ok else 1
    end = perf_counter()
    sequence = rng.randrange(final.size)
    genuine = ledger.entry(sequence)
    forged = LedgerEntry(sequence=sequence,
                         payload=dict(genuine.payload, status="forged"))
    tamper_rejected = not CentralLedger.verify_entry(
        final, forged, ledger.prove_inclusion(sequence))
    return {"proofs": proofs, "failures": failures, "busy_s": busy,
            "proofs_per_s": proofs / busy, "ledger_entries": final.size,
            "tamper_rejected": tamper_rejected, "window": [first, end]}


def _note_audit(run: Run, audit: dict) -> None:
    run.e2e["audit_proofs_per_s"] = audit["proofs_per_s"]
    run.count(audit["proofs"], audit["failures"])
    run.checks["tampered_proof_rejected"] = audit["tamper_rejected"]
    run.windows["audit"] = tuple(audit["window"])
    run.detail["audit"] = {k: audit[k] for k in
                           ("proofs", "busy_s", "ledger_entries")}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- group_plain / group_paillier ---------------------------------------------


def group(name: str, seed: int, seconds: float, recorder, ready: Callable):
    """The per-worker cap through ``submit_many``, chunk 64, in process."""
    private = name == "group_paillier"
    producer = gen.SeededProducer(PRODUCER, seed) if private else None
    framework = build_tasks("paillier" if private else "plaintext",
                            signed=private)
    if recorder is not None:
        import trace

        trace.trace_framework(recorder, framework)
        trace.trace_verifiers(recorder)
    stream = gen.TasksStream(seed, producer)
    run = Run()
    chunk = CHUNK[name]
    submit_checked(framework.submit_many, stream, chunk, WARMUP_BATCHES, run)
    ready()

    shares = PHASES[name]
    write_window(framework.submit_many, stream, chunk,
                 seconds * shares["write"], run)
    _note_audit(run, audit_phase(framework.ledger,
                                 seconds * shares["audit"], seed))
    run.e2e["peak_rss_mb"] = _rss_mb()

    table = framework.databases[0].table(gen.TasksStream.TABLE)
    applied: Dict[str, int] = {}
    for row in table.rows():
        applied[row["worker"]] = applied.get(row["worker"], 0) + row["hours"]
    run.checks["cap_holds_in_table"] = (
        max(applied.values()) <= gen.TasksStream.CAP)
    run.checks["table_equals_oracle"] = applied == stream.hours
    if private:
        run.checks["equals_plaintext_on_prefix"] = _prefix_agrees(
            framework, seed)
    run.detail["state"] = {"ledger_entries": len(framework.ledger),
                           "table_rows": len(table)}
    framework.close()
    return run


def _prefix_agrees(private_framework, seed: int) -> bool:
    """Replay the first ``PREFIX`` updates of the same seed through the
    plaintext engine; both engines must have decided them alike."""
    plain = build_tasks("plaintext", signed=False)
    updates, _ = gen.TasksStream(seed).take(PREFIX)
    chunk = CHUNK["group_plain"]
    decisions = []
    for at in range(0, PREFIX, chunk):
        decisions.extend(r.applied for r in
                         plain.submit_many(updates[at:at + chunk]))
    theirs = [r.applied for r in list(private_framework.results)[:PREFIX]]
    return decisions == theirs


# -- replicated_paxos ---------------------------------------------------------


def replicated_paxos(seed: int, seconds: float, recorder, ready: Callable):
    """Three replicas behind a Paxos driver on the simulated LAN."""
    from repro.consensus.driver import ReplicationPlan, make_driver
    from repro.core.replicated import ReplicatedShard

    shard = ReplicatedShard(
        build_emissions, replicas=3,
        driver=make_driver(ReplicationPlan(kind="paxos", nodes=3,
                                           profile="lan")))
    if recorder is not None:
        import trace

        trace.trace_shard(recorder, shard)
        trace.trace_verifiers(recorder)
    stream = gen.EmissionsStream(seed)
    run = Run()
    chunk = CHUNK["replicated_paxos"]
    submit_checked(shard.submit_many, stream, chunk, WARMUP_BATCHES, run)
    ready()

    shares = PHASES["replicated_paxos"]
    network = shard.driver.cluster.network
    messages0 = network.message_count
    batches0 = shard.stats()["decided_batches"]
    write_window(shard.submit_many, stream, chunk,
                 seconds * shares["write"], run)
    cluster = shard.stats()["cluster"]
    batches = shard.stats()["decided_batches"] - batches0
    run.detail["consensus"] = {
        "batches": batches,
        "messages_per_batch": (network.message_count - messages0) / batches,
        "commit_sim_p50_ms": cluster["p50_latency"] * 1e3,
    }
    run.own["commit_sim_p50_ms"] = cluster["p50_latency"] * 1e3
    roots = [shard.assert_converged()]
    _note_audit(run, audit_phase(shard.primary.ledger,
                                 seconds * shares["audit"], seed))
    # Read before the catch-up phase: a fourth framework lives beside the
    # crashed one until the collector frees it, and whether that overlap
    # sets the high-water mark differed from run to run (102 vs 119 MB).
    run.e2e["peak_rss_mb"] = _rss_mb()

    shard.crash_replica(2)
    submit_checked(shard.submit_many, stream, chunk, CATCHUP_BATCHES, run)
    roots.append(shard.assert_converged())
    decided_updates = shard.counters()["ledger_size"]
    start = perf_counter()
    shard.restart_replica(2)
    catchup_s = perf_counter() - start
    roots.append(shard.assert_converged())
    live = [r.ledger.digest().root for r in shard.replicas if r is not None]
    run.checks["replicas_converged_each_phase"] = (
        len(live) == 3 and len(set(live)) == 1 and roots[2] == live[0])
    run.detail["catchup"] = {
        "seconds": catchup_s, "updates": decided_updates,
        "batches": shard.stats()["decided_batches"],
        "ups": decided_updates / catchup_s,
    }
    run.own["catchup_ups"] = decided_updates / catchup_s

    primary = shard.primary
    run.detail["state"] = {
        "ledger_entries": len(primary.ledger),
        "table_rows": len(primary.databases[0].table(
            gen.EmissionsStream.TABLE))}
    shard.close()
    return run


# -- serve_durable ------------------------------------------------------------


class ServerProcess:
    """The child running ``server_main.py``; one line per command."""

    def __init__(self, directory: str, producer, src_path: str,
                 acked: str = "", trace: bool = False, spans: str = ""):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_main.py"),
             "--dir", directory, "--producer", producer.name,
             "--public-key", str(producer.public_key),
             "--acked", acked, "--trace", "1" if trace else "0",
             "--spans", spans],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)
        self.ready = self._read("READY")

    def _read(self, word: str) -> dict:
        line = self.proc.stdout.readline()
        if not line.startswith(word + " "):
            self.kill()
            raise RuntimeError(f"server said {line!r}, expected {word}")
        return json.loads(line[len(word) + 1:])

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read("DONE" if command == "STOP"
                          else command.split()[0])

    def kill(self) -> None:
        """SIGKILL: nothing is flushed, closed or reported."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.wait()

    def wait(self) -> None:
        self.proc.wait(timeout=60)
        self.proc.stdin.close()
        self.proc.stdout.close()


def _served_ok(reply, want) -> bool:
    return (not isinstance(reply, Exception)
            and gen.wrong_decisions([reply], [want]) == 0)


async def _connect(port: int, producer):
    from repro.serve.client import ServeClient

    return [await ServeClient.connect("127.0.0.1", port, producer=producer)
            for _ in range(CONNECTIONS)]


def _senders(clients):
    """One ``send(update)`` per connection; RETRY is a failure, not a
    reason to wait (``retries=0``)."""
    return [lambda update, client=client: client.submit(update, retries=0)
            for client in clients]


def _round_robin(clients):
    """One ``send`` over all connections, alternating per request."""
    turn = itertools.cycle(_senders(clients))
    return lambda update: next(turn)(update)


async def _paced_ladder(send, rungs, updates, expected, run: Run) -> list:
    """The open-loop rungs, drained between one another; returns the ids
    of every update the server acknowledged.  The generator process
    collects garbage between rungs, not inside them: a collection pause
    here would be charged to the server as latency."""
    ladder, acked, at = {}, [], 0
    gc.disable()
    try:
        for rate, offsets in rungs:
            chunk_u = updates[at:at + len(offsets)]
            chunk_e = expected[at:at + len(offsets)]
            at += len(offsets)
            gc.collect()
            start = perf_counter()
            report = await loadgen.open_loop(send, chunk_u, offsets)
            run.windows[f"rung_{rate}"] = (start, perf_counter())
            good = [_served_ok(r.reply, want)
                    for r, want in zip(report.requests, chunk_e)]
            run.count(len(good), good.count(False))
            acked.extend(r.reply.update_id for r in report.requests
                         if not isinstance(r.reply, Exception))
            # A request without a correct reply missed any limit.
            latencies = [r.latency if ok else float("inf")
                         for r, ok in zip(report.requests, good)]
            p99 = stats.percentile(latencies, 99)
            # Requests are in due order, so equal index ranges are equal
            # stretches of the schedule.
            quarters = [latencies[i * len(latencies) // SLICES:
                                  (i + 1) * len(latencies) // SLICES]
                        for i in range(SLICES)]
            ladder[rate] = {
                "requests": len(latencies),
                "p50_ms": statistics.median(
                    stats.percentile(q, 50) for q in quarters) * 1e3,
                "p95_ms": statistics.median(
                    stats.percentile(q, TAIL) for q in quarters) * 1e3,
                "p99_ms": p99 * 1e3, "gen_lag_p99_ms": report.lag_p99 * 1e3,
                "inflight_median": report.inflight_median,
                "inflight_end": report.inflight_end,
                "meets_limit": (
                    p99 <= LATENCY_LIMIT_S
                    and report.inflight_end <= 2 * report.inflight_median
                    and report.lag_p99 <= LAG_LIMIT_S),
                "supported_percentile":
                    stats.supported_percentile(len(latencies)),
            }
            if rate == NOMINAL:
                run.detail["nominal_requests"] = [
                    (r.reply.update_id, r.due, r.start, r.done)
                    for r, ok in zip(report.requests, good) if ok]
    finally:
        gc.enable()
    run.detail["ladder"] = ladder
    run.e2e["latency_p50_ms"] = ladder[NOMINAL]["p50_ms"]
    run.e2e["latency_p95_ms"] = ladder[NOMINAL]["p95_ms"]
    run.own["served_p99_ms"] = ladder[NOMINAL]["p99_ms"]
    return acked


async def _serve_durable(seed, seconds, recorder, ready, workdir, src_path,
                         spans_dir):
    shares = PHASES["serve_durable"]
    run = Run()
    producer = gen.SeededProducer(PRODUCER, seed)
    state = os.path.join(workdir, "state")
    traced = recorder is not None
    span_files = [os.path.join(spans_dir or workdir, f"serve_durable.server{i}"
                               ".spans.jsonl") for i in (0, 1)]
    server = ServerProcess(state, producer, src_path, trace=traced,
                           spans=span_files[0])
    try:
        clients = await _connect(server.ready["port"], producer)
        if traced:
            import trace

            trace.trace_protocol(recorder, "client")
        stream = gen.EmissionsStream(seed, producer)
        rng = random.Random(seed)
        rungs = []
        for rate in RATES:
            offsets = gen.poisson_schedule(
                rng, rate, seconds * shares[f"rung_{rate}"])
            rungs.append((rate, offsets))
        paced = sum(len(offsets) for _, offsets in rungs)
        corrupt = set(rng.sample(range(paced), CORRUPTED))
        warm_updates, warm_expected = stream.take(SERVE_WARMUP)
        updates, expected = stream.take(paced, corrupt_at=corrupt)
        pool = [stream.next() for _ in range(
            int(seconds * shares["closed"] * CLOSED_POOL_UPS))]
        send = _round_robin(clients)
        warm = await asyncio.gather(*[send(u) for u in warm_updates])
        run.count(SERVE_WARMUP, gen.wrong_decisions(warm, warm_expected))
        acked = [r.update_id for r in warm]
        ready()

        # Paced phase: the open-loop ladder.
        stats0 = server.ask("STATS")
        acked += await _paced_ladder(send, rungs, updates, expected, run)
        stats1 = server.ask("STATS")
        run.checks["one_reply_per_request"] = len(set(acked)) == len(acked)

        # Recovery phase: SIGKILL the idle server, recover in a fresh one.
        for client in clients:
            await client.close()
        server.ask("DUMP")
        server.kill()
        acked_path = os.path.join(workdir, "acked.txt")
        with open(acked_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(acked) + "\n")
        server = ServerProcess(state, producer, src_path, acked=acked_path,
                               trace=traced, spans=span_files[1])
        recovered = server.ready["recovered"]
        run.count(recovered["acked"], recovered["acked_missing"])
        run.checks["recovered_root_verified"] = (
            recovered["report"]["verified_against_anchor"]
            and recovered["root_matches_rebuild"])
        run.detail["recovery"] = recovered
        run.own["recover_s"] = recovered["recover_s"]
        clients = await _connect(server.ready["port"], producer)

        # Closed-loop phase: IN_FLIGHT callers per connection.
        cursor = itertools.count()

        def next_update():
            index = next(cursor)
            if index >= len(pool):   # outran the pre-signed pool
                pool.append(stream.next())
            return index, pool[index][0]

        stats2 = server.ask("STATS")
        client_cpu = process_time()
        start = perf_counter()
        window = seconds * shares["closed"]
        records = await loadgen.closed_loop(
            _senders(clients), IN_FLIGHT, next_update, window)
        run.windows["closed"] = (start, perf_counter())
        client_cpu = process_time() - client_cpu
        stats3 = server.ask("STATS")
        good = [_served_ok(r.reply, pool[r.index][1]) for r in records]
        run.count(len(good), good.count(False))
        per_slice = stats.slices(
            [(r.done, 1) for r, ok in zip(records, good) if ok],
            start, start + window, SLICES)
        run.e2e["throughput_ups"] = statistics.median(per_slice)
        run.e2e["cpu_us_per_update"] = (
            (stats3["cpu_s"] - stats2["cpu_s"]) / len(records) * 1e6)
        run.detail["closed"] = {
            "requests": len(records),
            "generator_cpu_share": client_cpu / (
                run.windows["closed"][1] - start),
            "server_cpu_share": (stats3["cpu_s"] - stats2["cpu_s"]) / (
                stats3["at"] - stats2["at"]),
            "slice_ups": per_slice,
        }

        for client in clients:
            await client.close()
        audit = server.ask(f"AUDIT {seconds * shares['audit']} {seed}")
        _note_audit(run, audit)
        final = server.ask("STOP")
        server.wait()
        run.e2e["peak_rss_mb"] = final["rss_mb"]
        run.checks["server_saw_no_retry_or_error"] = (
            final["retries"] == 0 and stats1["retries"] == 0
            and final["errors"] == 0 and stats1["errors"] == 0)
        run.detail["server"] = {"paced": [stats0, stats1],
                                "closed": [stats2, stats3], "final": final}
        run.detail["state"] = {"ledger_entries": final["ledger_entries"],
                               "table_rows": final["table_rows"]}
        run.detail["span_files"] = span_files if traced else []
    finally:
        server.kill()
    return run


def serve_durable(seed, seconds, recorder, ready, workdir, src_path,
                  spans_dir=None):
    """Child-process server on the durable path; see ``_serve_durable``."""
    return asyncio.run(_serve_durable(seed, seconds, recorder, ready,
                                      workdir, src_path, spans_dir))


def run_workload(name: str, seed: int, seconds: float, recorder,
                 ready: Callable, workdir: str, src_path: str,
                 spans_dir: Optional[str] = None) -> Run:
    """Run one workload; ``ready()`` is called once, when set-up (build,
    key generation, pre-signing, handshakes, warm-up) is over."""
    if name == "serve_durable":
        return serve_durable(seed, seconds, recorder, ready, workdir,
                             src_path, spans_dir)
    if name == "replicated_paxos":
        return replicated_paxos(seed, seconds, recorder, ready)
    if name in ("group_plain", "group_paillier"):
        return group(name, seed, seconds, recorder, ready)
    raise ValueError(f"unknown workload {name!r}")
