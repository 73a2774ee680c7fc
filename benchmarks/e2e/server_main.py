"""The served workload's server process.

Started by ``workloads.serve_durable`` so the load generator and the
server do not share an interpreter lock.  Builds the durable framework,
optionally recovers it from the WAL an earlier (killed) server wrote,
serves it with ``ServeConfig`` defaults, and answers four one-line
commands on stdin — ``STATS`` (counters so far), ``DUMP`` (write the spans
recorded so far; the only way to keep them across a SIGKILL),
``AUDIT <seconds> <seed>`` and ``STOP`` (graceful drain, final report,
exit).  Every reply is one line: ``<WORD> <json>``.
"""

import argparse
import asyncio
import json
import os
import resource
import sys
import time

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _reply(word: str, doc: dict) -> None:
    sys.stdout.write(f"{word} {json.dumps(doc)}\n")
    sys.stdout.flush()


def _stats(framework, started: float) -> dict:
    metrics = framework.metrics
    return {
        "at": time.perf_counter(),
        "cpu_s": time.process_time(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "uptime_s": time.perf_counter() - started,
        "ledger_entries": len(framework.ledger),
        "table_rows": len(framework.databases[0].table("emissions")),
        "retries": metrics.counter_value("server.retries"),
        "errors": metrics.counter_value("server.errors"),
        "batches": metrics.counter_value("server.batches"),
        "batched_updates": metrics.counter_total("server.batched_updates"),
        "wal_bytes": metrics.counter_total("durability.wal_bytes"),
        "fsyncs": metrics.counter_value("durability.fsyncs"),
    }


def _recover(framework, acked_path: str) -> dict:
    """Timed ``recover()`` plus the checks only this process can make:
    the recovered root against a from-scratch tree over the ledger's leaf
    bytes, and every update the client saw acknowledged being present."""
    from repro.crypto.merkle import MerkleTree

    start = time.perf_counter()
    report = framework.recover()
    recover_s = time.perf_counter() - start
    entries = framework.ledger.entries()
    rebuilt = MerkleTree([entry.leaf_bytes() for entry in entries]).root()
    present = {entry.payload["update_id"] for entry in entries}
    with open(acked_path, "r", encoding="utf-8") as handle:
        acked = [line.strip() for line in handle if line.strip()]
    return {
        "recover_s": recover_s,
        "report": report.to_dict(),
        "records": report.replayed_updates + report.replayed_anchors,
        "root_matches_rebuild": rebuilt.hex() == report.final_root,
        "acked": len(acked),
        "acked_missing": sum(1 for uid in acked if uid not in present),
    }


async def _serve(args) -> int:
    import workloads
    from repro.serve.server import PReVerServer, ServeConfig

    framework = workloads.build_emissions(durable_dir=args.dir, signed=True)
    recorder = None
    if args.trace:
        import trace

        recorder = trace.Recorder()
        trace.trace_framework(recorder, framework)
        trace.trace_verifiers(recorder)
        trace.trace_protocol(recorder, "server")
    recovered = _recover(framework, args.acked) if args.acked else None
    server = PReVerServer(
        framework, ServeConfig(producers={args.producer: args.public_key}))
    await server.start()
    if recorder is not None:
        trace.trace_scheduler(recorder, server.scheduler)
    started = time.perf_counter()
    _reply("READY", {"port": server.address[1], "setup_s": started - _T0,
                     "recovered": recovered})

    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = line.split()
        if not command or command[0] == "STOP":
            break
        if command[0] == "STATS":
            _reply("STATS", _stats(framework, started))
        elif command[0] == "DUMP":
            if recorder is not None:
                recorder.dump(args.spans)
            _reply("DUMP", {})
        elif command[0] == "AUDIT":
            _reply("AUDIT", workloads.audit_phase(
                framework.ledger, float(command[1]), int(command[2])))
    await server.stop()
    final = _stats(framework, started)
    final["root"] = framework.ledger.digest().root.hex()
    framework.close()
    if recorder is not None:
        recorder.dump(args.spans)
        final["span_cost_s"] = recorder.span_cost()
    _reply("DONE", final)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--producer", required=True)
    parser.add_argument("--public-key", type=int, required=True)
    parser.add_argument("--acked", default="",
                        help="file of acknowledged update ids; recover "
                             "from the WAL in --dir and check them")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
