#!/usr/bin/env python3
"""Telemetry demo: the live ops endpoint end-to-end.

Boots a WAL-durable, traced Paillier-engine PReVer instance, starts
the :class:`~repro.obs.server.OpsServer` on an ephemeral port, and
exercises every route a real deployment would wire up:

* ``/metrics`` — Prometheus text exposition (scrape config target);
* ``/metrics.json`` — the versioned JSON schema;
* ``/healthz`` / ``/readyz`` — liveness and the anchored-root check;
* ``/trace/<trace_id>`` — one update's full verification trail, whose
  inclusion proof this script then **re-verifies client-side** from
  the served JSON alone (rebuilding the entry, digest, and proof —
  the auditor never needs the server's trust).

``--metrics-out`` archives the ``/metrics.json`` body.

Run:  PYTHONPATH=src python examples/telemetry_demo.py
          [--metrics-out metrics.json]
"""

import argparse
import json
import tempfile
import urllib.error
import urllib.request

from repro import (
    CentralLedger,
    ColumnType,
    Database,
    Durability,
    EventLog,
    TableSchema,
    Tracer,
    Update,
    UpdateOperation,
    single_private_database,
    upper_bound_regulation,
)
from repro.crypto.merkle import InclusionProof
from repro.ledger.central import LedgerDigest, LedgerEntry
from repro.obs.server import start_ops_server


def build_framework(state_dir):
    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    database = Database("cloud-manager")
    database.create_table(schema)
    cap = upper_bound_regulation(
        "iso-cap", "emissions", "co2", bound=100, match_columns=["org"]
    )
    tracer = Tracer().add_sink(EventLog())
    return single_private_database(
        database, [cap], engine="paillier", tracer=tracer,
        durability=Durability.wal(state_dir),
    )


def get(url):
    """GET ``url``; returns (status, body_bytes), tolerating 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def reverify_trail(trail):
    """Re-run the trail's inclusion proof from the JSON alone."""
    entry = LedgerEntry(sequence=trail["sequence"], payload=trail["payload"])
    digest = LedgerDigest(
        size=trail["digest"]["size"],
        root=bytes.fromhex(trail["digest"]["root"]),
    )
    proof = InclusionProof(
        leaf_index=trail["proof"]["leaf_index"],
        tree_size=trail["proof"]["tree_size"],
        path=[bytes.fromhex(node) for node in trail["proof"]["path"]],
    )
    return CentralLedger.verify_entry(digest, entry, proof)


def main(argv=None):
    parser = argparse.ArgumentParser(description="live ops endpoint demo")
    parser.add_argument("--metrics-out", default="",
                        help="archive the /metrics.json body to this path")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="telemetry-demo-") as state_dir:
        prever = build_framework(state_dir)
        updates = [
            Update(table="emissions", operation=UpdateOperation.INSERT,
                   payload={"id": i, "org": "acme", "co2": co2})
            for i, co2 in enumerate([60, 30, 40])
        ]
        results = prever.submit_many(updates)

        with start_ops_server(prever) as server:
            print(f"== ops server at {server.url()} ==")

            status, body = get(server.url("/metrics"))
            lines = body.decode("utf-8").splitlines()
            print(f"\n== /metrics: {status}, {len(lines)} lines ==")
            print("\n".join(lines[:6]))

            status, body = get(server.url("/metrics.json"))
            doc = json.loads(body)
            print(f"\n== /metrics.json: {status}, "
                  f"schema v{doc['schema_version']}, "
                  f"{len(doc['counters'])} counters ==")
            if args.metrics_out:
                with open(args.metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(body.decode("utf-8"))
                print(f"wrote {args.metrics_out}")

            for probe in ("/healthz", "/readyz"):
                status, body = get(server.url(probe))
                report = json.loads(body)
                checks = {name: check["ok"]
                          for name, check in report["checks"].items()}
                print(f"\n== {probe}: {status} ok={report['ok']} "
                      f"checks={checks} ==")

            applied = next(r for r in results if r.applied)
            rejected = next(r for r in results if not r.applied)
            for result, label in ((applied, "applied"), (rejected, "rejected")):
                status, body = get(server.url(f"/trace/{result.trace_id}"))
                trail = json.loads(body)
                assert status == 200 and trail["verified"], \
                    f"trail for {label} update did not verify server-side"
                assert reverify_trail(trail), \
                    f"client-side re-verification failed for {label} update"
                print(f"\n== /trace/{result.trace_id} ({label}) ==")
                print(f"  sequence={trail['sequence']} "
                      f"status={trail['payload']['status']}")
                print(f"  anchored root={trail['digest']['root'][:16]}… "
                      f"size={trail['digest']['size']}")
                print(f"  proof path: {len(trail['proof']['path'])} nodes — "
                      f"re-verified client-side from the JSON alone")
                print(f"  events: "
                      f"{[event['kind'] for event in trail['events']]}")

        prever.close()


if __name__ == "__main__":
    main()
