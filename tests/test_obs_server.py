"""The live ops endpoint: scrapes, probes, and verification trails.

The load-bearing guarantees pinned here:

* ``/metrics`` and ``/metrics.json`` serve the framework's registry
  over real HTTP (schema v3, Prometheus content type);
* ``/healthz`` is 200 on a healthy framework and flips to 503 when the
  WAL is torn down underneath it (injected failure);
* ``/readyz`` additionally detects a live ledger that no longer
  extends the last durably anchored root;
* ``/trace/<trace_id>`` returns an update's full verification trail —
  anchored payload, inclusion proof, correlated events — and the proof
  re-verifies *client-side* against the last anchored root, from the
  JSON alone.
"""

import json
import urllib.error
import urllib.request

from repro.core.framework import PReVer
from repro.crypto.merkle import InclusionProof
from repro.durability import Durability
from repro.ledger.central import CentralLedger, LedgerDigest, LedgerEntry
from repro.obs.events import EventLog
from repro.obs.export import METRICS_SCHEMA_VERSION
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, OpsServer, start_ops_server
from repro.obs.tracing import Tracer

from tests.test_pipeline_stages import build_plaintext, golden_stream, make_db


def http_get(url):
    """GET ``url``; returns (status, content_type, body_bytes) without
    raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (response.status, response.headers.get("Content-Type"),
                    response.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


# -- scrapes ----------------------------------------------------------------


def test_metrics_endpoints_over_http():
    framework = build_plaintext()
    for update in golden_stream():
        framework.submit(update)
    with start_ops_server(framework) as server:
        status, content_type, body = http_get(server.url("/metrics"))
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "repro_pipeline_updates_total" in text
        assert 'quantile="0.99"' in text

        status, content_type, body = http_get(server.url("/metrics.json"))
        assert status == 200
        assert content_type == "application/json"
        doc = json.loads(body)
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        assert doc["counters"]["pipeline.updates"]["count"] == len(
            golden_stream()
        )


def test_unknown_routes_are_404():
    framework = build_plaintext()
    with start_ops_server(framework) as server:
        status, _, body = http_get(server.url("/nope"))
        assert status == 404
        assert "/metrics" in json.loads(body)["routes"]
        status, _, _ = http_get(server.url("/trace/never-traced"))
        assert status == 404


def test_handler_errors_become_500_not_crashes():
    class Broken:
        @property
        def metrics(self):
            raise RuntimeError("boom")

    server = OpsServer(Broken())
    status, _, body = server.handle("/metrics")
    assert status == 500
    assert "boom" in json.loads(body)["error"]


# -- probes -----------------------------------------------------------------


def test_healthz_and_readyz_on_healthy_framework(tmp_path):
    framework = build_plaintext(durability=Durability.wal(str(tmp_path)))
    framework.submit_many(golden_stream())
    with start_ops_server(framework) as server:
        status, _, body = http_get(server.url("/healthz"))
        report = json.loads(body)
        assert status == 200 and report["ok"]
        assert report["checks"]["wal"]["ok"]
        assert report["checks"]["ledger"]["ok"]
        assert report["checks"]["executor"]["ok"]

        status, _, body = http_get(server.url("/readyz"))
        ready = json.loads(body)
        assert status == 200 and ready["ok"]
        assert ready["checks"]["anchored_root"] == {
            "ok": True,
            "anchored": True,
            "size": framework._last_anchored_digest.size,
            "root": framework._last_anchored_digest.root.hex(),
        }
    framework.close()


def test_healthz_flips_unhealthy_on_wal_failure(tmp_path):
    framework = build_plaintext(durability=Durability.wal(str(tmp_path)))
    framework.submit_many(golden_stream()[:4])
    with start_ops_server(framework) as server:
        status, _, _ = http_get(server.url("/healthz"))
        assert status == 200
        # Injected failure: tear the WAL down underneath the framework.
        framework._wal.close()
        status, _, body = http_get(server.url("/healthz"))
        report = json.loads(body)
        assert status == 503
        assert not report["ok"]
        assert not report["checks"]["wal"]["ok"]
        assert report["checks"]["ledger"]["ok"]  # only the WAL is sick


def test_readyz_detects_anchored_root_divergence(tmp_path):
    framework = build_plaintext(durability=Durability.wal(str(tmp_path)))
    framework.submit_many(golden_stream()[:4])
    assert framework.readiness_report()["ok"]
    # Simulate in-memory divergence from the durable anchor.
    anchored = framework._last_anchored_digest
    framework._last_anchored_digest = LedgerDigest(
        size=anchored.size, root=b"\x00" * 32
    )
    report = framework.readiness_report()
    assert not report["ok"]
    assert not report["checks"]["anchored_root"]["ok"]
    framework.close()


def test_readyz_without_durability_is_ready():
    framework = build_plaintext()
    framework.submit(golden_stream()[0])
    report = framework.readiness_report()
    assert report["ok"]
    assert report["checks"]["anchored_root"] == {"ok": True, "anchored": False}
    assert report["checks"]["wal"] == {"ok": True, "enabled": False}


# -- verification trails ----------------------------------------------------


def traced_framework(state_dir):
    tracer = Tracer().add_sink(EventLog())
    framework = build_plaintext(
        durability=Durability.wal(state_dir), tracer=tracer
    )
    return framework


def test_trace_trail_reverifies_against_anchored_root(tmp_path):
    framework = traced_framework(str(tmp_path))
    results = framework.submit_many(golden_stream())
    accepted = next(r for r in results if r.applied)
    with start_ops_server(framework) as server:
        status, _, body = http_get(server.url(f"/trace/{accepted.trace_id}"))
    assert status == 200
    trail = json.loads(body)
    assert trail["trace_id"] == accepted.trace_id
    assert trail["sequence"] == accepted.ledger_sequence
    assert trail["verified"] is True
    # The digest the proof targets is the last durably anchored root.
    anchored = framework._last_anchored_digest
    assert trail["digest"] == {
        "size": anchored.size, "root": anchored.root.hex(),
    }
    # Client-side re-verification from the served JSON alone: rebuild
    # the entry, digest, and proof, and check the inclusion path.
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
    assert CentralLedger.verify_entry(digest, entry, proof)
    # Tampered payloads must not verify.
    tampered = LedgerEntry(
        sequence=trail["sequence"],
        payload={**trail["payload"], "status": "applied-but-not-really"},
    )
    assert not CentralLedger.verify_entry(digest, tampered, proof)
    # The correlated event-log records ride along.
    kinds = {event["kind"] for event in trail["events"]}
    assert "constraint_verdict" in kinds
    assert "ledger_anchor" in kinds
    framework.close()


def test_trace_trail_includes_rejections(tmp_path):
    framework = traced_framework(str(tmp_path))
    results = framework.submit_many(golden_stream())
    rejected = next(r for r in results if not r.accepted)
    trail = framework.verification_trail(rejected.trace_id)
    assert trail is not None
    assert trail["payload"]["status"] == "rejected"
    assert trail["verified"] is True
    kinds = {event["kind"] for event in trail["events"]}
    assert "rejection" in kinds
    framework.close()


def test_trace_trail_absent_without_tracing():
    framework = build_plaintext()
    framework.submit(golden_stream()[0])
    assert framework.verification_trail("tr-whatever") is None


def test_trail_before_first_anchor_uses_live_digest():
    # No durability: nothing sets _last_anchored_digest, so the trail
    # must fall back to the live ledger digest and still verify.
    tracer = Tracer().add_sink(EventLog())
    framework = PReVer([make_db()], tracer=tracer)
    result = framework.submit(golden_stream()[0])
    trail = framework.verification_trail(result.trace_id)
    assert trail is not None and trail["verified"] is True
    assert trail["digest"]["size"] == len(framework.ledger)
