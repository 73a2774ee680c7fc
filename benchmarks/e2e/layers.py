"""Per-layer metrics of a traced run, and the served-request waterfall.

BENCHMARK.json's ``per_layer`` is the one list of per-layer metric names;
every traced run prints exactly these, with 0 where the workload does not
exercise the layer (that absence is the prediction: a change to that
layer must leave the workload alone).
"""

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import stats
import trace
from trace import Span, Totals

#: Order of the parts of one served request; they sum to its latency.
WATERFALL_PARTS = (
    "gen_lag", "client_encode", "transport_in", "decode", "dispatch",
    "queue_wait", "window_wait", "auth", "route", "verify", "wal_append",
    "apply", "anchor", "digest", "wal_anchor", "fsync", "pipeline_self",
    "respond_gap", "resp_encode", "transport_out", "client_decode",
    "client_tail",
)
#: Parts no named span covers: socket, kernel, event-loop hops.
RESIDUAL_PARTS = ("transport_in", "dispatch", "respond_gap",
                  "transport_out", "client_tail")


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def _key_sum(spans: Iterable[Span], name: str, start: float, end: float,
             index=None) -> float:
    total = 0
    for _sid, _parent, span_name, s, _e, key in spans:
        if span_name == name and start <= s < end:
            total += key if index is None else key[index]
    return total


def pipeline_metrics(spans: Sequence[Span], window: Tuple[float, float],
                     out: Dict[str, float]) -> Dict[str, Totals]:
    """core.*, database, crypto.paillier, durability.wal (timed part) and
    ledger append/digest metrics from the spans inside ``window``.  Each
    per-update figure divides by the updates that reached that stage."""
    t = trace.summarize(spans, *window)
    private = "crypto.paillier.prepare_batch" in t

    def stage(name):
        one, batch = t[f"{name}.run_one"], t[f"{name}.run_batch"]
        return _per(one.total + batch.total, one.count, 1e6)

    out["core.auth.us_per_update"] = stage("core.auth")
    out["core.route.us_per_update"] = stage("core.route")
    out["core.verify.us_per_update"] = stage("core.verify")
    out["core.apply.us_per_update"] = stage("core.apply")
    batches = t["core.anchor.run_batch"].count
    out["core.anchor.ms_per_batch"] = _per(
        t["core.anchor.run_batch"].total - t["durability.commit"].total,
        batches, 1e3)
    updates = t["core.auth.run_one"].count
    out["core.pipeline.self_us_per_update"] = _per(
        t["core.pipeline.submit_many"].self_time, updates, 1e6)
    verified = t["core.verify.run_one"].count
    out["database.scans_per_update"] = _per(t["database.scan"].count, verified)
    out["database.rows_scanned_per_update"] = _per(
        _key_sum(spans, "database.scan", *window), verified)
    out["crypto.paillier.prepare_ms_per_batch"] = _per(
        t["crypto.paillier.prepare_batch"].total, batches, 1e3)
    if private:
        out["crypto.paillier.verify_us_per_update"] = _per(
            t["engine.verify"].total, t["engine.verify"].count, 1e6)
    appended = t["durability.wal.append_update"]
    out["durability.wal.append_us_per_update"] = _per(
        appended.total, appended.count, 1e6)
    synced = t["durability.wal.sync"]
    out["durability.wal.fsync_ms_per_batch"] = _per(
        synced.total, synced.count, 1e3)
    out["durability.wal.fsyncs_per_update"] = _per(synced.count, updates)
    extended = t["ledger.central.append_batch"]
    out["ledger.central.append_batch_ms_per_batch"] = _per(
        extended.total, extended.count, 1e3)
    out["ledger.central.digest_ms_per_call"] = _per(
        t["ledger.central.digest"].total, t["ledger.central.digest"].count,
        1e3)
    out["ledger.central.digest_calls_per_batch"] = _per(
        t["ledger.central.digest"].count, extended.count)
    return t


def audit_metrics(spans: Sequence[Span], window: Tuple[float, float],
                  out: Dict[str, float]) -> None:
    t = trace.summarize(spans, *window)
    prove = [t["ledger.central.prove_inclusion"],
             t["ledger.central.prove_consistency"]]
    verify = [t["ledger.central.verify_entry"],
              t["ledger.central.verify_extension"]]
    out["ledger.central.prove_us_per_proof"] = _per(
        sum(x.total for x in prove), sum(x.count for x in prove), 1e6)
    out["ledger.central.verify_us_per_proof"] = _per(
        sum(x.total for x in verify), sum(x.count for x in verify), 1e6)


def _overhead(spans: Sequence[Span], window: Tuple[float, float],
              span_cost: float) -> float:
    """Share of the window the wrappers themselves consumed."""
    inside = sum(1 for span in spans if window[0] <= span[3] < window[1])
    return _per(inside * span_cost, window[1] - window[0])


def derive(names: Sequence[str], name: str, run, spans: Sequence[Span],
           span_cost: float,
           server_spans: Sequence[Sequence[Span]] = ()) -> Dict[str, float]:
    """Every per-layer metric in ``names`` (BENCHMARK.json's list) for one
    traced run; computing one the list does not declare raises."""
    out = {metric: 0.0 for metric in names}
    _fill(out, name, run, spans, span_cost, server_spans)
    undeclared = set(out) - set(names)
    if undeclared:
        raise KeyError(f"not in BENCHMARK.json per_layer: {sorted(undeclared)}")
    return out


def _fill(out, name, run, spans, span_cost, server_spans) -> None:
    state = run.detail["state"]
    out["state.ledger_entries_end"] = state["ledger_entries"]
    out["state.table_rows_end"] = state["table_rows"]
    if name == "serve_durable":
        _serve_metrics(run, spans, server_spans, out)
        return
    window = run.windows["write"]
    t = pipeline_metrics(spans, window, out)
    audit_metrics(spans, run.windows["audit"], out)
    slices = run.detail["write"]["slice_ups"]
    out["state.throughput_first_slice_ups"] = slices[0]
    out["state.throughput_last_slice_ups"] = slices[-1]
    out["trace.overhead_share"] = _overhead(spans, window, span_cost)
    if name == "replicated_paxos":
        consensus, catchup = run.detail["consensus"], run.detail["catchup"]
        batches = t["core.replicated.submit_many"].count
        out["consensus.driver.propose_ms_per_batch"] = _per(
            t["consensus.driver.propose_batch"].total, batches, 1e3)
        coded = (_key_sum(spans, "consensus.driver.encode_batch", *window)
                 + _key_sum(spans, "consensus.driver.decode_batch", *window))
        out["consensus.driver.codec_us_per_update"] = _per(
            t["consensus.driver.encode_batch"].total
            + t["consensus.driver.decode_batch"].total, coded, 1e6)
        out["consensus.driver.commit_sim_p50_ms"] = (
            consensus["commit_sim_p50_ms"])
        out["net.simnet.messages_per_batch"] = consensus["messages_per_batch"]
        out["core.replicated.replay_ms_per_batch"] = _per(
            t["core.pipeline.submit_many"].total, batches, 1e3)
        out["core.replicated.self_ms_per_batch"] = _per(
            t["core.replicated.submit_many"].self_time, batches, 1e3)
        out["core.replicated.catchup_batches"] = catchup["batches"]
        out["core.replicated.catchup_ups"] = catchup["ups"]


def _serve_metrics(run, client_spans, server_spans, out) -> None:
    """serve_durable: protocol, scheduler and the waterfall come from the
    nominal rung (server 0); pipeline, WAL and ledger costs from the
    closed-loop phase and proofs from the audit phase (server 1, the
    recovered one, at the deepest state)."""
    paced, recovered = server_spans
    ladder = run.detail["ladder"]
    for rate, rung in ladder.items():
        out[f"serve.ladder.p50_ms.{rate}"] = rung["p50_ms"]
        out[f"serve.ladder.p99_ms.{rate}"] = rung["p99_ms"]
    ok = [rate for rate, rung in ladder.items() if rung["meets_limit"]]
    out["serve.ladder.max_rate_ok_ups"] = max(ok) if ok else 0.0
    out["serve.client.gen_lag_p99_ms"] = max(
        rung["gen_lag_p99_ms"] for rung in ladder.values())

    server = run.detail["server"]
    out["serve.server.retries"] = (server["paced"][1]["retries"]
                                   + server["final"]["retries"])
    out["serve.server.errors"] = (server["paced"][1]["errors"]
                                  + server["final"]["errors"])
    before, after = server["paced"]
    out["serve.scheduler.updates_per_batch"] = _per(
        after["batched_updates"] - before["batched_updates"],
        after["batches"] - before["batches"])
    before, after = server["closed"]
    decided = after["batched_updates"] - before["batched_updates"]
    out["durability.wal.bytes_per_update"] = _per(
        after["wal_bytes"] - before["wal_bytes"], decided)

    nominal = run.windows["rung_300"]
    t = trace.summarize(paced, *nominal)
    requests = t["serve.protocol.update_from_wire"].count
    out["serve.protocol.decode_us_per_req"] = _per(
        t["serve.server.decode_payload"].total
        + t["serve.protocol.update_from_wire"].total, requests, 1e6)
    responses = t["serve.protocol.result_to_wire"].count
    out["serve.protocol.encode_us_per_resp"] = _per(
        t["serve.protocol.result_to_wire"].total
        + t["serve.server.encode_frame"].total, responses, 1e6)
    out["serve.protocol.bytes_in_per_update"] = _per(
        _key_sum(paced, "serve.server.decode_payload", *nominal, index=1),
        t["serve.server.decode_payload"].count)
    out["serve.protocol.bytes_out_per_update"] = _per(
        _key_sum(paced, "serve.server.encode_frame", *nominal, index=1),
        t["serve.server.encode_frame"].count)
    out["serve.scheduler.pipeline_busy_share"] = _per(
        t["core.pipeline.submit_many"].total, nominal[1] - nominal[0])
    c = trace.summarize(client_spans, *nominal)
    out["serve.client.encode_us_per_req"] = _per(
        c["serve.client.update_to_wire"].total
        + c["serve.client.encode_frame"].total,
        c["serve.client.update_to_wire"].count, 1e6)

    rows = join_waterfall(run.detail["nominal_requests"], client_spans, paced)
    run.detail["waterfall"] = rows
    out["serve.scheduler.queue_wait_p50_ms"] = stats.percentile(
        [row["queue_wait"] for row in rows], 50) * 1e3
    out["serve.scheduler.window_wait_p50_ms"] = stats.percentile(
        [row["window_wait"] for row in rows], 50) * 1e3
    total = sum(sum(row.values()) for row in rows)
    out["serve.waterfall.residual_share"] = _per(
        sum(row[part] for row in rows for part in RESIDUAL_PARTS), total)

    closed = run.windows["closed"]
    pipeline_metrics(recovered, closed, out)
    audit_metrics(recovered, run.windows["audit"], out)
    slices = run.detail["closed"]["slice_ups"]
    out["state.throughput_first_slice_ups"] = slices[0]
    out["state.throughput_last_slice_ups"] = slices[-1]
    recovery = run.detail["recovery"]
    out["durability.recovery.recover_s"] = recovery["recover_s"]
    out["durability.recovery.us_per_record"] = _per(
        recovery["recover_s"], recovery["records"], 1e6)
    out["durability.recovery.anchors_replayed"] = (
        recovery["report"]["replayed_anchors"])
    out["trace.overhead_share"] = _overhead(
        recovered, closed, server["final"]["span_cost_s"])


# -- the served-request waterfall ---------------------------------------------


def _batch_parts(batch: Span, children: Dict[int, List[Span]]) -> dict:
    """One ``submit_many`` span split by stage.  Every update in a batch
    waits for the whole batch, so these are charged to each of them."""
    inclusive: Dict[str, float] = defaultdict(float)
    todo = list(children.get(batch[0], ()))
    direct = sum(span[4] - span[3] for span in todo)
    while todo:
        span = todo.pop()
        inclusive[span[2]] += span[4] - span[3]
        todo.extend(children.get(span[0], ()))
    commit = inclusive["durability.commit"]
    fsync = inclusive["durability.wal.sync"]
    digest = inclusive["ledger.central.digest"]
    return {
        "auth": inclusive["core.auth.run_one"]
                + inclusive["core.auth.run_batch"],
        "route": inclusive["core.route.run_one"],
        "verify": inclusive["core.verify.run_one"]
                  + inclusive["core.verify.run_batch"],
        "wal_append": inclusive["durability.log.run_one"],
        "apply": inclusive["core.apply.run_one"],
        "anchor": inclusive["core.anchor.run_batch"] - commit,
        "digest": digest,
        "wal_anchor": commit - fsync - digest,
        "fsync": fsync,
        "pipeline_self": (batch[4] - batch[3]) - direct,
    }


def join_waterfall(requests, client_spans: Sequence[Span],
                   server_spans: Sequence[Span]) -> List[Dict[str, float]]:
    """Join client and server spans on the update id into one row of
    ``WATERFALL_PARTS`` per request.  The parts tile the interval from
    the request's due time to its reply, so they sum to the measured
    latency; a negative gap (clocks of the two processes disagreeing, or
    a span attributed to the wrong request) raises."""
    def by_uid(spans, name, pick=None):
        found = {}
        for span in spans:
            if span[2] == name:
                uid = span[5] if pick is None else span[5][pick]
                if uid is not None:
                    found.setdefault(uid, span)
        return found

    c_wire = by_uid(client_spans, "serve.client.update_to_wire")
    c_frame = by_uid(client_spans, "serve.client.encode_frame", 0)
    c_decode = by_uid(client_spans, "serve.client.decode_payload", 0)
    s_decode = by_uid(server_spans, "serve.server.decode_payload", 0)
    s_parse = by_uid(server_spans, "serve.protocol.update_from_wire")
    s_admit = by_uid(server_spans, "serve.scheduler.try_submit", 0)
    s_wire = by_uid(server_spans, "serve.protocol.result_to_wire")
    s_frame = by_uid(server_spans, "serve.server.encode_frame", 0)

    children: Dict[int, List[Span]] = defaultdict(list)
    for span in server_spans:
        if span[1]:
            children[span[1]].append(span)
    batches = sorted((span for span in server_spans
                      if span[2] == "core.pipeline.submit_many"),
                     key=lambda span: span[3])
    starts = [span[3] for span in batches]
    batch_of, parts_of = {}, {}
    for position, batch in enumerate(batches):
        for uid in batch[5]:
            batch_of[uid] = position

    rows = []
    for uid, due, start, done in requests:
        position = batch_of[uid]
        batch = batches[position]
        if position not in parts_of:
            parts_of[position] = _batch_parts(batch, children)
        admitted = s_admit[uid][4]
        # Queue wait: the part of admission -> execution during which
        # the pipeline thread was busy with an earlier batch.
        queued, at = 0.0, bisect.bisect_left(starts, batch[3]) - 1
        while at >= 0 and batches[at][4] > admitted:
            queued += (min(batches[at][4], batch[3])
                       - max(batches[at][3], admitted))
            at -= 1
        row = {
            "gen_lag": start - due,
            "client_encode": c_frame[uid][4] - start,
            "transport_in": s_decode[uid][3] - c_frame[uid][4],
            "decode": s_parse[uid][4] - s_decode[uid][3],
            "dispatch": admitted - s_parse[uid][4],
            "queue_wait": max(0.0, queued),
            "window_wait": (batch[3] - admitted) - max(0.0, queued),
            **parts_of[position],
            "respond_gap": s_wire[uid][3] - batch[4],
            "resp_encode": s_frame[uid][4] - s_wire[uid][3],
            "transport_out": c_decode[uid][3] - s_frame[uid][4],
            "client_decode": c_decode[uid][4] - c_decode[uid][3],
            "client_tail": done - c_decode[uid][4],
        }
        for part in RESIDUAL_PARTS + ("window_wait",):
            if row[part] < -1e-6:
                raise AssertionError(
                    f"waterfall of {uid}: {part} = {row[part]:.6f} s < 0")
        if abs(sum(row.values()) - (done - due)) > 1e-6:
            raise AssertionError(
                f"waterfall of {uid} sums to {sum(row.values()):.6f} s, "
                f"latency was {done - due:.6f} s")
        if uid not in c_wire:
            raise AssertionError(f"no client encode span for {uid}")
        rows.append(row)
    return rows


def print_waterfall(rows: List[Dict[str, float]], out=print) -> None:
    """Median and share of every part over the joined requests."""
    total = sum(sum(row.values()) for row in rows)
    out(f"  {'part':<16}{'p50 ms':>10}{'share':>9}")
    for part in WATERFALL_PARTS:
        values = [row[part] for row in rows]
        out(f"  {part:<16}{stats.percentile(values, 50) * 1e3:>10.3f}"
            f"{sum(values) / total:>9.3f}")
    latencies = [sum(row.values()) for row in rows]
    out(f"  {'latency':<16}{stats.percentile(latencies, 50) * 1e3:>10.3f}"
        f"{1.0:>9.3f}   ({len(rows)} requests)")


def print_layers(spans: Sequence[Span], window, out=print) -> None:
    """Per-span-name count, inclusive and self time inside ``window``."""
    t = trace.summarize(spans, *window)
    total = sum(x.self_time for x in t.values()) or 1.0
    out(f"  {'span':<40}{'count':>9}{'total ms':>12}{'self ms':>12}"
        f"{'self share':>12}")
    for name in sorted(t, key=lambda n: -t[n].self_time):
        x = t[name]
        out(f"  {name:<40}{x.count:>9}{x.total * 1e3:>12.1f}"
            f"{x.self_time * 1e3:>12.1f}{x.self_time / total:>12.3f}")
