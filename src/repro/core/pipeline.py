"""The Figure-2 update path as explicit, composable stages.

The paper's pipeline — authenticate → verify → apply → anchor — used
to live inline in :class:`~repro.core.framework.PReVer`'s ``submit`` /
``submit_many`` bodies, which duplicated and interleaved auth, verify,
apply, anchor, durability, and tracing logic.  This module decomposes
it into six stage objects with a uniform ``run_one`` / ``run_batch``
interface:

``AuthStage``
    provenance (Schnorr signature) checks; ``run_batch`` is the
    random-linear-combination batch verification.
``RouteStage``
    constraint routing through the table index (plaintext engine only
    — plugged-in engines route internally).
``VerifyStage``
    constraint/regulation verification; ``run_batch`` drives the
    engine's ``begin_batch`` / ``prepare_batch`` hooks and the
    framework-level :class:`BatchAggregateCache`.
``DurabilityStage``
    log-before-apply WAL records per update, and the batch's anchor
    marker + group-commit fsync (``commit``).
``ApplyStage``
    incorporation into the target database; apply failures become
    anchored rejections.
``AnchorStage``
    decision payloads onto the append-only ledger — one Merkle
    extension and one anchor marker per batch (``run_batch``).

:class:`Pipeline` owns the stage sequence and its one driver,
:meth:`Pipeline.run_batch`: the only code that logs, applies and
anchors a submitted update (recovery replays what it logged and
decides nothing).  ``submit`` is a batch of one, and replication
(:class:`~repro.core.replicated.ReplicatedShard`) feeds each decided
batch to every replica through the same driver.  The decomposition is
deliberately invisible: decisions, ledger digests, inclusion proofs
and WAL bytes are identical to the pre-refactor monolith (pinned by
``tests/test_pipeline_stages.py``), and the driver preserves the
per-update verify→log→apply interleaving that stateful aggregate
caches depend on — only auth and anchoring are batch-amortized.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.encoding import RawJson, encode_canonical
from repro.core.outcome import UpdateResult, VerificationOutcome
from repro.core.routing import BatchAggregateCache, check_constraint
from repro.crypto.group import SchnorrGroup
from repro.crypto.signatures import cached_verifier, verify_batch
from repro.database.schema import SchemaError
from repro.database.table import TableError
from repro.model.constraints import Constraint
from repro.model.update import Update
from repro.obs.tracing import Span

# Sentinel distinguishing "provenance not yet checked" from a
# precomputed verdict of None (= authenticated).
_UNCHECKED = object()


@dataclass
class UpdateContext:
    """Mutable per-update state threaded through the stage sequence.

    ``mark`` is the chained wall reading: each stage's closing
    timestamp both ends that stage's timer window and starts the
    next one, so tracing and timing add no extra clock reads to the
    hot path.  ``halted`` short-circuits the remaining pre-anchor
    stages (every decision, including rejections, is still anchored).
    """

    update: Update
    now: float = 0.0
    trace: Optional[Span] = None
    timings: Dict[str, float] = field(default_factory=dict)
    auth_failure: object = _UNCHECKED
    outcome: Optional[VerificationOutcome] = None
    applied: bool = False
    halted: bool = False
    routed: Optional[List[Constraint]] = None
    batch_cache: Optional[BatchAggregateCache] = None
    mark: float = 0.0
    sequence: Optional[int] = None


def skip_spans(trace: Span, names, at: float) -> None:
    """Record unreached stages so every trace shows the full
    validate → verify → apply → anchor shape."""
    for name in names:
        trace.child(name, start_time=at).set_status("skipped").end(at)


class Stage:
    """One pipeline stage.

    ``run_one`` advances a single :class:`UpdateContext`;
    ``run_batch`` is the batch-amortized variant and defaults to a
    pass (stages without a batch precomputation do their work per
    update inside the driver's walk).  Stages hold no per-update
    state — everything flows through the context.
    """

    name = "stage"

    def __init__(self, framework):
        self.framework = framework

    def run_one(self, ctx: UpdateContext) -> None:
        """Advance one update's context through this stage."""
        raise NotImplementedError

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Batch precomputation hook; the default has none."""

    def finish_batch(self, ctxs: Sequence[UpdateContext]) -> None:
        """Batch finalizer hook, run even when the walk raised."""


class AuthStage(Stage):
    """Step (1): provenance — the signature check on incoming updates."""

    name = "authenticate"

    def run_one(self, ctx: UpdateContext) -> None:
        """Check (or consume the precomputed) provenance verdict; a
        failure rejects the update before verification."""
        fw = self.framework
        update = ctx.update
        failure = ctx.auth_failure
        if failure is _UNCHECKED:
            failure = None
            if fw.require_signed_updates:
                if update.signature is None or update.signer_public_key is None:
                    failure = "unsigned update"
                else:
                    verifier = cached_verifier(
                        SchnorrGroup.default(), update.signer_public_key
                    )
                    if not verifier.verify(update.body_bytes(),
                                           update.signature):
                        failure = "bad signature"
        t_auth = fw._wall.now()
        ctx.timings["authenticate"] = t_auth - ctx.mark
        if ctx.trace is not None:
            vspan = ctx.trace.child("validate", start_time=ctx.mark)
            if failure is not None:
                vspan.set_status("error").set_attribute("reason", failure)
            vspan.end(t_auth)
        ctx.mark = t_auth
        if failure is not None:
            if ctx.trace is not None:
                skip_spans(ctx.trace, ("verify", "apply"), at=t_auth)
            update.mark_rejected(failure)
            ctx.outcome = VerificationOutcome(
                accepted=False, engine="framework-auth",
                failed_constraint=failure,
            )
            ctx.halted = True

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Batched provenance: verify all signatures up front with the
        random-linear-combination batch check (workers pinpoint bad
        signatures on failure).  Stores one verdict per context;
        failure reasons match the per-update path exactly."""
        fw = self.framework
        if not (fw.require_signed_updates and len(ctxs) > 1):
            return
        with fw.metrics.timed("pipeline.auth_batch"):
            failures: List[Optional[str]] = [None] * len(ctxs)
            items, positions = [], []
            for index, ctx in enumerate(ctxs):
                update = ctx.update
                if update.signature is None or update.signer_public_key is None:
                    failures[index] = "unsigned update"
                else:
                    items.append((update.signer_public_key,
                                  update.body_bytes(), update.signature))
                    positions.append(index)
            if items:
                verdicts = verify_batch(items, group=SchnorrGroup.default(),
                                        executor=executor)
                for position, ok in zip(positions, verdicts):
                    if not ok:
                        failures[position] = "bad signature"
        for ctx, failure in zip(ctxs, failures):
            ctx.auth_failure = failure


class RouteStage(Stage):
    """Constraint routing: the lazily built table → constraints index.

    Only the framework's plaintext check consumes the routed list;
    plugged-in engines hold their own (already routed) constraint
    sets, so this stage is a no-op for them.
    """

    name = "route"

    def run_one(self, ctx: UpdateContext) -> None:
        """Resolve the constraints applicable to the update's table."""
        fw = self.framework
        if fw.engine is None:
            ctx.routed = fw._routed_constraints(ctx.update.table)


class VerifyStage(Stage):
    """Step (2): verification against constraints and regulations."""

    name = "verify"

    def run_one(self, ctx: UpdateContext) -> None:
        """Verify one update via the engine (or the plaintext check
        over the routed constraints); rejections halt the walk."""
        fw = self.framework
        update = ctx.update
        trace = ctx.trace
        verify_span = None
        if trace is not None:
            verify_span = trace.child("verify", start_time=ctx.mark)
            if fw.engine is not None and hasattr(fw.engine, "bind_span"):
                # Engine crypto spans (Paillier encrypt/decrypt) nest here.
                fw.engine.bind_span(verify_span)
        if fw.engine is not None:
            outcome = fw.engine.verify(update, ctx.now)
        else:
            outcome = self._check_routed(ctx)
        t_verify = fw._wall.now()
        ctx.timings["verify"] = t_verify - ctx.mark
        if verify_span is not None:
            verify_span.set_attribute("engine", outcome.engine)
            if not outcome.accepted:
                verify_span.set_status("error")
                verify_span.set_attribute(
                    "failed_constraint", outcome.failed_constraint
                )
            verify_span.end(t_verify)
            fw.tracer.event(
                "constraint_verdict",
                timestamp=t_verify,
                trace_id=trace.trace_id,
                update_id=update.update_id,
                accepted=outcome.accepted,
                constraint_ids=list(outcome.constraint_ids),
                failed_constraint=outcome.failed_constraint,
            )
        ctx.mark = t_verify
        ctx.outcome = outcome
        if not outcome.accepted:
            update.mark_rejected(outcome.failed_constraint or "constraint")
            if trace is not None:
                skip_spans(trace, ("apply",), at=t_verify)
            ctx.halted = True
            return
        update.mark_verified()

    def _check_routed(self, ctx: UpdateContext) -> VerificationOutcome:
        fw = self.framework
        for constraint in ctx.routed:
            if not check_constraint(constraint, fw.databases, ctx.update,
                                    ctx.now, cache=ctx.batch_cache):
                return VerificationOutcome(
                    accepted=False,
                    engine="framework-plaintext",
                    failed_constraint=constraint.constraint_id,
                )
        return VerificationOutcome(accepted=True, engine="framework-plaintext")

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Arm the batch: the framework-level aggregate cache (plaintext
        path) or the engine's ``begin_batch`` / ``prepare_batch`` hooks
        (engines maintain their own caches via ``note_applied``)."""
        fw = self.framework
        engine = fw.engine
        if engine is None:
            cache = BatchAggregateCache(fw.databases)
            for ctx in ctxs:
                ctx.batch_cache = cache
            return
        if hasattr(engine, "begin_batch"):
            engine.begin_batch(len(ctxs))
        if hasattr(engine, "prepare_batch"):
            # Timed separately: prepared work happens before the
            # per-update stage timers, so stage totals alone would
            # overstate the verify stage's parallel speedup.
            with fw.metrics.timed("pipeline.prepare_batch"):
                engine.prepare_batch([ctx.update for ctx in ctxs],
                                     executor=executor)

    def finish_batch(self, ctxs: Sequence[UpdateContext]) -> None:
        """Release the engine's batch state (runs even on a crash
        mid-walk, so a failed batch never leaks cache entries)."""
        engine = self.framework.engine
        if engine is not None and hasattr(engine, "end_batch"):
            engine.end_batch()


class DurabilityStage(Stage):
    """The WAL hooks: log-before-apply records and the anchor marker.

    ``run_one`` writes the per-update WAL record *before* the database
    mutates, so a crash mid-apply can replay (or drop) the update but
    never half-remember it.  ``commit`` writes the batch's anchor
    marker — the group-commit fsync that makes the whole batch
    durable — and maybe checkpoints.  Both are no-ops with durability
    off, keeping those paths byte-identical to a durability-free
    framework.
    """

    name = "durability"

    def run_one(self, ctx: UpdateContext) -> None:
        """Log the verified update ahead of its apply."""
        fw = self.framework
        if fw._wal is not None:
            fw._wal.append_update(fw._wal_update_record(ctx.update, ctx.now))
            if fw._crash_after is not None:
                fw._crash_point("wal_update")

    def commit(self, payloads: List[dict], digest=None,
               encoded_payloads: Optional[List[str]] = None) -> None:
        """Write the batch's anchor marker (the group-commit fsync that
        makes the whole batch durable), then maybe checkpoint.

        ``encoded_payloads`` carries the payloads' canonical JSON when
        the anchor stage already encoded them for the Merkle leaves;
        the WAL frame then splices those cached fragments instead of
        re-serializing every payload — byte-identical frames, encoded
        once.
        """
        fw = self.framework
        if fw._crash_after is not None:
            fw._crash_point("anchor_append")
        digest = digest if digest is not None else fw.ledger.digest()
        if encoded_payloads is None:
            body: List = payloads
        else:
            body = [RawJson(encoded) for encoded in encoded_payloads]
        fw._wal.append_anchor(
            {
                "payloads": body,
                "size": digest.size,
                "root": digest.root.hex(),
            },
            sync=fw.durability.sync_anchors,
        )
        if fw._crash_after is not None:
            fw._crash_point("anchor_marker")
        # Remember what was just made durable: /readyz checks the live
        # ledger still extends this digest.
        fw._last_anchored_digest = digest
        if fw._snapshotter is not None:
            taken = fw._snapshotter.maybe_take(
                fw, fw._wal.last_lsn, len(payloads)
            )
            if taken is not None:
                fw._wal.prune(fw._wal.last_lsn)


class ApplyStage(Stage):
    """Step (3): incorporation into the target database.

    Apply failures (duplicate key, missing row) reject the update
    rather than crash the pipeline; the rejection is anchored like any
    other decision.
    """

    name = "apply"

    def run_one(self, ctx: UpdateContext) -> None:
        """Apply one verified update; a failure becomes a rejection."""
        fw = self.framework
        update = ctx.update
        trace = ctx.trace
        try:
            fw._apply(update)
        except (TableError, SchemaError) as exc:
            t_apply = fw._wall.now()
            ctx.timings["apply"] = t_apply - ctx.mark
            if trace is not None:
                trace.child("apply", start_time=ctx.mark) \
                    .set_status("error") \
                    .set_attribute("reason", str(exc)) \
                    .end(t_apply)
            update.mark_rejected(f"apply failed: {exc}")
            if fw.engine is not None and hasattr(fw.engine,
                                                 "note_apply_failed"):
                fw.engine.note_apply_failed(update)
            prior = ctx.outcome
            ctx.outcome = VerificationOutcome(
                accepted=False, engine=prior.engine,
                constraint_ids=prior.constraint_ids,
                failed_constraint="apply-failure",
            )
            ctx.mark = t_apply
            ctx.halted = True
            return
        update.mark_applied()
        t_apply = fw._wall.now()
        ctx.timings["apply"] = t_apply - ctx.mark
        if trace is not None:
            trace.child("apply", start_time=ctx.mark).end(t_apply)
        ctx.mark = t_apply
        ctx.applied = True
        if ctx.batch_cache is not None:
            ctx.batch_cache.note_applied(update)
        if fw.engine is not None and hasattr(fw.engine, "note_applied"):
            fw.engine.note_applied(update, ctx.now)
        if fw._crash_after is not None:
            fw._crash_point("apply")


class AnchorStage(Stage):
    """Step (+): anchor every decision on the append-only ledger."""

    name = "anchor"

    def __init__(self, framework, durability: DurabilityStage):
        super().__init__(framework)
        self.durability = durability

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Amortized anchoring: one Merkle extension for the whole
        batch (halted contexts included — rejections are decisions
        too) and one anchor marker, with the per-entry sequence numbers
        and inclusion proofs one append per decision would give."""
        fw = self.framework
        tracing = fw.tracer.enabled
        start = fw._wall.now()
        payloads = [fw._anchor_payload(ctx.update, ctx.outcome, trace=ctx.trace)
                    for ctx in ctxs]
        # Encode-once: each decision payload is canonically serialized
        # exactly here; the Merkle leaves and the WAL anchor frame both
        # splice these fragments (byte-identical to re-encoding).
        encoded = [encode_canonical(payload) for payload in payloads]
        entries = fw.ledger.append_batch(payloads, encoded_payloads=encoded)
        anchor_end = fw._wall.now()
        anchor_elapsed = anchor_end - start
        fw.metrics.timer("pipeline.anchor_batch").record(anchor_elapsed)
        anchor_share = anchor_elapsed / len(ctxs)
        batch_digest = fw.ledger.digest() if tracing else None
        if fw._wal is not None:
            self.durability.commit(payloads, digest=batch_digest,
                                   encoded_payloads=encoded)
        for ctx, entry in zip(ctxs, entries):
            ctx.timings["anchor"] = anchor_share
            ctx.sequence = entry.sequence
            if ctx.trace is not None:
                self._close_span(ctx, entry, batch_digest,
                                 start=start, end=anchor_end)

    def _close_span(self, ctx: UpdateContext, entry, digest,
                    start: float, end: float) -> None:
        fw = self.framework
        trace = ctx.trace
        span = trace.child("anchor", start_time=start)
        span.set_attribute("sequence", entry.sequence)
        span.end(end)
        fw.tracer.event(
            "ledger_anchor",
            timestamp=end,
            trace_id=trace.trace_id,
            update_id=ctx.update.update_id,
            sequence=entry.sequence,
            digest=digest.root.hex(),
            ledger_size=digest.size,
        )
        trace.set_attribute("applied", ctx.applied)
        trace.set_status("ok" if ctx.applied else "error")
        trace.end(end)


class Pipeline:
    """The stage sequence and its one driver.

    :meth:`run_batch` arms the batch-amortized stages (batch auth,
    engine batch hooks), walks each update through the five pre-anchor
    stages — preserving the verify→log→apply interleaving stateful
    aggregate caches require — and anchors once.  Nothing else logs,
    applies or anchors: ``submit`` is a batch of one, and a replicated
    shard hands every decided batch to each replica's driver.
    """

    def __init__(self, framework):
        self.framework = framework
        self.auth = AuthStage(framework)
        self.route = RouteStage(framework)
        self.verify = VerifyStage(framework)
        self.durability = DurabilityStage(framework)
        self.apply = ApplyStage(framework)
        self.anchor = AnchorStage(framework, self.durability)
        #: The pre-anchor stages, in the order each update walks them.
        self.walk = (self.auth, self.route, self.verify,
                     self.durability, self.apply)

    def run_batch(self, updates: Sequence[Update],
                  executor) -> List[UpdateResult]:
        """Run one batch through the stage sequence, anchoring once.

        Everything with externally visible effects — the WAL records
        (DurabilityStage), database mutation (ApplyStage), and ledger
        anchoring (AnchorStage) — happens only here.

        Each stage call is bracketed by its name on the sampling
        profiler's stage stack for this thread; without a profiler the
        stack is a list nobody reads.  Raw push/pop rather than a
        context manager: five boundaries per update make even minimal
        with-statement machinery a measurable tax on the plaintext
        engine.
        """
        fw = self.framework
        ctxs = [UpdateContext(update) for update in updates]
        prof = fw.profiler
        stack = prof.thread_stack() if prof is not None else []
        depth = len(stack)
        try:
            stack.append("auth_batch")
            self.auth.run_batch(ctxs, executor)
            stack.pop()
            stack.append("prepare_batch")
            self.verify.run_batch(ctxs, executor)
            stack.pop()
            try:
                for ctx in ctxs:
                    self._begin(ctx)
                    for stage in self.walk:
                        stack.append(stage.name)
                        stage.run_one(ctx)
                        stack.pop()
                        if ctx.halted:
                            break
            finally:
                self.verify.finish_batch(ctxs)
            stack.append("anchor_batch")
            self.anchor.run_batch(ctxs, executor)
        finally:
            # One unwind for every exit, so a stage that raised never
            # leaves its name on the thread's stack.
            del stack[depth:]
        return [self._record(ctx) for ctx in ctxs]

    def _begin(self, ctx: UpdateContext) -> None:
        fw = self.framework
        if fw.tracer.enabled:
            ctx.trace = fw.tracer.start_trace(
                "update",
                start_time=fw._wall.now(),
                attributes={
                    "update_id": ctx.update.update_id,
                    "table": ctx.update.table,
                    "operation": ctx.update.operation.value,
                },
            )
        ctx.now = fw.clock.now()
        ctx.mark = fw._wall.now()

    def _record(self, ctx: UpdateContext) -> UpdateResult:
        fw = self.framework
        return fw._record_result(
            ctx.update, ctx.outcome, applied=ctx.applied,
            timings=ctx.timings, sequence=ctx.sequence,
            trace_id=ctx.trace.trace_id if ctx.trace is not None else None,
        )
