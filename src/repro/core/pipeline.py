"""The Figure-2 update path as explicit, composable stages.

The paper's pipeline — authenticate → verify → apply → anchor — used
to live inline in :class:`~repro.core.framework.PReVer`'s ``submit`` /
``submit_many`` bodies, which duplicated and interleaved auth, verify,
apply, anchor, durability, and tracing logic.  This module decomposes
it into six stage objects with a uniform ``run_one`` / ``run_batch``
interface:

``AuthStage``
    provenance (Schnorr signature) checks; ``run_batch`` decides every
    update's provenance with the random-linear-combination batch
    verification.
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

The stage contract: ``run_one`` does its stage's work on one update
and returns its verdict — ``None`` to go on, or the rejection reason.
The walk in :meth:`Pipeline.run_batch` keeps the books in one place.
Around each timed stage (those naming a ``span``: validate, verify,
apply) it opens the trace span, reads the wall clock once afterwards,
and records the stage's timing; on a verdict it marks the update
rejected, records every later timed stage's span as ``skipped``, and
stops.  Rejections are decisions too: every update is anchored.

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
from repro.crypto.signatures import verify_batch
from repro.database.schema import SchemaError
from repro.database.table import TableError
from repro.model.constraints import Constraint
from repro.model.update import Update
from repro.obs.tracing import Span


@dataclass
class UpdateContext:
    """Mutable per-update state threaded through the stage sequence.

    ``mark`` is the chained wall reading: the walk's reading after each
    timed stage both ends that stage's timer window and starts the
    next one, so tracing and timing add no extra clock reads to the
    hot path.  ``span`` is the open span of the timed stage now
    running (traced runs only), for the stage to annotate.
    """

    update: Update
    now: float = 0.0
    trace: Optional[Span] = None
    span: Optional[Span] = None
    timings: Dict[str, float] = field(default_factory=dict)
    auth_failure: Optional[str] = None
    outcome: Optional[VerificationOutcome] = None
    applied: bool = False
    routed: Optional[List[Constraint]] = None
    batch_cache: Optional[BatchAggregateCache] = None
    mark: float = 0.0
    sequence: Optional[int] = None


class Stage:
    """One pipeline stage.

    ``run_one`` advances a single :class:`UpdateContext` and returns
    its verdict: ``None`` to go on, or the reason the update is
    rejected.  It neither reads the clock nor rejects the update
    itself — the walk does both.  ``span`` names the trace span the
    walk opens around a timed stage, whose timing it records under
    ``name``; an untimed stage (``span`` None) folds its time into the
    next timed one.  ``run_batch`` is the batch-amortized variant and
    defaults to a pass.  Stages hold no per-update state — everything
    flows through the context.
    """

    name = "stage"
    span: Optional[str] = None

    def __init__(self, framework):
        self.framework = framework

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Advance one update's context; return the verdict."""
        raise NotImplementedError

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Batch precomputation hook; the default has none."""

    def finish_batch(self, ctxs: Sequence[UpdateContext]) -> None:
        """Batch finalizer hook, run even when the walk raised."""


class AuthStage(Stage):
    """Step (1): provenance — the signature check on incoming updates."""

    name = "authenticate"
    span = "validate"

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Reject the update whose provenance ``run_batch`` refused."""
        failure = ctx.auth_failure
        if failure is not None:
            if ctx.span is not None:
                ctx.span.set_attribute("reason", failure)
            ctx.outcome = VerificationOutcome(
                accepted=False, engine="framework-auth",
                failed_constraint=failure,
            )
        return failure

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Decide every update's provenance up front: one
        random-linear-combination check over the batch's signatures
        (a lone signature gets the cached per-key verifier, and workers
        pinpoint bad signatures on failure)."""
        fw = self.framework
        if not fw.require_signed_updates:
            return
        with fw.metrics.timed("pipeline.auth_batch"):
            items, signed = [], []
            for ctx in ctxs:
                update = ctx.update
                if update.signature is None or update.signer_public_key is None:
                    ctx.auth_failure = "unsigned update"
                else:
                    items.append((update.signer_public_key,
                                  update.body_bytes(), update.signature))
                    signed.append(ctx)
            verdicts = verify_batch(items, group=SchnorrGroup.default(),
                                    executor=executor)
            for ctx, ok in zip(signed, verdicts):
                if not ok:
                    ctx.auth_failure = "bad signature"


class RouteStage(Stage):
    """Constraint routing: the lazily built table → constraints index.

    Only the framework's plaintext check consumes the routed list;
    plugged-in engines hold their own (already routed) constraint
    sets, so this stage is a no-op for them.
    """

    name = "route"

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Resolve the constraints applicable to the update's table."""
        fw = self.framework
        if fw.engine is None:
            ctx.routed = fw._routed_constraints(ctx.update.table)
        return None


class VerifyStage(Stage):
    """Step (2): verification against constraints and regulations."""

    name = "verify"
    span = "verify"

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Verify one update via the engine (or the plaintext check
        over the routed constraints); a failed constraint rejects."""
        fw = self.framework
        engine = fw.engine
        span = ctx.span
        if engine is not None:
            if span is not None:
                # Engine crypto spans (Paillier encrypt/decrypt) nest here.
                engine.bind_span(span)
            outcome = engine.verify(ctx.update, ctx.now)
        else:
            outcome = self._check_routed(ctx)
        ctx.outcome = outcome
        if span is not None:
            span.set_attribute("engine", outcome.engine)
            if not outcome.accepted:
                span.set_attribute("failed_constraint",
                                   outcome.failed_constraint)
            fw.tracer.event(
                "constraint_verdict",
                trace_id=span.trace_id,
                update_id=ctx.update.update_id,
                accepted=outcome.accepted,
                constraint_ids=list(outcome.constraint_ids),
                failed_constraint=outcome.failed_constraint,
            )
        if not outcome.accepted:
            return outcome.failed_constraint or "constraint"
        ctx.update.mark_verified()
        return None

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
        if engine is not None:
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

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Log the verified update ahead of its apply."""
        fw = self.framework
        if fw._wal is not None:
            fw._wal.append_update(fw._wal_update_record(ctx.update, ctx.now))
            if fw._crash_after is not None:
                fw._crash_point("wal_update")
        return None

    def commit(self, encoded_payloads: List[str], digest=None) -> None:
        """Write the batch's anchor marker (the group-commit fsync that
        makes the whole batch durable), then maybe checkpoint.

        ``encoded_payloads`` is the payloads' canonical JSON, which the
        anchor stage already encoded for the Merkle leaves: the WAL
        frame splices those fragments instead of re-serializing every
        payload — byte-identical frames, encoded once.
        """
        fw = self.framework
        if fw._crash_after is not None:
            fw._crash_point("anchor_append")
        digest = digest if digest is not None else fw.ledger.digest()
        fw._wal.append_anchor({
            "payloads": [RawJson(encoded) for encoded in encoded_payloads],
            "size": digest.size,
            "root": digest.root.hex(),
        })
        if fw._crash_after is not None:
            fw._crash_point("anchor_marker")
        # Remember what was just made durable: /readyz checks the live
        # ledger still extends this digest.
        fw._last_anchored_digest = digest
        if fw._snapshotter is not None:
            taken = fw._snapshotter.maybe_take(
                fw, fw._wal.last_lsn, len(encoded_payloads)
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
    span = "apply"

    def run_one(self, ctx: UpdateContext) -> Optional[str]:
        """Apply one verified update; a failure becomes a rejection."""
        fw = self.framework
        update = ctx.update
        try:
            fw._apply(update)
        except (TableError, SchemaError) as exc:
            if ctx.span is not None:
                ctx.span.set_attribute("reason", str(exc))
            if fw.engine is not None:
                fw.engine.note_apply_failed(update)
            prior = ctx.outcome
            ctx.outcome = VerificationOutcome(
                accepted=False, engine=prior.engine,
                constraint_ids=prior.constraint_ids,
                failed_constraint="apply-failure",
            )
            return f"apply failed: {exc}"
        update.mark_applied()
        ctx.applied = True
        if ctx.batch_cache is not None:
            ctx.batch_cache.note_applied(update)
        if fw.engine is not None:
            fw.engine.note_applied(update, ctx.now)
        if fw._crash_after is not None:
            fw._crash_point("apply")
        return None


class AnchorStage(Stage):
    """Step (+): anchor every decision on the append-only ledger."""

    name = "anchor"

    def __init__(self, framework, durability: DurabilityStage):
        super().__init__(framework)
        self.durability = durability

    def run_batch(self, ctxs: Sequence[UpdateContext], executor) -> None:
        """Amortized anchoring: one Merkle extension for the whole
        batch (rejected updates included — rejections are decisions
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
            self.durability.commit(encoded, digest=batch_digest)
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
        """
        ctxs = [UpdateContext(update) for update in updates]
        self.auth.run_batch(ctxs, executor)
        self.verify.run_batch(ctxs, executor)
        try:
            for ctx in ctxs:
                self._walk(ctx)
        finally:
            self.verify.finish_batch(ctxs)
        self.anchor.run_batch(ctxs, executor)
        return [self._record(ctx) for ctx in ctxs]

    def _walk(self, ctx: UpdateContext) -> None:
        """One update through the pre-anchor stages, keeping the books
        each stage's verdict implies (see the module docstring)."""
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
        trace = ctx.trace
        for at, stage in enumerate(self.walk):
            if stage.span is None:
                verdict = stage.run_one(ctx)
            else:
                if trace is not None:
                    ctx.span = trace.child(stage.span, start_time=ctx.mark)
                verdict = stage.run_one(ctx)
                end = fw._wall.now()
                ctx.timings[stage.name] = end - ctx.mark
                ctx.mark = end
                if trace is not None:
                    if verdict is not None:
                        ctx.span.set_status("error")
                    ctx.span.end(end)
            if verdict is not None:
                ctx.update.mark_rejected(verdict)
                if trace is not None:
                    for later in self.walk[at + 1:]:
                        if later.span is not None:
                            trace.child(later.span, start_time=ctx.mark) \
                                .set_status("skipped").end(ctx.mark)
                return

    def _record(self, ctx: UpdateContext) -> UpdateResult:
        fw = self.framework
        return fw._record_result(
            ctx.update, ctx.outcome, applied=ctx.applied,
            timings=ctx.timings, sequence=ctx.sequence,
            trace_id=ctx.trace.trace_id if ctx.trace is not None else None,
        )
