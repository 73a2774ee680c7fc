"""Single-database verification engines (Research Challenge 1).

Every engine implements ``verify(update, now) -> VerificationOutcome``
and declares a leakage profile.  Engines hold their own view of the
data (ciphertexts, commitments, sealed rows, noisy histograms) and a
``manager_transcript`` recording the most recent
:data:`TRANSCRIPT_WINDOW` observations of the untrusted manager, which
the leakage tests compare against the profile.

Engines and their paper anchors:

* :class:`PlaintextVerifier` — the non-private baseline Section 6 says
  to compare against;
* :class:`PaillierVerifier` — homomorphic-encryption path: the manager
  aggregates ciphertexts; the data owner (key holder) makes the final
  comparison and returns only the decision bit;
* :class:`ZKPVerifier` — the verifiable-computation path: the producer
  commits to values and proves bound satisfaction in zero knowledge;
  the manager verifies proofs and never sees values;
* :class:`EnclaveVerifier` — hardware-protected computation;
* :class:`DPIndexVerifier` — differentially-private partial
  disclosure: approximate verification from noisy histograms,
  trading accuracy for budget.
"""

from collections import deque
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PReVerError, PrivacyError
from repro.common.metrics import MetricsRegistry
from repro.core.outcome import NO_EVIDENCE, VerificationOutcome
from repro.core.routing import (
    BatchAggregateCache,
    ConstraintRouter,
    check_constraint,
)
from repro.crypto.commitments import PedersenCommitment, PedersenCommitter
from repro.crypto.paillier import (
    PaillierKeyPair,
    encrypt_batch,
    generate_paillier_keypair,
)
from repro.crypto import zkp
from repro.parallel.executors import SERIAL_EXECUTOR
from repro.model.constraints import Comparison, Constraint
from repro.model.update import Update
from repro.obs.tracing import NOOP_TRACER
from repro.privacy import leakage as lk
from repro.privacy.dp import DPIndex
from repro.privacy.enclave import TrustedEnclaveSimulator


# Observations a ``manager_transcript`` keeps (the newest): a fixed cost.
TRANSCRIPT_WINDOW = 1024


class EngineError(PReVerError):
    """A verification engine failed or was misconfigured."""


class BaseVerifier:
    """Common plumbing: constraint list, routing, metrics, transcript."""

    name = "base"
    profile = lk.PLAINTEXT_PROFILE

    def __init__(self, constraints: Sequence[Constraint],
                 metrics: Optional[MetricsRegistry] = None):
        self.constraints = list(constraints)
        self.metrics = metrics or MetricsRegistry()
        self.manager_transcript: deque = deque(maxlen=TRANSCRIPT_WINDOW)
        self._router = ConstraintRouter(self.constraints)
        # One tuple for the engine's lifetime: every outcome points at
        # it (immutable, so the sharing aliases nothing).
        self._constraint_ids = tuple(c.constraint_id for c in self.constraints)
        self._verifications = self.metrics.counter(f"{self.name}.verifications")
        # Tracing hooks: the framework binds its tracer once and, per
        # traced update, the "verify" span so engine crypto spans nest
        # under it.  With the default no-op tracer both are free.
        self.tracer = NOOP_TRACER
        self._parent_span = None
        # Execution layer: serial unless the framework (or a test)
        # binds a parallel executor; engines use it for order-free
        # crypto work only (e.g. contribution encryption), never for
        # the order-dependent aggregate state machine.
        self.executor = SERIAL_EXECUTOR
        # What the last accepted update's totals replaced, as (store,
        # key, previous) — see :meth:`_verify_running_totals`.
        self._replaced: List[tuple] = []

    def bind_tracer(self, tracer) -> None:
        self.tracer = tracer

    def bind_executor(self, executor) -> None:
        self.executor = executor

    def bind_span(self, span) -> None:
        """Parent span for crypto sub-spans of the current update."""
        self._parent_span = span

    def _observe(self, item) -> None:
        """Record something the untrusted manager gets to see."""
        self.manager_transcript.append(item)

    def constraints_for(self, update: Update) -> List[Constraint]:
        """Constraints applicable to the update's table, in
        registration order (table-scoped ones route; unscoped ones
        apply everywhere)."""
        return self._router.route(update.table)

    def _group_key(self, constraint: Constraint, update: Update) -> tuple:
        """The aggregate group ``update`` falls in under ``constraint``."""
        return tuple(
            update.payload.get(col) for col in constraint.aggregate.match_columns
        )

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        raise NotImplementedError

    # -- batch lifecycle hooks (no-ops by default) -----------------------
    #
    # The pipeline calls every hook on this class on whatever engine it
    # holds, without probing for it: it brackets a batch with begin/end
    # and calls ``note_applied`` after each successful database apply,
    # so engines that read the shared databases can keep incremental
    # state.

    def begin_batch(self, expected: int = 0) -> None:
        pass

    def end_batch(self) -> None:
        pass

    def note_applied(self, update: Update, now: float) -> None:
        pass

    def note_apply_failed(self, update: Update) -> None:
        """The database refused the update this engine just accepted
        (duplicate key, missing row): put back the running totals its
        contribution replaced, so only applied updates stay counted —
        the state :meth:`replay_decided` rebuilds after a crash."""
        for store, key, previous in self._replaced:
            if previous is None:
                del store[key]
            else:
                store[key] = previous
        self._replaced = []

    def _verify_running_totals(self, update: Update) -> VerificationOutcome:
        """``verify`` for engines that keep running totals: ask
        ``_check_one`` per routed constraint for the ``(store, key,
        total)`` entries it would write (None = rejected), and store
        them only once every constraint has accepted — an update a later
        constraint rejects leaves no total behind."""
        proposals: List[tuple] = []
        timer = f"{self.name}.check"
        for constraint in self.constraints_for(update):
            with self.metrics.timed(timer):
                proposed = self._check_one(constraint, update)
            if proposed is None:
                return self._outcome(False, failed=constraint.constraint_id)
            proposals.extend(proposed)
        self._replaced = [(store, key, store.get(key))
                          for store, key, _ in proposals]
        for store, key, total in proposals:
            store[key] = total
        return self._outcome(True)

    # -- durability hooks (see repro.durability) --------------------------
    #
    # Engines that keep verification state of their own (Paillier's
    # ciphertext aggregates, ZKP's committed totals) override these
    # three so snapshots capture the state and WAL replay rebuilds it.
    # The defaults declare "nothing beyond the databases".

    def durable_state(self) -> Optional[dict]:
        """Engine state a snapshot must persist (None = nothing —
        everything this engine needs lives in the shared databases)."""
        return None

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Load :meth:`durable_state` output during recovery."""
        if state is not None:
            raise EngineError(
                f"engine {self.name!r} cannot restore durable state"
            )

    def replay_decided(self, update: Optional[Update], applied: bool,
                       now: Optional[float]) -> None:
        """Re-apply one anchored decision's effect on engine state
        during WAL replay (the decision is already made; no
        verification or transcript observation happens here).  Every
        replayed decision comes through here, rejections too; for a
        rejection the engine decided, the WAL logged no update, so
        ``update`` and ``now`` are None."""

    def _outcome(self, accepted: bool, failed: Optional[str] = None,
                 **evidence) -> VerificationOutcome:
        self._verifications.add()
        return VerificationOutcome(
            accepted=accepted,
            engine=self.name,
            constraint_ids=self._constraint_ids,
            failed_constraint=failed,
            evidence=evidence or NO_EVIDENCE,
        )


class PlaintextVerifier(BaseVerifier):
    """Reference semantics: direct evaluation on plaintext databases."""

    name = "plaintext"
    profile = lk.PLAINTEXT_PROFILE

    def __init__(self, databases: Sequence, constraints: Sequence[Constraint],
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(constraints, metrics)
        self.databases = list(databases)
        self._batch_cache: Optional[BatchAggregateCache] = None

    def begin_batch(self, expected: int = 0) -> None:
        self._batch_cache = BatchAggregateCache(self.databases)

    def end_batch(self) -> None:
        self._batch_cache = None

    def note_applied(self, update: Update, now: float) -> None:
        if self._batch_cache is not None:
            self._batch_cache.note_applied(update)

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        # The baseline leaks everything; recorded by reference (the
        # transcript is an observation log, not a second copy).
        self._observe(update.payload)
        timer = self.metrics.timer("plaintext.check")
        clock = perf_counter  # direct timing; timed() costs ~2us per check
        for constraint in self.constraints_for(update):
            start = clock()
            ok = check_constraint(constraint, self.databases, update, now,
                                  cache=self._batch_cache)
            timer.record(clock() - start)
            if not ok:
                return self._outcome(False, failed=constraint.constraint_id)
        return self._outcome(True)


class PaillierVerifier(BaseVerifier):
    """RC1 via additively homomorphic encryption.

    The manager stores per-group encrypted running aggregates.  On each
    update it homomorphically adds the encrypted contribution and sends
    the resulting ciphertext to the data owner, who decrypts, compares
    against the (public or owner-known) bound, and returns the decision
    bit.  The manager's transcript contains only ciphertext values and
    group keys (access pattern) — asserted by the leakage tests.

    Only linear aggregate constraints are supported; a non-linear
    constraint raises at construction (fail-closed), which reproduces
    the expressiveness gap the paper attributes to partially
    homomorphic schemes.
    """

    name = "paillier"
    profile = lk.PAILLIER_PROFILE

    def __init__(
        self,
        constraints: Sequence[Constraint],
        keypair: Optional[PaillierKeyPair] = None,
        key_bits: int = 256,
        scale: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        for constraint in self.constraints:
            if not (constraint.is_aggregate and constraint.is_linear()):
                raise EngineError(
                    f"PaillierVerifier supports linear aggregate "
                    f"constraints only; {constraint.name!r} is not"
                )
            if constraint.comparison not in (Comparison.LE, Comparison.GE,
                                             Comparison.LT, Comparison.GT):
                raise EngineError("unsupported comparison for Paillier engine")
        self.keypair = keypair or generate_paillier_keypair(key_bits)
        self.scale = scale  # fixed-point scale for float contributions
        # manager-side state: constraint_id -> group key -> ciphertext
        self._cipher_aggregates: Dict[str, Dict[tuple, object]] = {
            c.constraint_id: {} for c in self.constraints
        }
        # Batch-prepared contribution ciphertexts, keyed by
        # (constraint_id, update_id); filled by :meth:`prepare_batch`
        # under a parallel executor, drained by :meth:`_check_one`.
        self._prepared: Dict[tuple, object] = {}

    def _encrypt_contribution(self, constraint: Constraint, update: Update):
        contribution = constraint.aggregate.contribution_of(update.payload)
        fixed = int(round(contribution * self.scale))
        return self.keypair.public_key.encrypt_signed(fixed), fixed

    def precompute(self, updates_expected: int, rng=None,
                   executor=None) -> int:
        """Offline phase: bank ``r^n mod n²`` obfuscators for the next
        ``updates_expected`` updates (one encryption per constraint
        each).  Returns the resulting pool size.  The exponentiations
        chunk across the engine's executor workers by default; the
        resulting pool stays in this process."""
        executor = executor if executor is not None else self.executor
        return self.keypair.public_key.precompute_randomness(
            updates_expected * max(1, len(self.constraints)), rng=rng,
            executor=executor,
        )

    # -- batch hooks ------------------------------------------------------

    def begin_batch(self, expected: int = 0) -> None:
        self._prepared = {}

    def end_batch(self) -> None:
        self._prepared = {}

    def prepare_batch(self, updates: Sequence[Update],
                      executor=None) -> None:
        """Encrypt every update's per-constraint contribution up front,
        chunked across executor workers.

        Contribution encryption is the order-independent half of the
        Paillier check (the decrypt-and-compare half walks the running
        aggregate and stays serial), so fanning it out preserves
        decision equivalence exactly: ciphertext *randomness* differs,
        but decisions depend only on decrypted sums.  Contributions out
        of signed range are left unprepared so the serial path raises
        at the same point it always did.
        """
        executor = executor if executor is not None else self.executor
        if not getattr(executor, "parallel", False):
            return  # inline encryption is already optimal serially
        keys, values = [], []
        half = self.keypair.public_key.n // 2
        for update in updates:
            for constraint in self.constraints_for(update):
                contribution = constraint.aggregate.contribution_of(
                    update.payload
                )
                fixed = int(round(contribution * self.scale))
                if abs(fixed) >= half:
                    continue
                keys.append((constraint.constraint_id, update.update_id))
                values.append(fixed)
        if not keys:
            return
        ciphertexts = encrypt_batch(
            self.keypair.public_key, values, signed=True, executor=executor
        )
        self.metrics.counter("paillier.prepared_contributions").add(len(keys))
        self._prepared.update(zip(keys, ciphertexts))

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        return self._verify_running_totals(update)

    def _check_one(self, constraint: Constraint,
                   update: Update) -> Optional[List[tuple]]:
        """The ``(store, group, ciphertext)`` entry this constraint
        would write, or None when the owner rejects the proposed total."""
        group = self._group_key(constraint, update)
        tracing = self.tracer.enabled
        prepared = self._prepared.pop(
            (constraint.constraint_id, update.update_id), None
        ) if self._prepared else None
        if prepared is not None:
            ciphertext = prepared
        elif tracing:
            with self.tracer.span("paillier.encrypt",
                                  parent=self._parent_span,
                                  constraint=constraint.constraint_id):
                ciphertext, _ = self._encrypt_contribution(constraint, update)
        else:
            ciphertext, _ = self._encrypt_contribution(constraint, update)
        # Manager side: homomorphic aggregation over ciphertexts.
        aggregates = self._cipher_aggregates[constraint.constraint_id]
        current = aggregates.get(group)
        proposed = ciphertext if current is None else current + ciphertext
        self._observe(("group", group))
        self._observe(("ciphertext", proposed.value))
        self.metrics.counter("paillier.homomorphic_ops").add()
        # Owner side: decrypt the proposed aggregate, compare, answer.
        if tracing:
            with self.tracer.span("paillier.decrypt",
                                  parent=self._parent_span,
                                  constraint=constraint.constraint_id):
                plaintext = self.keypair.private_key.decrypt_signed(proposed)
        else:
            plaintext = self.keypair.private_key.decrypt_signed(proposed)
        accepted = constraint.comparison.apply(
            plaintext / self.scale, float(constraint.bound)
        )
        return [(aggregates, group, proposed)] if accepted else None

    # -- durability hooks --------------------------------------------------

    def durable_state(self) -> dict:
        """Ciphertext aggregates, as integers — never decrypted totals.

        The snapshot holds only what the untrusted manager already
        sees (ciphertext values and group keys), so persisting it adds
        no leakage.  The keypair is deliberately absent: the operator
        re-supplies the same key material when rebuilding the engine,
        and ``n`` is stored to fail closed on a mismatch.
        """
        return {
            "n": self.keypair.public_key.n,
            "scale": self.scale,
            "aggregates": {
                constraint_id: [
                    [list(group), ciphertext.value]
                    for group, ciphertext in sorted(
                        groups.items(), key=lambda item: repr(item[0])
                    )
                ]
                for constraint_id, groups in self._cipher_aggregates.items()
            },
        }

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Rebuild ciphertext aggregates from :meth:`durable_state`."""
        from repro.crypto.paillier import PaillierCiphertext

        if state is None:
            return
        if state["n"] != self.keypair.public_key.n:
            raise EngineError(
                "snapshot was taken under a different Paillier keypair"
            )
        if state["scale"] != self.scale:
            raise EngineError("snapshot fixed-point scale mismatch")
        public_key = self.keypair.public_key
        for constraint_id, pairs in state["aggregates"].items():
            if constraint_id not in self._cipher_aggregates:
                raise EngineError(
                    f"snapshot aggregates name unknown constraint "
                    f"{constraint_id!r}"
                )
            aggregates = self._cipher_aggregates[constraint_id]
            for group, value in pairs:
                aggregates[tuple(group)] = PaillierCiphertext(public_key, value)

    def replay_decided(self, update: Optional[Update], applied: bool,
                       now: Optional[float]) -> None:
        """Fold a replayed applied update into the running aggregates.

        Re-encrypts the contribution and adds it homomorphically — no
        decryption: the accept decision was already made and anchored,
        and decisions depend only on decrypted *sums*, so the fresh
        ciphertext randomness changes nothing observable.
        """
        if not applied:
            return
        for constraint in self.constraints_for(update):
            group = self._group_key(constraint, update)
            ciphertext, _ = self._encrypt_contribution(constraint, update)
            aggregates = self._cipher_aggregates[constraint.constraint_id]
            current = aggregates.get(group)
            aggregates[group] = (
                ciphertext if current is None else current + ciphertext
            )


class ZKPVerifier(BaseVerifier):
    """RC1 via producer-side zero-knowledge proofs.

    The manager keeps, per group, the homomorphic product of Pedersen
    commitments to all accepted contributions.  A producer submitting
    an update must supply a :class:`~repro.crypto.zkp.BoundProof` that
    the *new* cumulative total stays within the bound.  The manager
    verifies the proof against the combined commitment — it never sees
    any value.  The producer must know the current total (it does: the
    totals are its own submissions; the framework echoes the running
    commitment randomness back over a secure owner channel).
    """

    name = "zkp"
    profile = lk.profile(
        "zkp",
        lk.LeakageClass.DECISION_BIT,
        lk.LeakageClass.TIMING,
        lk.LeakageClass.VOLUME,
        lk.LeakageClass.ACCESS_PATTERN,
        notes="manager sees commitments and proofs only",
    )

    def __init__(
        self,
        constraints: Sequence[Constraint],
        bits: int = 16,
        committer: Optional[PedersenCommitter] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        for constraint in self.constraints:
            if not constraint.is_aggregate or constraint.comparison not in (
                Comparison.LE, Comparison.GE,
            ):
                raise EngineError(
                    "ZKPVerifier supports upper/lower-bound aggregate "
                    "constraints"
                )
        # Proof width must cover both the running total and the slack to
        # the bound, so widen it to the largest registered bound.
        max_bound_bits = max(
            (int(c.bound).bit_length() for c in self.constraints), default=0
        )
        self.bits = max(bits, max_bound_bits)
        self.committer = committer or PedersenCommitter()
        # manager side: constraint -> group -> combined commitment value
        self._commitments: Dict[str, Dict[tuple, object]] = {
            c.constraint_id: {} for c in self.constraints
        }
        # producer/owner side: running totals + randomness (secret)
        self._secret_state: Dict[str, Dict[tuple, Tuple[int, int]]] = {
            c.constraint_id: {} for c in self.constraints
        }

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        return self._verify_running_totals(update)

    def _check_one(self, constraint: Constraint,
                   update: Update) -> Optional[List[tuple]]:
        """The manager- and owner-side ``(store, group, value)`` entries
        this constraint would write, or None when it rejects."""
        group = self._group_key(constraint, update)
        contribution = int(constraint.aggregate.contribution_of(update.payload))
        if contribution < 0:
            raise EngineError("range proofs need non-negative contributions")
        secrets = self._secret_state[constraint.constraint_id]
        total, _ = secrets.get(group, (0, 0))
        new_total = total + contribution
        bound = int(constraint.bound)
        satisfied = (
            new_total <= bound
            if constraint.comparison is Comparison.LE
            else new_total >= bound
        )
        if not satisfied:
            # The producer cannot construct a valid proof; an honest
            # client refuses, a cheating client's proof won't verify.
            self.metrics.counter("zkp.refused").add()
            return None
        # Producer: commit to the new total and prove the bound.
        # GE totals grow without bound, so widen the proof as needed.
        bits = max(self.bits, int(new_total).bit_length() + 1)
        if constraint.comparison is Comparison.LE:
            commitment, randomness, proof = zkp.prove_upper_bound(
                self.committer, new_total, bound, bits
            )
            verify = zkp.verify_upper_bound
        else:
            commitment, randomness, proof = zkp.prove_lower_bound(
                self.committer, new_total, bound, bits
            )
            verify = zkp.verify_lower_bound
        # Manager: verify; its view is (group, commitment, proof).
        self._observe(("group", group))
        self._observe(("commitment", commitment.value))
        accepted = verify(self.committer, commitment, proof)
        self.metrics.counter("zkp.proofs_verified").add()
        if not accepted:
            return None
        return [
            (self._commitments[constraint.constraint_id], group, commitment),
            (secrets, group, (new_total, randomness)),
        ]

    # -- durability hooks --------------------------------------------------

    def _fingerprint(self) -> list:
        group = self.committer.group
        return [group.p, group.g, self.committer.h]

    def durable_state(self) -> dict:
        """Per group: the running total, its commitment randomness and
        the commitment value.

        The snapshot already carries the plaintext table rows these
        totals sum, so this adds no new kind of data to it.  The
        committer's group and ``h`` are stored to fail closed on a
        mismatch, as Paillier does on ``n``.
        """
        return {
            "committer": self._fingerprint(),
            "groups": {
                constraint_id: [
                    [list(group), total, randomness,
                     self._commitments[constraint_id][group].value]
                    for group, (total, randomness) in sorted(
                        secrets.items(), key=lambda item: repr(item[0])
                    )
                ]
                for constraint_id, secrets in self._secret_state.items()
            },
        }

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Rebuild both sides' per-group state from :meth:`durable_state`."""
        if state is None:
            return
        if state["committer"] != self._fingerprint():
            raise EngineError(
                "snapshot was taken under a different Pedersen committer"
            )
        for constraint_id, rows in state["groups"].items():
            if constraint_id not in self._secret_state:
                raise EngineError(
                    f"snapshot totals name unknown constraint "
                    f"{constraint_id!r}"
                )
            secrets = self._secret_state[constraint_id]
            commitments = self._commitments[constraint_id]
            for group, total, randomness, value in rows:
                secrets[tuple(group)] = (total, randomness)
                commitments[tuple(group)] = PedersenCommitment(value)

    def replay_decided(self, update: Optional[Update], applied: bool,
                       now: Optional[float]) -> None:
        """Fold a replayed applied update into the owner-side totals
        and recommit each — no proof: the accept decision was already
        made and anchored, and decisions depend only on the totals, so
        the fresh commitment randomness changes nothing observable."""
        if not applied:
            return
        for constraint in self.constraints_for(update):
            group = self._group_key(constraint, update)
            secrets = self._secret_state[constraint.constraint_id]
            total = secrets.get(group, (0, 0))[0] + int(
                constraint.aggregate.contribution_of(update.payload))
            commitment, randomness = self.committer.commit(total)
            secrets[group] = (total, randomness)
            self._commitments[constraint.constraint_id][group] = commitment


class EnclaveVerifier(BaseVerifier):
    """RC1 via hardware-protected computation (simulated enclave)."""

    name = "enclave"
    profile = lk.ENCLAVE_PROFILE

    def __init__(
        self,
        databases: Sequence,
        constraints: Sequence[Constraint],
        epc_capacity: int = 1000,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        self.databases = list(databases)
        self.enclave = TrustedEnclaveSimulator(
            constraints=self.constraints, epc_capacity=epc_capacity
        )
        self.expected_measurement = self.enclave.attest()

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        with self.metrics.timed("enclave.check"):
            decision, measurement = self.enclave.verify_update(
                self.databases, update, now
            )
        if measurement != self.expected_measurement:
            raise PrivacyError("enclave attestation mismatch")
        self._observe(("decision", decision))
        if not decision:
            return self._outcome(False, failed=self.constraints[0].constraint_id)
        return self._outcome(True, attestation=measurement)


class DPIndexVerifier(BaseVerifier):
    """RC1 via differentially private partial disclosure.

    The manager holds a DP histogram of the per-group aggregate values
    and verifies against it — *approximately*.  False accepts/rejects
    happen with probability governed by the noise scale; the accuracy
    experiment (bench E3/E4) quantifies them and the budget accountant
    eventually halts refreshes, reproducing the paper's exhaustion
    concern.
    """

    name = "dp-index"
    profile = lk.DP_INDEX_PROFILE

    def __init__(
        self,
        databases: Sequence,
        constraints: Sequence[Constraint],
        index: DPIndex,
        refresh_every: int = 10,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(constraints, metrics)
        if len(self.constraints) != 1 or not self.constraints[0].is_aggregate:
            raise EngineError("DPIndexVerifier handles a single aggregate constraint")
        self.databases = list(databases)
        self.index = index
        self.refresh_every = refresh_every
        self._since_refresh = 0
        self._noisy_totals: Dict[tuple, float] = {}

    def verify(self, update: Update, now: float) -> VerificationOutcome:
        constraint = self.constraints[0]
        group = tuple(
            update.payload.get(col) for col in constraint.aggregate.match_columns
        )
        contribution = constraint.aggregate.contribution_of(update.payload)
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every or group not in self._noisy_totals:
            self._refresh_group(constraint, update, group, now)
        noisy_total = self._noisy_totals.get(group, 0.0)
        proposed = noisy_total + contribution
        accepted = constraint.comparison.apply(proposed, float(constraint.bound))
        self._observe(("noisy_total", round(noisy_total, 3)))
        if accepted:
            self._noisy_totals[group] = proposed
        if not accepted:
            return self._outcome(False, failed=constraint.constraint_id)
        return self._outcome(True)

    def _refresh_group(self, constraint: Constraint, update: Update,
                       group: tuple, now: float) -> None:
        true_total = constraint.aggregate.evaluate_over(
            self.databases, update.table, update.payload, now
        )
        self.index.accountant.charge(
            self.index.epsilon_per_refresh, label="dp-verify-refresh"
        )
        noisy = self.index.mechanism.add_noise(
            true_total, 1.0, self.index.epsilon_per_refresh
        )
        self._noisy_totals[group] = max(0.0, noisy)
        self._since_refresh = 0

    # -- durability hooks --------------------------------------------------

    def durable_state(self) -> dict:
        """The budget spent so far and the noisy totals the manager
        verifies against — what a recovered or installed engine must
        not get back for free.  The manager already sees the noisy
        totals, so persisting them adds no leakage."""
        accountant = self.index.accountant
        return {
            "epsilon_total": accountant.epsilon_total,
            "spent": accountant.spent,
            "since_refresh": self._since_refresh,
            "noisy_totals": [
                [list(group), total]
                for group, total in sorted(self._noisy_totals.items(),
                                           key=lambda item: repr(item[0]))
            ],
        }

    def restore_durable_state(self, state: Optional[dict]) -> None:
        """Load :meth:`durable_state`; the accountant never ends below
        the budget the snapshot had spent (fail closed on a different
        total budget)."""
        if state is None:
            return
        accountant = self.index.accountant
        if state["epsilon_total"] != accountant.epsilon_total:
            raise EngineError(
                "snapshot was taken under a different privacy budget"
            )
        accountant.spent = max(accountant.spent, state["spent"])
        self._since_refresh = state["since_refresh"]
        self._noisy_totals = {
            tuple(group): total for group, total in state["noisy_totals"]
        }

    def replay_decided(self, update: Optional[Update], applied: bool,
                       now: Optional[float]) -> None:
        """Refused, for every decision: WAL replay cannot re-derive the
        refresh charges the crashed process paid, including those spent
        deciding updates it rejected, so a replayed engine would hand
        budget back.  Recover a DP-index framework from a snapshot with
        no WAL tail."""
        raise EngineError(
            "dp-index engine cannot replay logged updates: their privacy "
            "charges are not in the WAL — recover from a snapshot"
        )
