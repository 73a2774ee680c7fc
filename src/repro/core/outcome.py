"""Result types shared by all verification engines and the pipeline.

One :class:`UpdateResult` per decided update stays resident for as long
as the framework retains results, so both records are slotted and share
what is the same for every update of an engine — the constraint-id
sequence and the empty evidence mapping — instead of copying it.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.model.update import Update

#: The stages a result carries a timing for, in pipeline order.
TIMED_STAGES = ("authenticate", "verify", "apply", "anchor")


class _NoEvidence(Mapping):
    """The empty evidence mapping every evidence-free outcome shares:
    read-only, so sharing it aliases nothing, and pickled by name, so a
    result shipped between processes still points at the one instance
    (``types.MappingProxyType`` does not pickle)."""

    __slots__ = ()

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def __hash__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self):
        return "NO_EVIDENCE"


NO_EVIDENCE = _NoEvidence()


@dataclass(slots=True)
class VerificationOutcome:
    """What an engine returns for one update.

    ``constraint_ids`` is the engine's own sequence, shared by every
    outcome it returns — treat it as read-only.
    """

    accepted: bool
    engine: str
    constraint_ids: Sequence[str] = ()
    evidence: Mapping[str, Any] = NO_EVIDENCE
    failed_constraint: Optional[str] = None

    def to_dict(self) -> dict:
        """The decision fields anchored on the ledger (evidence is
        kept out: it may contain ciphertexts or proofs)."""
        return {
            "accepted": self.accepted,
            "engine": self.engine,
            "constraint_ids": self.constraint_ids,
            "failed_constraint": self.failed_constraint,
        }


@dataclass(slots=True)
class UpdateResult:
    """Full pipeline outcome for one submitted update (Figure 2)."""

    update: Update
    outcome: VerificationOutcome
    applied: bool
    ledger_sequence: Optional[int] = None
    #: Seconds per :data:`TIMED_STAGES` entry, ``None`` where the walk
    #: halted before the stage; read it through :attr:`stage_timings`.
    timings: Tuple[Optional[float], ...] = ()
    trace_id: Optional[str] = None
    #: Name of the shard that processed the update (set by
    #: :class:`~repro.core.sharded.ShardedPReVer`; None for a
    #: standalone framework or a coordinator-side escalation decision).
    shard: Optional[str] = None

    @property
    def accepted(self) -> bool:
        """Shorthand for ``outcome.accepted``."""
        return self.outcome.accepted

    @property
    def stage_timings(self) -> Dict[str, float]:
        """Stage name → seconds for the stages this update reached
        (a fresh dict per read, built from :attr:`timings`)."""
        return {name: seconds
                for name, seconds in zip(TIMED_STAGES, self.timings)
                if seconds is not None}

