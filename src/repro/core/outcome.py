"""Result types shared by all verification engines and the pipeline.

``submit`` / ``submit_many`` hand the caller one :class:`UpdateResult`
per update; the framework keeps none of them.  Both records are slotted
and share what is the same for every update of an engine — the
constraint-id sequence and the empty evidence mapping — instead of
copying it, because callers (replicas, the serving tier) may hold many.

What the framework does keep is :class:`DecisionJournal`: its decisions'
ledger sequence numbers, one 8-byte slot each, read back as
:class:`DecisionRecord` views over the anchored leaves.
"""

from array import array
from collections.abc import Mapping
from collections.abc import Sequence as SequenceABC
from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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


class DecisionRecord:
    """One decided update as the ledger holds it: a ledger and the
    sequence number of the decision's entry there.

    Nothing decoded is stored — :attr:`payload` and the fields read
    from it decode the anchored leaf on every read, so bind
    :attr:`payload` to a local when reading more than one field.
    Immutable: assignment raises
    :class:`~dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("_ledger", "ledger_sequence")

    def __init__(self, ledger, sequence: int):
        _set = object.__setattr__
        _set(self, "_ledger", ledger)
        _set(self, "ledger_sequence", sequence)

    @property
    def payload(self) -> dict:
        """The anchored decision payload (a fresh decode)."""
        return self._ledger.entry(self.ledger_sequence).payload

    @property
    def update_id(self) -> str:
        return self.payload["update_id"]

    @property
    def status(self) -> str:
        """The update's status when anchored: ``"applied"`` or
        ``"rejected"``."""
        return self.payload["status"]

    @property
    def applied(self) -> bool:
        return self.status == "applied"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"DecisionRecord(ledger_sequence={self.ledger_sequence!r})"


class DecisionJournal(SequenceABC):
    """A framework's decisions, in decision order: a read-only
    sequence of :class:`DecisionRecord` over its ledger.

    Backed by ``sequences``, the ``array('q')`` of ledger sequence
    numbers the framework appends to as it decides (or recovers)
    updates — an index, because other writers (``publish_state``,
    apps) append non-decision entries to the same ledger.  Records are
    built on each read and own nothing.
    """

    __slots__ = ("_ledger", "_sequences")

    def __init__(self, ledger, sequences: array):
        self._ledger = ledger
        self._sequences = sequences

    def __len__(self) -> int:
        return len(self._sequences)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[DecisionRecord, List[DecisionRecord]]:
        if isinstance(index, slice):
            return [DecisionRecord(self._ledger, sequence)
                    for sequence in self._sequences[index]]
        return DecisionRecord(self._ledger, self._sequences[index])

    def __iter__(self):
        ledger = self._ledger
        for sequence in self._sequences:
            yield DecisionRecord(ledger, sequence)
