"""Shared pieces for the consensus clusters."""

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import LogCompactedError, ProtocolError
from repro.common.metrics import nearest_rank


@dataclass
class ConsensusResult:
    """Outcome of one submitted command."""

    value: Any
    sequence: int
    submitted_at: float
    decided_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.decided_at is None:
            return None
        return self.decided_at - self.submitted_at


@dataclass
class ClusterStats:
    """Aggregates the benchmark harness reads after a run."""

    decided: int
    total: int
    sim_duration: float
    messages: int
    mean_latency: float
    p95_latency: float
    p50_latency: float = 0.0
    p99_latency: float = 0.0

    @property
    def throughput(self) -> float:
        if self.sim_duration <= 0:
            return 0.0
        return self.decided / self.sim_duration

    def to_dict(self) -> dict:
        """Serializable form for benchmark artifacts."""
        return {
            "decided": self.decided,
            "total": self.total,
            "sim_duration": self.sim_duration,
            "messages": self.messages,
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
        }


def compute_stats(results: List[ConsensusResult], sim_duration: float,
                  messages: int) -> ClusterStats:
    """:func:`latency_stats` over the decided ones of ``results``."""
    return latency_stats(
        [r.latency for r in results if r.latency is not None],
        total=len(results), sim_duration=sim_duration, messages=messages,
    )


def latency_stats(latencies: Sequence[float], total: int,
                  sim_duration: float, messages: int) -> ClusterStats:
    """Aggregate the decided commands' latencies (``total`` commands
    were submitted) with the shared nearest-rank percentile
    (:func:`repro.common.metrics.nearest_rank`), so cluster quantiles
    agree with ``Timer.percentile`` everywhere else."""
    latencies = sorted(latencies)
    decided = len(latencies)
    mean = sum(latencies) / decided if decided else 0.0
    return ClusterStats(
        decided=decided,
        total=total,
        sim_duration=sim_duration,
        messages=messages,
        mean_latency=mean,
        p95_latency=nearest_rank(latencies, 95),
        p50_latency=nearest_rank(latencies, 50),
        p99_latency=nearest_rank(latencies, 99),
    )


#: Bytes of fingerprint kept per compacted slot, and the marker for a
#: slot this node never learned before it was compacted.
_FINGERPRINT = 8
_UNLEARNED = bytes(_FINGERPRINT)


def _fingerprint(value: Any) -> bytes:
    return hashlib.blake2b(repr(value).encode(),
                           digest_size=_FINGERPRINT).digest()


class DecisionLog:
    """Per-node ordered log of decided values.

    :meth:`compact` releases the values of every slot below a watermark
    and keeps a fixed-size fingerprint per released slot, so a late
    decision that conflicts with a compacted one still fails closed.
    """

    def __init__(self):
        self._decisions: Dict[int, Any] = {}
        self._fingerprints = bytearray()  # one per compacted slot
        self._end = 0  # first slot past the gap-free prefix

    @property
    def base(self) -> int:
        """The compaction watermark: slots below it are released."""
        return len(self._fingerprints) // _FINGERPRINT

    def decide(self, sequence: int, value: Any) -> bool:
        """Record a decision for ``sequence``.

        Returns ``True`` the first time a slot is decided and ``False``
        on an idempotent re-decision of the same value, or on any
        decision below the watermark (it changes nothing).  A
        *conflicting* re-decision raises
        :class:`~repro.common.errors.ProtocolError` (fail-closed: a slot
        deciding two different values is a safety violation, never
        something to signal with a return code) — for a compacted slot
        too, whenever this node learned it before compacting.
        """
        if sequence < self.base:
            at = sequence * _FINGERPRINT
            known = bytes(self._fingerprints[at:at + _FINGERPRINT])
            if known != _UNLEARNED and known != _fingerprint(value):
                raise ProtocolError(
                    f"safety violation: compacted slot {sequence} decided "
                    f"again with a different value ({value!r})"
                )
            return False
        existing = self._decisions.get(sequence)
        if existing is not None and existing != value:
            raise ProtocolError(
                f"safety violation: slot {sequence} decided twice "
                f"({existing!r} vs {value!r})"
            )
        first_time = sequence not in self._decisions
        self._decisions[sequence] = value
        while self._end in self._decisions:
            self._end += 1
        return first_time

    def get(self, sequence: int) -> Optional[Any]:
        """The decided value of a retained slot (None when undecided or
        compacted)."""
        return self._decisions.get(sequence)

    def committed_since(self, start: int) -> List[Any]:
        """Values of the gap-free prefix from slot ``start`` on."""
        if start < self.base:
            raise LogCompactedError(
                f"slot {start} is below the compaction watermark "
                f"{self.base}"
            )
        return [self._decisions[slot] for slot in range(start, self._end)]

    def committed_prefix(self) -> List[Any]:
        """Values of the retained gap-free prefix (from the watermark)."""
        return self.committed_since(self.base)

    @property
    def prefix_end(self) -> int:
        """First slot past the gap-free prefix."""
        return self._end

    def compact(self, upto: int) -> None:
        """Release every slot below ``upto``, keeping its fingerprint;
        O(slots released)."""
        for slot in range(self.base, upto):
            value = self._decisions.pop(slot, None)
            self._fingerprints += (
                _UNLEARNED if value is None else _fingerprint(value)
            )
        while self._end < upto or self._end in self._decisions:
            self._end += 1

    def __len__(self) -> int:
        return len(self._decisions)
