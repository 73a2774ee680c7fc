"""Seeded input generation: samplers, update streams and their oracles.

Everything the framework receives is built here from ``--seed``; nothing
is imported from ``repro.workloads``.  Each stream carries an O(1)
oracle that predicts the decision for the update it just produced, so
every decision the framework returns can be checked as it arrives.
"""

import bisect
import random
from typing import Dict, List, Optional

from repro.common.randomness import deterministic_rng
from repro.crypto.signatures import SchnorrSignature, SchnorrSigner
from repro.model.update import Update, UpdateOperation


class SeededProducer:
    """A data producer whose key and signing nonces come from the seed,
    so a seed fixes the signed stream byte for byte.  Exposes what
    ``Update.sign_with`` and the serving handshake use."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self._rng = deterministic_rng(seed)
        self._signer = SchnorrSigner(rng=self._rng)
        self.public_key = self._signer.public_key

    def sign(self, payload: bytes):
        return self._signer.sign(payload, rng=self._rng)


class Zipf:
    """Zipf(``s``) over ranks ``0..n-1`` by inverse-CDF lookup."""

    def __init__(self, n: int, s: float):
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


def poisson_schedule(rng: random.Random, rate: float,
                     seconds: float) -> List[float]:
    """Due-time offsets of an open-loop arrival process.

    ``round(rate * seconds)`` arrivals with exponential gaps, rescaled so
    the last one is due exactly at ``seconds``: the rung keeps its Poisson
    burstiness while its length and request count are the same for every
    seed.
    """
    count = max(1, round(rate * seconds))
    at, offsets = 0.0, []
    for _ in range(count):
        at += rng.expovariate(rate)
        offsets.append(at)
    scale = seconds / offsets[-1]
    return [offset * scale for offset in offsets]


class Expected:
    """What the oracle predicts for one update."""

    __slots__ = ("applied", "reason")

    def __init__(self, applied: bool, reason: Optional[str] = None):
        self.applied = applied
        self.reason = reason


class EmissionsStream:
    """``emissions(id, org, co2)`` inserts under the row predicate
    ``co2 <= 90``: a quarter of the stream is a regulated rejection, and
    the decision never depends on database state (verify is O(1))."""

    TABLE = "emissions"
    ORGS = 256
    CO2 = (30, 30, 30, 95)
    LIMIT = 90

    def __init__(self, seed: int, producer=None):
        self._rng = random.Random(seed)
        self._producer = producer
        self._next_id = 0

    def next(self, corrupt: bool = False):
        """The next update and its expected decision.  ``corrupt`` breaks
        the signature after signing; the framework must answer
        ``bad signature`` whatever the payload says."""
        rng = self._rng
        uid = self._next_id
        self._next_id += 1
        co2 = self.CO2[rng.randrange(len(self.CO2))]
        update = Update(
            table=self.TABLE, operation=UpdateOperation.INSERT,
            payload={"id": uid, "org": f"org-{rng.randrange(self.ORGS):03d}",
                     "co2": co2},
            update_id=f"e{uid:08d}")
        if self._producer is not None:
            update.sign_with(self._producer)
        if corrupt:
            good = update.signature
            update.signature = SchnorrSignature(
                commitment=good.commitment, response=good.response + 1)
            return update, Expected(False, "bad signature")
        return update, Expected(co2 <= self.LIMIT)

    def take(self, count: int, corrupt_at=()):
        """``count`` updates; positions in ``corrupt_at`` are corrupted."""
        bad = set(corrupt_at)
        pairs = [self.next(corrupt=index in bad) for index in range(count)]
        return [u for u, _ in pairs], [e for _, e in pairs]


class TasksStream:
    """``tasks(id, worker, hours)`` inserts under the per-worker cap
    ``SUM(hours) <= 400``: Zipf-hot workers saturate early, cold ones keep
    first-sighting new groups as the table grows.  The oracle keeps the
    running per-worker sums the cap is defined over."""

    TABLE = "tasks"
    WORKERS = 256
    SKEW = 0.99
    CAP = 400

    def __init__(self, seed: int, producer=None):
        self._rng = random.Random(seed)
        self._zipf = Zipf(self.WORKERS, self.SKEW)
        self._producer = producer
        self._next_id = 0
        self.hours: Dict[str, int] = {}

    def next(self):
        rng = self._rng
        uid = self._next_id
        self._next_id += 1
        worker = f"w{self._zipf.sample(rng):03d}"
        hours = rng.randint(1, 8)
        update = Update(
            table=self.TABLE, operation=UpdateOperation.INSERT,
            payload={"id": uid, "worker": worker, "hours": hours},
            update_id=f"t{uid:08d}")
        if self._producer is not None:
            update.sign_with(self._producer)
        total = self.hours.get(worker, 0) + hours
        if total <= self.CAP:
            self.hours[worker] = total
            return update, Expected(True)
        return update, Expected(False)

    def take(self, count: int):
        pairs = [self.next() for _ in range(count)]
        return [u for u, _ in pairs], [e for _, e in pairs]


def wrong_decisions(results, expected) -> int:
    """How many framework decisions disagree with the oracle.

    ``results`` are ``UpdateResult`` (in-process) or ``ServeResult``
    (served); both expose ``applied`` and a rejection reason.
    """
    wrong = 0
    for result, want in zip(results, expected):
        update = getattr(result, "update", None)
        reason = (update.rejection_reason if update is not None
                  else result.rejection_reason)
        if result.applied != want.applied:
            wrong += 1
        elif want.reason is not None and reason != want.reason:
            wrong += 1
    return wrong + abs(len(results) - len(expected))
