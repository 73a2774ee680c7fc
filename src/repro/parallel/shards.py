"""Process-backed shard workers: stateful task pinning for scale-out.

:class:`~repro.parallel.executors.ParallelExecutor` fans *stateless*
chunk functions across a shared pool — fine for crypto work, useless
for a shard, which is a long-lived stateful ``PReVer`` (tables, ledger
Merkle frontier, WAL handles, engine caches).  A shard's state must
live in exactly one process for its whole lifetime.

:class:`ShardWorker` provides that pinning by construction: each
worker owns a *dedicated single-process* ``ProcessPoolExecutor``, so
every task submitted through it lands in the same child process.  The
child builds the framework once (from a picklable builder callable)
into a module-level registry, and subsequent calls look it up by key —
no framework state ever crosses the process boundary; only updates go
in and :class:`~repro.core.outcome.UpdateResult` lists, digests, and
report dicts come back.

Used by :class:`repro.core.sharded.ShardedPReVer` under
``dispatch="process"``; everything here is dispatch plumbing, the
sharding semantics live there.
"""

import atexit
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.common.errors import PReVerError

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Child-process-side registry: shard key -> the built framework.  One
#: ShardWorker's pool has exactly one process, so each child sees only
#: its own shard's entry.
_STATE: Dict[str, object] = {}

#: Child-process-side delta trackers: shard key -> the DeltaTracker
#: computing incremental telemetry captures for that shard.
_TRACKERS: Dict[str, object] = {}


def _shard_build(key: str, builder: Callable[[], object]) -> bool:
    """(child) Build the shard's framework into the registry."""
    _STATE[key] = builder()
    return True


def _shard_method(key: str, method: str, args: tuple, kwargs: dict):
    """(child) Call a public framework method and return its result."""
    return getattr(_STATE[key], method)(*args, **kwargs)


def _shard_digest(key: str):
    """(child) The shard ledger's current digest."""
    return _STATE[key].ledger.digest()


def _shard_metrics(key: str) -> dict:
    """(child) The shard's metrics snapshot."""
    return _STATE[key].metrics.snapshot()


def _shard_telemetry(key: str):
    """(child) The shard's telemetry delta since the last capture.

    The first capture for a shard covers everything it ever recorded
    (origin baseline), so a coordinator that starts scraping late still
    sees the full history; later captures ship only the increments.
    """
    from repro.obs.aggregate import DeltaTracker

    framework = _STATE[key]
    tracker = _TRACKERS.get(key)
    if tracker is None:
        tracker = _TRACKERS[key] = DeltaTracker(
            framework.metrics, tracer=framework.tracer, origin=True
        )
    return tracker.capture()


def _shard_counters(key: str) -> dict:
    """(child) The running pipeline counters recovery and reporting
    need coordinator-side."""
    framework = _STATE[key]
    return {
        "submitted": framework._submitted_count,
        "applied": framework._applied_count,
        "ledger_size": len(framework.ledger),
    }


_LIVE_WORKERS: List["ShardWorker"] = []


def _shutdown_workers() -> None:
    while _LIVE_WORKERS:
        _LIVE_WORKERS.pop().shutdown()


atexit.register(_shutdown_workers)


class ShardWorker:
    """One shard pinned to one dedicated child process.

    The pool has ``max_workers=1``, so every call routes to the same
    process and the framework built by ``builder`` stays resident
    there.  ``builder`` must be picklable (a top-level function or a
    ``functools.partial`` over one) and must construct the shard's
    entire framework — databases, constraints, durability — inside the
    child; nothing built in the parent is shipped over.
    """

    def __init__(self, key: str, builder: Callable[[], object]):
        from concurrent.futures import ProcessPoolExecutor

        self.key = key
        self._pool = ProcessPoolExecutor(max_workers=1)
        self._closed = False
        try:
            self._pool.submit(_shard_build, key, builder).result()
        except Exception as exc:
            self._pool.shutdown(wait=False, cancel_futures=True)
            raise PReVerError(
                f"shard {key!r} failed to build in its worker: {exc}"
            ) from exc
        _LIVE_WORKERS.append(self)

    def call(self, method: str, *args, **kwargs):
        """Run a framework method in the shard's process, blocking."""
        return self.call_async(method, *args, **kwargs).result()

    def call_async(self, method: str, *args, **kwargs) -> "Future":
        """Run a framework method in the shard's process; returns the
        future so batches fan out across shards concurrently."""
        if self._closed:
            raise PReVerError(f"shard worker {self.key!r} is shut down")
        return self._pool.submit(_shard_method, self.key, method, args, kwargs)

    def digest(self):
        """The shard ledger's digest, fetched from the child."""
        return self._pool.submit(_shard_digest, self.key).result()

    def metrics_snapshot(self) -> dict:
        """The shard's metrics snapshot, fetched from the child."""
        return self._pool.submit(_shard_metrics, self.key).result()

    def telemetry_delta(self):
        """The shard's incremental
        :class:`~repro.obs.aggregate.TelemetryDelta` (everything since
        the previous call; the full history on the first)."""
        return self._pool.submit(_shard_telemetry, self.key).result()

    def alive(self) -> bool:
        """Liveness probe: True while the pinned child can take work."""
        if self._closed:
            return False
        return not getattr(self._pool, "_broken", False)

    def counters(self) -> dict:
        """Submitted/applied/ledger-size counters from the child."""
        return self._pool.submit(_shard_counters, self.key).result()

    def shutdown(self) -> None:
        """Close the shard framework (WAL flush) and kill the child."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.submit(
                _shard_method, self.key, "close", (), {}
            ).result(timeout=30)
        except Exception:
            pass  # the child may already be gone (crash tests)
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self in _LIVE_WORKERS:
            _LIVE_WORKERS.remove(self)
