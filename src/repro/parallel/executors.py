"""Executor implementations for chunked crypto work.

The contract all call sites rely on:

* ``map_chunks(fn, items)`` splits ``items`` into contiguous chunks,
  applies ``fn(chunk) -> list`` to each, and returns the concatenation
  in input order.  ``fn`` must be a top-level function and chunks must
  pickle; per-item results must pickle back.
* The serial executor applies ``fn`` to the whole item list in the
  calling process — identical arithmetic, identical ordering — so any
  correctly chunk-local ``fn`` is execution-equivalent across
  executors.

Process pools are cached per worker count and shared across executor
instances (one fork-server-style warm pool per process), so tests and
short-lived frameworks do not pay pool startup per batch.  Pools are
torn down atexit.
"""

import atexit
import math
import os
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import PReVerError
from repro.obs.aggregate import instrumented_chunk, merge_delta
from repro.obs.tracing import NOOP_TRACER

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Below this many items a process round-trip costs more than it saves;
#: ``ParallelExecutor`` runs such batches inline.
DEFAULT_MIN_ITEMS = 8

#: Chunk planning aims for at least this much measured work per
#: submitted chunk, so pool dispatch (~0.1–1 ms per chunk) stays a
#: small fraction of each chunk's runtime.
TARGET_CHUNK_SECONDS = 0.005

#: EWMA weight for new per-item cost samples (recent batches dominate,
#: one outlier does not).
_COST_ALPHA = 0.3

_ENV_EXECUTOR = "REPRO_EXECUTOR"
_ENV_WORKERS = "REPRO_WORKERS"


def split_chunks(items: Sequence, n_chunks: int) -> List[List]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-even
    chunks (never empty ones), preserving order."""
    items = list(items)
    if not items:
        return []
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks


class Executor:
    """Interface: chunked map over picklable items."""

    name = "abstract"
    workers = 1
    #: True when chunks may run in other processes (call sites that are
    #: order-sensitive or unpicklable should check this).
    parallel = False

    def bind_tracer(self, tracer) -> None:
        """Attach a tracer; parallel maps then record ``parallel.map``
        spans with worker/chunk counts."""

    def bind_metrics(self, registry) -> None:
        """Attach a metrics registry; pooled maps then collect each
        worker's telemetry delta alongside its results and merge it
        here under per-worker labels.  A no-op for executors that run
        everything in the calling process (their work already records
        into the caller's registry)."""

    def healthy(self) -> bool:
        """Liveness probe for the ops server: True when the executor
        can still accept work (always, for in-process executors)."""
        return True

    def map_chunks(self, fn: Callable[[list], list], items: Sequence,
                   label: str = "map") -> list:
        """Apply ``fn(chunk) -> list`` across chunks of ``items`` and
        return the concatenated results in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (shared pools survive; see module notes)."""

    def describe(self) -> dict:
        """Identification for bench artifacts and reports."""
        return {"executor": self.name, "workers": self.workers}


class SerialExecutor(Executor):
    """Run every chunk function inline — the default execution mode."""

    name = "serial"
    workers = 1
    parallel = False

    def map_chunks(self, fn: Callable[[list], list], items: Sequence,
                   label: str = "map") -> list:
        """Apply ``fn`` to the whole list in the calling process."""
        items = list(items)
        if not items:
            return []
        return list(fn(items))


#: Shared default instance; stateless, safe to reuse everywhere.
SERIAL_EXECUTOR = SerialExecutor()


# -- shared process pools ---------------------------------------------------

_POOL_CACHE: Dict[int, "ProcessPoolExecutor"] = {}


def _shared_pool(workers: int) -> "ProcessPoolExecutor":
    pool = _POOL_CACHE.get(workers)
    if pool is None:
        # Imported with the first pool: the serial default never pays
        # for concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        _POOL_CACHE[workers] = pool
    return pool


def _shutdown_pools() -> None:
    while _POOL_CACHE:
        _, pool = _POOL_CACHE.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pools)


class ParallelExecutor(Executor):
    """Fan chunks out to a process pool, reassemble in input order.

    ``workers`` defaults to the host CPU count.  Batches smaller than
    ``min_items`` run inline (the pool round-trip would dominate).
    Worker processes are plain CPython interpreters: chunk functions
    re-derive any per-process state (Paillier key caches, randomness
    pools) locally — nothing in this repo shares mutable state across
    workers.
    """

    name = "process"
    parallel = True

    def __init__(self, workers: Optional[int] = None,
                 min_items: int = DEFAULT_MIN_ITEMS,
                 tracer=None):
        if workers is not None and workers <= 0:
            raise PReVerError("ParallelExecutor needs a positive worker count")
        self.workers = workers or os.cpu_count() or 1
        self.min_items = min_items
        self.tracer = tracer or NOOP_TRACER
        # Measured per-item cost (seconds, EWMA) per map label.  The
        # first batch under a label always takes the full fan-out (no
        # measurement yet — assume the work is expensive); later
        # batches size their chunk count from the prediction, down to
        # running inline when the whole batch is cheaper than a single
        # pool dispatch.  Chunking never changes results (chunk
        # functions are chunk-local by contract), only scheduling.
        self._cost_ewma: Dict[str, float] = {}
        # Telemetry collection (off unless a registry is bound): pooled
        # chunks are wrapped so each worker's metric delta rides back
        # with its results, merged here under a stable per-worker label
        # (pids map to w0, w1, ... in first-seen order).
        self._metrics = None
        self._worker_labels: Dict[int, str] = {}

    def bind_tracer(self, tracer) -> None:
        """Attach a tracer: maps then emit ``parallel.map`` spans."""
        self.tracer = tracer

    def bind_metrics(self, registry) -> None:
        """Attach the coordinator registry worker telemetry merges
        into.  Rebinding (an executor shared across frameworks)
        redirects future merges to the latest registry."""
        self._metrics = registry

    def healthy(self) -> bool:
        """True while the shared pool (if started) is not broken."""
        pool = _POOL_CACHE.get(self.workers)
        if pool is None:
            return True  # lazily started; nothing to be broken yet
        return not getattr(pool, "_broken", False)

    def _submit(self, pool, fn, chunk):
        if self._metrics is not None:
            return pool.submit(instrumented_chunk, fn, chunk)
        return pool.submit(fn, chunk)

    def _consume(self, future) -> list:
        value = future.result()
        if self._metrics is not None:
            results, delta, pid = value
            label = self._worker_labels.get(pid)
            if label is None:
                label = f"worker.w{len(self._worker_labels)}"
                self._worker_labels[pid] = label
            merge_delta(self._metrics, delta, prefix=label)
            return results
        return value

    def _observe(self, label: str, n_items: int, elapsed: float,
                 n_chunks: int) -> None:
        """Fold one batch's measured cost into the label's EWMA.

        Pooled batches report wall time; scaling by the chunk count
        recovers an (optimistic) serial-equivalent per-item cost, which
        is the quantity the chunk planner predicts with.
        """
        if n_items <= 0 or elapsed <= 0.0:
            return
        sample = elapsed * n_chunks / n_items
        prior = self._cost_ewma.get(label)
        if prior is None:
            self._cost_ewma[label] = sample
        else:
            self._cost_ewma[label] = (
                _COST_ALPHA * sample + (1.0 - _COST_ALPHA) * prior
            )

    def _plan_chunks(self, label: str, n_items: int) -> int:
        """Chunk count for this batch: enough chunks that each carries
        ~:data:`TARGET_CHUNK_SECONDS` of predicted work, capped at the
        worker count; 1 means run inline.  Unmeasured labels take the
        full fan-out (expensive until proven cheap)."""
        cost = self._cost_ewma.get(label)
        if cost is None:
            return self.workers
        predicted = cost * n_items
        return max(1, min(self.workers,
                          math.ceil(predicted / TARGET_CHUNK_SECONDS)))

    def map_chunks(self, fn: Callable[[list], list], items: Sequence,
                   label: str = "map") -> list:
        """Fan chunks out to the shared process pool (inline below
        ``min_items``, or whenever the measured per-item cost predicts
        the batch is cheaper than pool dispatch); results come back in
        input order."""
        items = list(items)
        if not items:
            return []
        if len(items) < max(2, self.min_items) or self.workers == 1:
            # Inline fast path: identical arithmetic, no pool traffic.
            return list(fn(items))
        n_chunks = self._plan_chunks(label, len(items))
        start = perf_counter()
        if n_chunks <= 1:
            out = list(fn(items))
            self._observe(label, len(items), perf_counter() - start, 1)
            return out
        chunks = split_chunks(items, n_chunks)
        if self.tracer.enabled:
            out = self._map_traced(fn, chunks, len(items), label)
        else:
            pool = _shared_pool(self.workers)
            futures = [self._submit(pool, fn, chunk) for chunk in chunks]
            out = []
            for future in futures:
                out.extend(self._consume(future))
        self._observe(label, len(items), perf_counter() - start,
                      len(chunks))
        return out

    def _map_traced(self, fn, chunks, n_items: int, label: str) -> list:
        """Same fan-out, wrapped in a ``parallel.map`` span with one
        ``parallel.chunk`` child per submitted chunk."""
        pool = _shared_pool(self.workers)
        with self.tracer.span(
            "parallel.map", label=label, workers=self.workers,
            chunks=len(chunks), items=n_items,
        ) as span:
            futures = []
            for i, chunk in enumerate(chunks):
                child = span.child(
                    "parallel.chunk", chunk=i, items=len(chunk)
                )
                futures.append((self._submit(pool, fn, chunk), child))
            out: List[Any] = []
            for future, child in futures:
                try:
                    out.extend(self._consume(future))
                except BaseException as exc:
                    child.set_status("error")
                    child.set_attribute("exception", repr(exc))
                    raise
                finally:
                    child.end()
        return out


# -- selection --------------------------------------------------------------

def make_executor(kind: str, workers: Optional[int] = None) -> Executor:
    """Build an executor by name (``serial`` | ``process``)."""
    if kind == "serial":
        return SERIAL_EXECUTOR
    if kind == "process":
        return ParallelExecutor(workers=workers)
    raise PReVerError(f"unknown executor kind {kind!r}")


def executor_from_env(environ=None) -> Executor:
    """Resolve the default executor from ``REPRO_EXECUTOR`` /
    ``REPRO_WORKERS`` (serial when unset), so CI can run the whole
    suite over the process-pool path without code changes."""
    environ = os.environ if environ is None else environ
    kind = environ.get(_ENV_EXECUTOR, "serial").strip().lower() or "serial"
    workers_raw = environ.get(_ENV_WORKERS, "").strip()
    workers = int(workers_raw) if workers_raw else None
    return make_executor(kind, workers=workers)


def resolve_executor(executor: Optional[Executor]) -> Executor:
    """``executor`` if given, else the environment default."""
    return executor if executor is not None else executor_from_env()
