"""The batching scheduler: concurrent requests → batched pipeline runs.

The serving tier's whole throughput story is here.  Requests arrive one
or a few updates at a time from hundreds of connections; the staged
pipeline (PRs 1–8) earns its amortizations — routed constraint checks,
batch Schnorr auth, one Merkle extension, one group-commit fsync — only
when updates reach it in batches.  :class:`BatchingScheduler` bridges
the two: admitted requests land on a bounded ingress queue, a collector
task coalesces everything that arrives within a **time/size window**
(``batch_window`` seconds, capped at ``max_batch`` updates), and the
coalesced batch runs through ``target.submit_many`` on one dedicated
pipeline thread.

That single thread is a correctness decision, not just a convenience:
:class:`~repro.core.framework.PReVer` is not thread-safe, and running
every batch on one thread in admission order makes the served decision
stream *identical* to calling ``submit_many`` in-process on the same
update order — the root-equality property
``tests/test_serve_server.py::test_served_equals_in_process_*`` hold.

Backpressure is by update count, not request count: ``queue_limit``
bounds the number of admitted-but-unfinished updates, and
:meth:`try_submit` refuses (the server answers RETRY) rather than
queueing unboundedly — an explicit signal, never a silent drop.

The batch window doubles as the durability layer's **group-commit
window**: with WAL durability on, each coalesced batch is made durable
by exactly one anchor-marker fsync (see
:meth:`repro.durability.policy.Durability.serving`), so widening the
window trades per-update latency for fewer fsyncs per update.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

from repro.core.outcome import UpdateResult
from repro.model.update import Update


class _WorkItem:
    """One admitted request: its updates and the future its results land on."""

    __slots__ = ("updates", "future")

    def __init__(self, updates: Sequence[Update],
                 future: "asyncio.Future[List[UpdateResult]]"):
        self.updates = list(updates)
        self.future = future


class BatchingScheduler:
    """Coalesce admitted requests into batched pipeline runs.

    ``target`` is anything exposing ``submit_many`` — a
    :class:`~repro.core.framework.PReVer` or a
    :class:`~repro.core.sharded.ShardedPReVer` (served requests then
    route across its shards exactly as in-process batches do).  A
    coalesced batch larger than ``max_batch`` (one request overshot
    the cap) runs as consecutive ``max_batch``-sized chunks.

    Lifecycle: :meth:`start` inside a running event loop,
    :meth:`try_submit` per admitted request, :meth:`drain` to run the
    queue dry (used by graceful shutdown), :meth:`stop` to tear down.
    """

    def __init__(self, target, *, batch_window: float = 0.005,
                 max_batch: int = 256, queue_limit: int = 1024,
                 metrics=None, tracer=None):
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch <= 0 or queue_limit <= 0:
            raise ValueError("max_batch and queue_limit must be positive")
        self.target = target
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.metrics = metrics if metrics is not None else target.metrics
        self.tracer = tracer if tracer is not None else getattr(
            target, "tracer", None)
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pending_updates = 0
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        # server.* metrics, on the target's registry so the existing
        # /metrics plane (repro.obs.server) picks them up unchanged.
        self._gauge_depth = self.metrics.gauge("server.queue_depth")
        self._ctr_batches = self.metrics.counter("server.batches")
        self._ctr_batched_updates = self.metrics.counter(
            "server.batched_updates")
        self._tmr_batch = self.metrics.timer("server.batch")
        self._tmr_wait = self.metrics.timer("server.batch_wait")
        self._hist_batch_size = self.metrics.histogram("server.batch_size")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the collector task and the pipeline thread (idempotent).

        Must run inside the event loop that will call
        :meth:`try_submit` — the queue and futures bind to it.
        """
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="prever-serve-pipeline")
        self._task = asyncio.get_running_loop().create_task(
            self._collect_loop(), name="prever-serve-batcher")

    async def stop(self) -> None:
        """Drain the queue, then stop the collector and pipeline thread."""
        if self._task is None:
            return
        await self.drain()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        self._executor.shutdown(wait=True)
        self._executor = None

    async def drain(self) -> None:
        """Wait until every admitted update has a result.

        Graceful shutdown calls this after the server stops admitting:
        in-flight batches complete and queued requests still run —
        admitted work is never dropped.
        """
        while self._pending_updates or self._inflight \
                or (self._queue is not None and not self._queue.empty()):
            await self._idle.wait()
            # The idle event can race a fresh admission; loop until the
            # accounting really reads empty.
            if self._pending_updates == 0 and self._inflight == 0 \
                    and self._queue.empty():
                return
        return

    # -- admission ---------------------------------------------------------

    @property
    def pending_updates(self) -> int:
        """Admitted updates not yet resolved (the backpressure signal)."""
        return self._pending_updates

    def try_submit(self, updates: Sequence[Update]
                   ) -> Optional["asyncio.Future[List[UpdateResult]]"]:
        """Admit one request, or refuse it under backpressure.

        Returns a future resolving to the request's
        :class:`~repro.core.outcome.UpdateResult` list (in submission
        order), or ``None`` when admitting would exceed
        ``queue_limit`` pending updates — the caller then answers
        RETRY.  Requests larger than the whole queue limit are
        refused the same way (they can never be admitted whole).
        """
        if self._task is None:
            raise ServeSchedulerStopped("scheduler is not running")
        count = len(updates)
        if self._pending_updates + count > self.queue_limit:
            return None
        future = asyncio.get_running_loop().create_future()
        self._pending_updates += count
        self._gauge_depth.set(self._pending_updates)
        self._idle.clear()
        self._queue.put_nowait(_WorkItem(updates, future))
        return future

    # -- the collector / pipeline loop ------------------------------------

    async def _collect_loop(self) -> None:
        """Collect → coalesce → execute, forever (until cancelled)."""
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            wait_start = loop.time()
            items = [first]
            size = len(first.updates)
            deadline = loop.time() + self.batch_window
            while size < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(),
                                                  timeout=remaining)
                except asyncio.TimeoutError:
                    break
                items.append(item)
                size += len(item.updates)
            self._tmr_wait.record(loop.time() - wait_start)
            await self._execute(items)

    async def _execute(self, items: List[_WorkItem]) -> None:
        """Run one coalesced batch on the pipeline thread and fan results
        back out to each request's future."""
        loop = asyncio.get_running_loop()
        updates: List[Update] = []
        for item in items:
            updates.extend(item.updates)
        chunks = [updates[i:i + self.max_batch]
                  for i in range(0, len(updates), self.max_batch)]
        self._inflight = len(updates)
        start = loop.time()
        try:
            results = await loop.run_in_executor(
                self._executor, self._run_chunks, chunks)
        except Exception as exc:
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            # Re-arm: a poisoned batch must not wedge admission.
            self._settle(items)
            return
        elapsed = loop.time() - start
        self._tmr_batch.record(elapsed)
        self._ctr_batches.add()
        self._ctr_batched_updates.add(len(updates))
        self._hist_batch_size.record(len(updates))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "server.batch",
                requests=len(items),
                updates=len(updates),
                chunks=len(chunks),
                seconds=elapsed,
            )
        offset = 0
        for item in items:
            share = results[offset:offset + len(item.updates)]
            offset += len(item.updates)
            if not item.future.done():
                item.future.set_result(share)
        self._settle(items)

    def _run_chunks(self, chunks: List[List[Update]]) -> List[UpdateResult]:
        """Pipeline-thread body: one ``submit_many`` per chunk."""
        results: List[UpdateResult] = []
        for chunk in chunks:
            results.extend(self.target.submit_many(chunk))
        return results

    def _settle(self, items: List[_WorkItem]) -> None:
        """Release the items' backpressure budget and maybe go idle."""
        released = sum(len(item.updates) for item in items)
        self._pending_updates -= released
        self._inflight = 0
        self._gauge_depth.set(self._pending_updates)
        if self._pending_updates == 0 and self._queue.empty():
            self._idle.set()


class ServeSchedulerStopped(RuntimeError):
    """A submit raced the scheduler's shutdown; the server answers
    SHUTTING_DOWN."""
