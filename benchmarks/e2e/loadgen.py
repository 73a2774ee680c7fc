"""The load generator: one thread, open-loop and closed-loop drivers.

``send(update)`` is any coroutine function that resolves to the reply —
``ServeClient.submit`` in the served workload, a fake in the selftest.
Both drivers record, per request, when it was due, when it was actually
sent and when its reply arrived; a failed send is kept as the exception
it raised so the caller can count it against the latency limit.
"""

import asyncio
from time import perf_counter
from typing import Callable, List, NamedTuple, Sequence

from stats import percentile


#: How far ahead of a due time the generator stops sleeping and spins.
TIMER_SLACK = 0.001


class Request(NamedTuple):
    """One request's timeline (seconds on the generator's clock)."""

    index: int
    due: float      # when the schedule wanted it sent
    start: float    # when the generator got to it
    done: float     # when its reply (or failure) arrived
    reply: object   # the reply, or the exception the send raised

    @property
    def latency(self) -> float:
        """Charged from the due time: a stall that delays this request's
        send is part of what its user waited."""
        return self.done - self.due


class RungReport(NamedTuple):
    requests: List[Request]
    lag_p99: float            # how late the generator ran, seconds
    inflight_median: float
    inflight_end: float       # median in-flight over the last tenth of sends


async def open_loop(send: Callable, updates: Sequence, offsets: Sequence[float],
                    lead: float = 0.02, reply_timeout: float = 30.0,
                    clock=perf_counter) -> RungReport:
    """Send ``updates[i]`` at ``t0 + offsets[i]`` whatever the replies do.

    The schedule never waits for a reply, so a slow server faces the
    same arrivals as a fast one and its queue is free to grow.
    """
    records: List[Request] = [None] * len(updates)
    inflight = 0
    inflight_samples: List[int] = []

    async def one(index, due):
        nonlocal inflight
        start = clock()   # when the send really begins, not when queued
        try:
            reply = await send(updates[index])
        except Exception as exc:  # counted by the caller, never dropped
            reply = exc
        inflight -= 1
        records[index] = Request(index, due, start, clock(), reply)

    t0 = clock() + lead
    tasks = []
    for index, offset in enumerate(offsets):
        due = t0 + offset
        delay = due - clock()
        # The event loop's timer rounds up to a millisecond: sleep short
        # of the due time, then yield-spin the rest so replies still run.
        if delay > TIMER_SLACK:
            await asyncio.sleep(delay - TIMER_SLACK)
        while clock() < due:
            await asyncio.sleep(0)
        inflight += 1
        inflight_samples.append(inflight)
        tasks.append(asyncio.ensure_future(one(index, due)))
        # Run the send now, even when the next request is already due.
        await asyncio.sleep(0)
    # A single reading at the last send is a coin toss under Poisson
    # arrivals; the backlog at rung end is the median of the last tenth.
    inflight_end = percentile(
        inflight_samples[-max(1, len(inflight_samples) // 10):], 50)
    pending = ()
    if tasks:
        _, pending = await asyncio.wait(tasks, timeout=reply_timeout)
    for task in pending:
        task.cancel()
    end = clock()
    for index, record in enumerate(records):
        if record is None:  # no reply at all
            due = t0 + offsets[index]
            records[index] = Request(index, due, due, end,
                                     TimeoutError("no reply"))
    lags = [r.start - r.due for r in records]
    return RungReport(records, percentile(lags, 99),
                      percentile(inflight_samples, 50), inflight_end)


async def closed_loop(senders: Sequence[Callable], per_sender: int,
                      next_update: Callable, seconds: float,
                      clock=perf_counter) -> List[Request]:
    """``per_sender`` callers on each connection, each sending its next
    request only when the previous reply is in, for ``seconds``."""
    records: List[Request] = []
    deadline = clock() + seconds

    async def caller(send):
        while True:
            start = clock()
            if start >= deadline:
                return
            index, update = next_update()
            try:
                reply = await send(update)
            except Exception as exc:
                reply = exc
            records.append(Request(index, start, start, clock(), reply))

    await asyncio.gather(*[caller(send) for send in senders
                           for _ in range(per_sender)])
    return records
