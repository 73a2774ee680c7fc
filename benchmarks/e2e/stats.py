"""Order statistics used by every workload, ``compare`` and the selftest.

Kept inside the benchmark on purpose: a change under ``src/`` must not be
able to move a reported percentile by changing a helper the harness
imports.
"""

import math
import statistics
from typing import List, Sequence, Tuple


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; raises on an empty sample (a metric with
    no samples is a harness bug, not a zero)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


#: Candidate tail percentiles, highest first, with the samples per
#: thousand that lie beyond each (integers: 100 - 99.9 is not exact).
TAILS = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100))


def supported_percentile(count: int, beyond: int = 10) -> float:
    """Highest candidate percentile with at least ``beyond`` samples past
    it; 50 when the sample supports no tail at all."""
    for pct, per_mille in TAILS:
        if count * per_mille >= beyond * 1000:
            return pct
    return 50.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as the acceptance driver computes them."""
    if len(values) < 2:
        value = float(values[0])
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def quiet_tail(samples: Sequence[float], pct: float, segments: int) -> float:
    """The ``pct`` tail of a time-ordered sample with the host's noise
    taken out: the sample's median plus the lower quartile (nearest
    rank), over ``segments`` consecutive stretches, of each stretch's own
    distance from its median to its ``pct``.

    A shared host only ever adds to a call's time, in bursts of a second
    or so, and a tail percentile taken over the whole sample reads those
    bursts rather than the program (46-54 ms over ten runs of equal calls
    whose quietest stretch said 44-47 every time).  The stretches a burst missed carry the program's own
    tail, so the lower quartile of the distances is taken; and distances,
    not the stretches' percentiles, because calls get slower as state
    grows and the lowest percentiles would always be the first stretches.
    A stretch holds at least 20 samples, so that its p95 is not its
    maximum; a sample too short for two such stretches is one stretch.
    """
    count = max(1, min(segments, len(samples) // 20))
    parts = [samples[i * len(samples) // count:(i + 1) * len(samples) // count]
             for i in range(count)]
    gaps = [percentile(part, pct) - percentile(part, 50) for part in parts]
    return percentile(samples, 50) + percentile(gaps, 25)


def slices(stamps: Sequence[Tuple[float, int]], start: float, end: float,
           n: int) -> List[float]:
    """Throughput in each of the ``n`` equal parts of ``[start, end)``
    from ``(completion_time, count)`` stamps."""
    width = (end - start) / n
    totals = [0] * n
    for at, count in stamps:
        if start <= at < end:
            totals[min(n - 1, int((at - start) / width))] += count
    return [total / width for total in totals]
