"""One seeded crowdworking stream, decided three ways.

Workers complete tasks on competing platforms for several weeks under
the FLSA cap (40 hours per worker per week, across *all* platforms).
The oracle is one running total per (worker, week), O(1) per task: a
task is accepted iff its hours fit under the cap.  The same stream is
fed through

* :class:`~repro.core.separ.SeparSystem`, the paper's Section-5
  deployment, and
* a hand-built :class:`~repro.core.sharded.ShardedPReVer`: one shard
  per platform ordered through SharPer, and the cap registered as a
  cross-shard constraint checked coordinator-side by a
  :class:`~repro.core.federated.TokenVerifier`,

and both must reproduce the oracle's accept/reject sequence and its
per-worker-week totals.
"""

import random

import pytest

from repro.common.clock import SimClock
from repro.core.federated import TokenVerifier
from repro.core.framework import PReVer
from repro.core.separ import WEEK_SECONDS, SeparSystem
from repro.core.sharded import ShardedPReVer, ShardSpec
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.model.constraints import (
    AggregateSpec,
    Comparison,
    Constraint,
    ConstraintKind,
    WindowSpec,
)
from repro.model.update import Update, UpdateOperation

CAP = 40
PLATFORMS = ("uber", "lyft", "grab")


def crowdworking_stream(seed, workers=5, weeks=3, tasks_per_worker=9):
    """``(week, worker, platform, hours)`` tuples; greedy workers ask
    for about 45 hours a week, so the cap bites every week."""
    rng = random.Random(seed)
    names = [f"worker-{i}" for i in range(workers)]
    return [
        (week, rng.choice(names), rng.choice(PLATFORMS), rng.randint(1, 9))
        for week in range(weeks)
        for _ in range(workers * tasks_per_worker)
    ]


def oracle(stream):
    """Accept/reject per task and the accepted hours per worker-week."""
    used = {}
    decisions = []
    for week, worker, _platform, hours in stream:
        total = used.get((worker, week), 0) + hours
        decisions.append(total <= CAP)
        if total <= CAP:
            used[(worker, week)] = total
    return decisions, used


def run_separ(stream):
    system = SeparSystem(list(PLATFORMS), weekly_hour_cap=CAP)
    for worker in sorted({worker for _, worker, _, _ in stream}):
        system.register_worker(worker)
    decisions = []
    for week, worker, platform, hours in stream:
        while system.current_period() < week:
            system.advance_weeks(1)
        decisions.append(system.complete_task(worker, platform, hours).accepted)
    totals = {
        (worker, week): system.hours_worked(worker, week)
        for worker in system.workers
        for week in range(stream[-1][0] + 1)
    }
    return decisions, {key: hours for key, hours in totals.items() if hours}


def platform_spec(platform, clock):
    table = f"tasks_{platform}"

    def build():
        database = Database(platform)
        database.create_table(TableSchema.build(
            table,
            [("task_id", ColumnType.TEXT), ("worker", ColumnType.TEXT),
             ("hours", ColumnType.INT), ("completed_at", ColumnType.FLOAT)],
            primary_key=["task_id"],
        ))
        return PReVer([database], clock=clock)

    return ShardSpec(platform, (table,), build)


def run_sharded(stream):
    clock = SimClock()
    sharded = ShardedPReVer(
        [platform_spec(platform, clock) for platform in PLATFORMS],
        clock=clock, consensus="sharper",
    )
    cap = Constraint(
        name="flsa-40h", kind=ConstraintKind.REGULATION,
        aggregate=AggregateSpec(
            func="SUM", column="hours", match_columns=("worker",),
            window=WindowSpec("completed_at", WEEK_SECONDS),
        ),
        comparison=Comparison.LE, bound=CAP,
        tables=tuple(f"tasks_{platform}" for platform in PLATFORMS),
    )
    sharded.register_cross_shard_constraint(cap, TokenVerifier(cap))
    decisions = []
    totals = {}
    for index, (week, worker, platform, hours) in enumerate(stream):
        clock.advance_to(max(clock.now(), week * WEEK_SECONDS))
        result = sharded.submit(Update(
            table=f"tasks_{platform}", operation=UpdateOperation.INSERT,
            payload={"task_id": f"t{index}", "worker": worker,
                     "hours": hours, "completed_at": clock.now()},
            producers=[worker], managers=[platform],
        ))
        decisions.append(result.applied)
        if result.applied:
            totals[(worker, week)] = totals.get((worker, week), 0) + hours
    sharded.close()
    return decisions, totals


@pytest.mark.parametrize("seed", [3, 11])
def test_separ_and_sharded_token_configuration_match_the_oracle(seed):
    stream = crowdworking_stream(seed)
    expected, expected_totals = oracle(stream)
    assert 0 < sum(expected) < len(expected)  # the cap bites
    assert run_separ(stream) == (expected, expected_totals)
    assert run_sharded(stream) == (expected, expected_totals)
