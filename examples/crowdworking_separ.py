#!/usr/bin/env python3
"""Section 5: Separ — multi-platform crowdworking under the FLSA.

Ten workers complete tasks across four competing platforms for three
weeks.  The 40-hour weekly cap is enforced *across* platforms via
blind-signed single-use tokens, although no platform ever learns a
worker's identity or their activity elsewhere.  Each task is one update
through the sharded pipeline: one shard per platform, every shard (and
the coordinator's rejections) ordered on a SharPer-style sharded
permissioned blockchain.

Run:  python examples/crowdworking_separ.py
"""

from repro.apps.crowdworking import CrowdworkingScenario


def main():
    scenario = CrowdworkingScenario(
        platform_names=("uber", "lyft", "grab", "ola"),
        workers=10,
        weekly_hour_cap=40,
        seed=2024,
    )

    print("simulating 3 weeks of greedy task completion "
          "(workers attempt ~42h/week on average)\n")
    for week in range(3):
        summary = scenario.run_week(tasks_per_worker=12, max_task_hours=6)
        top = max(summary.hours_by_worker.values())
        print(f"week {summary.week}: attempted={summary.tasks_attempted}  "
              f"accepted={summary.tasks_accepted}  "
              f"cap-rejections={summary.cap_rejections}  "
              f"max-hours-any-worker={top}")

    print(f"\nno worker ever exceeded 40h in any week: "
          f"{scenario.no_worker_exceeded_cap()}")

    scenario.settle()
    system = scenario.system
    counts = system.blockchain.committed_counts()
    print(f"blockchain shards committed: {counts}")

    # The privacy surface: even colluding platforms learn only
    # per-pseudonym weekly totals.
    view = system.collusion_view(["uber", "lyft", "grab", "ola"])
    print(f"\nfull-collusion view: {len(view['serials'])} unlinkable "
          f"serials, {len(view['pseudonym_counts'])} weekly pseudonyms")
    sample = next(iter(view["pseudonym_counts"]))
    print(f"  sample pseudonym: {sample[:16]}... "
          f"(rotates weekly, unlinkable to worker identity)")

    # Lower-bound regulation at period close (e.g. minimum activity).
    week = system.current_period() - 1
    meets = sum(
        1 for w in scenario.worker_names
        if system.registry.check_lower_bound(
            week, system.workers[w].pseudonym(week), 10
        )
    )
    print(f"\nworkers meeting the >=10h lower-bound regulation "
          f"last week: {meets}/{len(scenario.worker_names)}")


if __name__ == "__main__":
    main()
