"""Print the medians table of a ``run.py suite`` result as markdown.

    python3 benchmarks/render_e2e.py [RESULT.json]

Reads ``BENCH_e2e.json`` at the repo root by default and
``BENCHMARK.json`` for the metric order and units; writes only to
stdout.  EXPERIMENTS.md carries this output verbatim between its
``BENCH_e2e`` markers (``tests/test_docs.py`` holds the two equal).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cell(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def render(result: dict, spec: dict) -> str:
    """Provenance line, one row per workload x end-to-end metric median,
    then each workload's own gated metrics."""
    host = result["host"]
    workloads = result["workloads"]
    attempted = sum(w["attempted"] for w in workloads.values())
    failed = sum(w["failed"] for w in workloads.values())
    metrics = spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"] if w["name"] in workloads]
    lines = [
        f"`run.py suite --seed {result['seed']} --repeats "
        f"{result['repeats']}` ({result['seconds']:g} s per run) on commit "
        f"`{result['git_commit'][:7]}`; host: {host['nproc']} CPUs, "
        f"{host['cpu_model']}, Python {host['python']}, math backend "
        f"`{host['math_backend']}`, fsync on {host['fsync_filesystem']}; "
        f"failed/attempted {failed}/{attempted}.",
        "",
        "| workload | " + " | ".join(
            f"`{m['name']}` ({m['unit']})" for m in metrics) + " |",
        "|---|" + "---|" * len(metrics),
    ]
    for name in names:
        median = workloads[name]["median"]
        lines.append(f"| `{name}` | " + " | ".join(
            _cell(median[m["name"]]) for m in metrics) + " |")
    gated = {m["name"] for m in metrics}
    own = [f"`{name}` `{key}` {_cell(value)}"
           for name in names
           for key, value in sorted(workloads[name]["median"].items())
           if key not in gated]
    lines += ["", "Medians of the workloads' own gated metrics: "
              + "; ".join(own) + "."]
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    path = argv[0] if argv else os.path.join(ROOT, "BENCH_e2e.json")
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.stdout.write(render(result, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
