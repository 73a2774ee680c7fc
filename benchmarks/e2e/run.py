"""The repo benchmark: one command, four workloads, checked outputs.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload for ``S`` measured seconds, checks every output, prints
one ``workload metric value unit`` line per metric and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps
each layer's public callables (see ``trace.py``) and reports the
per-layer metrics instead.  Other entry points:

    run.py suite --out DIR [--seed N] [--repeats R] [--workload NAME ...]
    run.py compare A/result.json B/result.json
    run.py waterfall DIR
    run.py selftest

See README.md in this directory for what every name means.
"""

import time

_T0 = time.perf_counter()   # set-up time is counted from here

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SCHEMA_VERSION = 1
SETUP_REPEATS = 5     # set-ups per run; setup_s is their median
SMOKE_SECONDS = 2.0

#: End-to-end values only one workload has.  BENCHMARK.json's end_to_end
#: list is one metric set that every workload prints, so these cannot be
#: in it; untraced runs report them all the same and ``compare`` gates
#: them with the bounds below.
OWN_METRICS = {
    "serve_durable": [
        {"name": "recover_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "served_p99_ms", "unit": "ms", "better": "lower",
         "bound": 0.15},
    ],
    "replicated_paxos": [
        {"name": "catchup_ups", "unit": "1/s", "better": "higher",
         "bound": 0.15},
        {"name": "commit_sim_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.01},
    ],
}


class Refused(Exception):
    """The environment cannot give a comparable measurement."""


class _SetupDone(Exception):
    """Raised from ``ready()`` to end a set-up-only process."""


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_environment() -> None:
    """Defaults only (serial executor, auto math backend), two CPUs (the
    generator and the served framework must not share one), and the
    program under test present."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        raise Refused(f"unset {', '.join(knobs)}: the benchmark measures "
                      "the defaults")
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        raise Refused(f"{cpus} CPU visible; the load generator and the "
                      "server need one each")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise Refused(f"no program to measure: {SRC}/repro is missing")


def host_fingerprint(directory: str) -> dict:
    from repro.crypto import backend

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    filesystem, best = "unknown", ""
    try:
        target = os.path.realpath(directory)
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                if (target == mount or target.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    filesystem, best = fstype, mount
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "math_backend": backend.backend_name(),
        "fsync_filesystem": filesystem,
    }


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# -- one measured run ---------------------------------------------------------


def _setup_only_children(name: str, seed: int, seconds: float) -> list:
    """Set-up time of fresh processes that stop once set-up is over (the
    same set-up: pre-signing is sized by ``seconds``)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up repeat failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def measure(name: str, seed: int, seconds: float, traced: bool,
            setup_only: bool = False, spans_dir: str = "",
            repeat_setup: bool = True) -> dict:
    """Run one workload in this process; returns the result document."""
    check_environment()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layers
    import trace
    import workloads

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    recorder = trace.Recorder() if traced else None
    setup = []

    def ready():
        setup.append(time.perf_counter() - _T0)
        if setup_only:
            raise _SetupDone()

    try:
        try:
            run = workloads.run_workload(name, seed, seconds, recorder, ready,
                                         workdir, SRC, spans_dir or None)
        except _SetupDone:
            return {"setup_s": setup[0]}
        if repeat_setup:
            setup.extend(_setup_only_children(name, seed, seconds))
        run.e2e["setup_s"] = statistics.median(setup)
        run.detail["setup_samples"] = setup
        if traced:
            server_spans = [trace.read_jsonl(path)
                            for path in run.detail.get("span_files", ())]
            bad = trace.check_nesting(recorder.spans) + sum(
                trace.check_nesting(spans) for spans in server_spans)
            run.checks["spans_nest"] = bad == 0
            run.layers = layers.derive(
                [m["name"] for m in _benchmark_json()["per_layer"]], name,
                run, recorder.spans, recorder.span_cost(), server_spans)
            if spans_dir:
                recorder.dump(os.path.join(spans_dir, f"{name}.spans.jsonl"))
                with open(os.path.join(spans_dir, f"{name}.trace.json"),
                          "w", encoding="utf-8") as handle:
                    json.dump({"windows": run.windows,
                               "nominal_requests":
                                   run.detail.get("nominal_requests", [])},
                              handle)
        return _document(name, seed, seconds, traced, run, workdir)
    finally:
        if recorder is not None:
            recorder.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass   # another run is using it


def _document(name, seed, seconds, traced, run, workdir) -> dict:
    import workloads

    detail = {k: v for k, v in run.detail.items()
              if k not in ("nominal_requests", "waterfall", "span_files")}
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": traced,
        "git_commit": _git_commit(),
        "host": host_fingerprint(workdir),
        "parameters": {
            "phases": workloads.PHASES[name],
            "chunk": workloads.CHUNK.get(name),
            "rates_ups": workloads.RATES, "nominal_ups": workloads.NOMINAL,
            "connections": workloads.CONNECTIONS,
            "in_flight_per_connection": workloads.IN_FLIGHT,
            "warmup_batches": workloads.WARMUP_BATCHES,
            "setup_repeats": SETUP_REPEATS,
        },
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "checks": run.checks,
        "end_to_end": run.e2e, "own": run.own, "per_layer": run.layers,
        "detail": detail,
    }


def report(document: dict, smoke: bool = False) -> dict:
    """Print every metric by name with its unit, then the result line."""
    spec = _benchmark_json()
    name = document["workload"]
    if document["traced"]:
        wanted, values = spec["per_layer"], document["per_layer"]
    else:
        wanted, values = spec["end_to_end"], document["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name} {metric['name']} {value:.6g} {metric['unit']}")
    if not document["traced"]:   # gated by ``compare``, not by the driver
        for metric in OWN_METRICS.get(name, ()):
            print(f"{name} {metric['name']} "
                  f"{document['own'][metric['name']]:.6g} {metric['unit']}")
    for check, ok in sorted(document["checks"].items()):
        if not ok:
            print(f"{name} CHECK FAILED: {check}", file=sys.stderr)
    if smoke:
        print("SMOKE — not comparable")
    line = {"correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}
    print(json.dumps(line))
    return line


# -- suite / compare / waterfall / selftest -----------------------------------


def _child_run(name, seed, seconds, traced, out, spans_dir="") -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if traced else "0", "--out", out]
    if spans_dir:
        command += ["--spans-dir", spans_dir]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def suite(args) -> int:
    """Each workload ``--repeats`` times untraced, then once traced; one
    schema-versioned result file that ``compare`` reads."""
    import stats

    spec = _benchmark_json()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    result = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
              "seconds": seconds, "repeats": args.repeats, "workloads": {}}
    scratch = os.path.join(args.out, "run.json")
    for name in names:
        runs = [_child_run(name, args.seed, seconds, False, scratch)
                for _ in range(args.repeats)]
        traced = _child_run(name, args.seed, seconds, True, scratch,
                            spans_dir=args.out)
        gated = [dict(r["end_to_end"], **r["own"]) for r in runs]
        values = {key: [run[key] for run in gated] for key in gated[0]}
        untraced_ups = statistics.median(values["throughput_ups"])
        entry = {
            "runs": gated,
            "median": {k: statistics.median(v) for k, v in values.items()},
            "spread": {k: stats.spread(v) for k, v in values.items()},
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "correct": all(r["correct"] for r in runs + [traced]),
            "per_layer": traced["per_layer"],
            "trace_overhead_measured": 1.0 - (
                traced["end_to_end"]["throughput_ups"] / untraced_ups),
            "parameters": runs[0]["parameters"],
            "detail": runs[-1]["detail"],
        }
        result["workloads"][name] = entry
        result["host"] = runs[0]["host"]
        result["git_commit"] = runs[0]["git_commit"]
        for metric, median in entry["median"].items():
            print(f"{name} {metric} {median:.6g} "
                  f"(spread {entry['spread'][metric]:.3f})")
    os.remove(scratch)
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"wrote {os.path.join(args.out, 'result.json')}")
    return 0 if all(w["correct"] for w in result["workloads"].values()) else 1


def compare_results(a: dict, b: dict, spec: dict) -> list:
    """One row per workload x end-to-end metric (BENCHMARK.json's and the
    workload's ``OWN_METRICS``): ``B`` against ``A``.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: either side's own spread exceeds the bound, so the
    medians cannot carry a verdict — unless every run of B reads better,
    or every run reads worse, than every run of A.  The ``failed_share``
    row compares failed operations (wrong outcomes and failed checks) over
    attempted ones.
    """
    rows = []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"] + OWN_METRICS.get(name, []):
            key, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            ma, mb = wa["median"][key], wb["median"][key]
            worse = ((mb - ma) if lower else (ma - mb)) / ma
            spread = max(wa["spread"][key], wb["spread"][key])
            runs_a = [run[key] for run in wa["runs"]]
            runs_b = [run[key] for run in wb["runs"]]
            apart = min(runs_b) > max(runs_a) or max(runs_b) < min(runs_a)
            if spread > bound and not apart:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({"workload": name, "metric": key, "a": ma, "b": mb,
                         "worse_by": worse, "spread": spread, "bound": bound,
                         "verdict": verdict})
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        # Every workload is chosen so that nothing fails: any increase,
        # be it one failed check among 30,000 operations, is a regression.
        rows.append({"workload": name, "metric": "failed_share", "a": share_a,
                     "b": share_b, "worse_by": share_b - share_a,
                     "spread": 0.0, "bound": 0.0,
                     "verdict": "regressed" if share_b > share_a else "ok"})
    return rows


def compare(args) -> int:
    with open(args.a, encoding="utf-8") as fa, \
            open(args.b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    if a["schema_version"] != b["schema_version"]:
        raise SystemExit("result files have different schema versions")
    rows = compare_results(a, b, _benchmark_json())
    print(f"{'workload':<18}{'metric':<20}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<18}{r['metric']:<20}{r['a']:>12.5g}"
              f"{r['b']:>12.5g}{r['worse_by']:>10.3f}{r['spread']:>8.3f}"
              f"{r['bound']:>7.3f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def waterfall(args) -> int:
    """Per-layer self time for each traced workload in ``DIR`` and the
    joined client/server request waterfall of serve_durable."""
    sys.path.insert(0, HERE)
    import layers
    import trace

    found = False
    for entry in sorted(os.listdir(args.dir)):
        if not entry.endswith(".trace.json"):
            continue
        found = True
        name = entry[:-len(".trace.json")]
        with open(os.path.join(args.dir, entry), encoding="utf-8") as handle:
            meta = json.load(handle)
        spans = trace.read_jsonl(os.path.join(args.dir,
                                              f"{name}.spans.jsonl"))
        servers = [trace.read_jsonl(os.path.join(
            args.dir, f"{name}.server{i}.spans.jsonl")) for i in (0, 1)] \
            if name == "serve_durable" else []
        for group in [spans] + servers:
            if trace.check_nesting(group):
                raise SystemExit(f"{name}: spans do not nest")
        if name == "serve_durable":
            print(f"== {name}: server spans, closed-loop phase")
            layers.print_layers(servers[1], meta["windows"]["closed"])
            print(f"== {name}: request waterfall, nominal rung "
                  "(parts sum to the measured latency)")
            layers.print_waterfall(layers.join_waterfall(
                meta["nominal_requests"], spans, servers[0]))
        else:
            print(f"== {name}: write window")
            layers.print_layers(spans, meta["windows"]["write"])
    if not found:
        raise SystemExit(f"no *.trace.json in {args.dir}; run the suite or "
                         "a traced run with --spans-dir first")
    return 0


def selftest(_args) -> int:
    check_environment()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import test_harness

    failed = 0
    for name in sorted(dir(test_harness)):
        if not name.startswith("test_"):
            continue
        try:
            getattr(test_harness, name)()
            print(f"PASS {name}")
        except Exception as exc:   # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    commands = {"suite": suite, "compare": compare, "waterfall": waterfall,
                "selftest": selftest}
    if argv and argv[0] in commands:
        parser = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "suite":
            parser.add_argument("--out", required=True)
            parser.add_argument("--seed", type=int, default=1)
            parser.add_argument("--seconds", type=float, default=0.0)
            parser.add_argument("--repeats", type=int, default=5)
            parser.add_argument("--workload", action="append")
        elif argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
        elif argv[0] == "waterfall":
            parser.add_argument("dir")
        return commands[argv[0]](parser.parse_args(argv[1:]))

    spec = _benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="",
                        help="also write the full result document here")
    parser.add_argument("--spans-dir", default="",
                        help="keep the traced run's span files here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    document = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), setup_only=args.setup_only,
                       spans_dir=args.spans_dir)
    if args.setup_only:
        print(json.dumps(document))
        return 0
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    report(document)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        sys.exit(2)
