"""The opt-in sampling profiler and its pipeline integration.

Pinned here: wall/cpu sampling produce collapsed stacks with
``stage:`` prefixes, the env gate builds (or withholds) the profiler,
a profiled framework run attributes samples to pipeline stages, and —
the invariant everything else rides on — default-off runs keep the
golden ledger roots and WAL bytes byte-identical.
"""

import threading
import time

import pytest

from repro.common.errors import PReVerError
from repro.durability import Durability, SimulatedCrash
from repro.obs.profiler import SamplingProfiler, profiler_from_env

from repro.core.framework import PReVer

from tests.test_pipeline_stages import (
    GOLDEN,
    build_plaintext,
    golden_stream,
    make_db,
    pinned_constraints,
    wal_sha256,
)


# -- construction & env gating ---------------------------------------------


def test_bad_mode_and_interval_rejected():
    with pytest.raises(PReVerError):
        SamplingProfiler(mode="flame")
    with pytest.raises(PReVerError):
        SamplingProfiler(interval=0.0)


def test_profiler_from_env_gates_on_variable():
    assert profiler_from_env({}) is None
    assert profiler_from_env({"REPRO_PROFILE": ""}) is None
    profiler = profiler_from_env({"REPRO_PROFILE": "wall"})
    assert profiler.mode == "wall" and profiler.interval == 0.005
    profiler = profiler_from_env(
        {"REPRO_PROFILE": "CPU", "REPRO_PROFILE_INTERVAL": "0.01"}
    )
    assert profiler.mode == "cpu" and profiler.interval == 0.01


def test_start_stop_idempotent():
    profiler = SamplingProfiler(interval=0.001)
    assert profiler.start() is profiler
    assert profiler.running
    profiler.start()  # no second thread
    profiler.stop()
    profiler.stop()
    assert not profiler.running


# -- sampling ---------------------------------------------------------------


def spin(profiler, seconds):
    deadline = time.perf_counter() + seconds
    with profiler.stage("verify"):
        while time.perf_counter() < deadline:
            sum(i * i for i in range(500))


def test_wall_mode_samples_staged_threads():
    profiler = SamplingProfiler(mode="wall", interval=0.001).start()
    worker = threading.Thread(target=spin, args=(profiler, 0.3))
    worker.start()
    worker.join()
    profiler.stop()
    assert profiler.sample_count > 0
    collapsed = profiler.collapsed()
    assert collapsed.endswith("\n")
    lines = collapsed.splitlines()
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)
    assert any(line.startswith("stage:verify;") for line in lines)
    report = profiler.stage_report()
    assert report["verify"]["samples_self"] > 0
    assert report["verify"]["cum_seconds"] == pytest.approx(
        report["verify"]["samples_cum"] * profiler.interval
    )


def test_wall_mode_ignores_unstaged_threads():
    profiler = SamplingProfiler(mode="wall", interval=0.001).start()
    time.sleep(0.05)  # nothing staged anywhere -> nothing sampled
    profiler.stop()
    assert profiler.sample_count == 0
    assert profiler.collapsed() == ""


def test_nested_stages_credit_self_and_cumulative():
    profiler = SamplingProfiler(mode="wall", interval=0.001).start()

    def nested():
        with profiler.stage("outer"):
            deadline = time.perf_counter() + 0.25
            with profiler.stage("inner"):
                while time.perf_counter() < deadline:
                    sum(i * i for i in range(500))

    worker = threading.Thread(target=nested)
    worker.start()
    worker.join()
    profiler.stop()
    report = profiler.stage_report()
    assert report["inner"]["samples_self"] > 0
    # Outer accrues cumulative but (almost) no self samples.
    assert report["outer"]["samples_cum"] >= report["inner"]["samples_cum"]
    assert any(key.startswith("stage:outer;stage:inner;")
               for key in profiler.collapsed().splitlines())


def test_cpu_mode_samples_main_thread():
    profiler = SamplingProfiler(mode="cpu", interval=0.001).start()
    spin(profiler, 0.3)
    profiler.stop()
    assert profiler.sample_count > 0
    assert any(line.startswith("stage:verify;")
               for line in profiler.collapsed().splitlines())


def test_write_collapsed(tmp_path):
    profiler = SamplingProfiler(mode="wall", interval=0.001).start()
    spin_thread = threading.Thread(target=spin, args=(profiler, 0.2))
    spin_thread.start()
    spin_thread.join()
    profiler.stop()
    path = tmp_path / "profile.collapsed"
    stacks = profiler.write_collapsed(str(path))
    assert stacks == len(path.read_text().splitlines())


# -- pipeline integration ---------------------------------------------------


def test_profiled_framework_attributes_stage_samples(tmp_path):
    profiler = SamplingProfiler(mode="wall", interval=0.0005)
    framework = build_plaintext(
        durability=Durability.wal(str(tmp_path))
    )
    # Attach post-hoc exactly as the ctor path does, with a fast
    # interval so the short golden stream still collects samples.
    framework.profiler = profiler
    profiler.start()
    for _ in range(40):
        framework.submit_many(golden_stream()[:8])
    framework.close()
    assert not profiler.running  # close() stops the sampler
    report = profiler.stage_report()
    # The exact stages sampled depend on timing; whatever was sampled
    # must be a known pipeline stage, and something must be sampled.
    known = {"authenticate", "route", "verify", "durability", "apply",
             "anchor_batch", "auth_batch", "prepare_batch"}
    assert report, "profiled run collected no stage samples"
    assert set(report) <= known


def test_stage_stack_is_unwound_when_a_stage_raises(tmp_path):
    """The driver pushes stage names without a try/finally per stage;
    its single unwind must still leave the thread unstaged, or the
    wall sampler would keep charging this thread to ``apply``."""
    profiler = SamplingProfiler(mode="wall", interval=0.001)
    framework = build_plaintext(
        durability=Durability.wal(str(tmp_path)).with_crash_after("apply")
    )
    framework.profiler = profiler
    with pytest.raises(SimulatedCrash):
        framework.submit_many(golden_stream()[:8])
    assert profiler.thread_stack() == []


def test_profiled_run_keeps_golden_roots(tmp_path):
    """Profiling must observe, never perturb: same decisions, roots,
    and WAL bytes as the unprofiled golden run."""
    profiler = SamplingProfiler(mode="wall", interval=0.001)
    framework = PReVer(
        [make_db()], durability=Durability.wal(str(tmp_path)),
        profiler=profiler,
    )
    for constraint in pinned_constraints():
        framework.register_constraint(constraint)
    assert framework.profiler is profiler and profiler.running
    stream = golden_stream()
    framework.submit_many(stream[:8])
    framework.submit_many(stream[8:])
    framework.close()
    golden = GOLDEN[("plaintext", "batched")]
    assert framework.ledger.digest().root.hex() == golden["root"]
    assert wal_sha256(str(tmp_path)) == golden["wal_sha256"]


def test_default_off_framework_has_no_profiler(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    framework = build_plaintext()
    assert framework.profiler is None
