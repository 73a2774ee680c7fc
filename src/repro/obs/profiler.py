"""Opt-in per-stage sampling profiler with collapsed-stack output.

``REPRO_PROFILE=wall`` samples every thread currently inside a
profiled pipeline stage from a background thread at a fixed wall-clock
interval; ``REPRO_PROFILE=cpu`` samples the main thread on CPU time
via ``signal.setitimer(ITIMER_PROF)`` (so time blocked in ``fsync``
does not accrue).  Either way a sample is the thread's current stage
stack (pushed by the batch driver in ``core/pipeline.py``, or by a
:meth:`SamplingProfiler.stage` context manager anywhere else)
prefixed onto its Python call stack, aggregated into
flamegraph-compatible collapsed form::

    stage:verify;framework.py:submit_many;paillier.py:encrypt 42

Overhead design: only threads with a non-empty stage stack are ever
walked, sample aggregation is a dict bump under the GIL, and the
pipeline's stage markers are a list append/pop per stage — onto a
list nobody samples when the profiler is absent (the default), so one
driver serves both and roots never move.  The benchmark's
profiler-overhead row gates the enabled-path cost at <= 5%.
"""

import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import PReVerError

_ENV_PROFILE = "REPRO_PROFILE"
_ENV_INTERVAL = "REPRO_PROFILE_INTERVAL"

#: Frames deeper than this are truncated (flamegraphs stay readable and
#: sample keys stay cheap to hash).
_MAX_DEPTH = 64

_MODES = ("wall", "cpu")


def _frame_label(frame) -> str:
    """``<file basename>:<function>`` — one collapsed-stack element."""
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


def _walk_stack(frame) -> List[str]:
    """Root-first labels for a frame chain, depth-capped."""
    labels: List[str] = []
    while frame is not None and len(labels) < _MAX_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return labels


class _StageContext:
    """Reusable stage marker: entering pushes the stage name onto the
    calling thread's stack, exiting pops it.

    A plain class (not ``@contextmanager``) because this sits on the
    per-update hot path five times over: the generator machinery alone
    would cost a measurable slice of a plaintext update, and the <=5%
    profiler-overhead gate prices exactly that.  Instances hold no
    per-entry state, so one cached instance per stage name is shared
    by every thread and every (non-recursive) entry.
    """

    __slots__ = ("_stages", "_name")

    def __init__(self, stages: Dict[int, List[str]], name: str):
        self._stages = stages
        self._name = name

    def __enter__(self) -> None:
        ident = threading.get_ident()
        stack = self._stages.get(ident)
        if stack is None:
            stack = self._stages[ident] = []
        stack.append(self._name)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._stages[threading.get_ident()].pop()
        return False


class SamplingProfiler:
    """Per-stage sampling profiler (wall or CPU mode).

    One instance per framework; pass it as ``PReVer(profiler=...)`` or
    let :func:`profiler_from_env` build it from ``REPRO_PROFILE``.
    Samples are only taken while some thread is inside a
    :meth:`stage` context, so an idle profiler costs one sleeping
    thread and nothing else.
    """

    def __init__(self, mode: str = "wall", interval: float = 0.005):
        if mode not in _MODES:
            raise PReVerError(
                f"unknown profiler mode {mode!r}; use 'wall' or 'cpu'"
            )
        if interval <= 0:
            raise PReVerError("profiler interval must be positive")
        self.mode = mode
        self.interval = interval
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._stage_self: Dict[str, int] = {}
        self._stage_cum: Dict[str, int] = {}
        self._stages: Dict[int, List[str]] = {}
        self._stage_ctx: Dict[str, _StageContext] = {}
        self._samples = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._old_handler = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the sampler is active."""
        return self._running

    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent); returns self."""
        if self._running:
            return self
        self._running = True
        if self.mode == "wall":
            self._thread = threading.Thread(
                target=self._sample_loop, name="prever-profiler", daemon=True
            )
            self._thread.start()
        else:
            self._start_cpu()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling (idempotent); collected samples are kept."""
        if not self._running:
            return self
        self._running = False
        if self.mode == "wall":
            thread, self._thread = self._thread, None
            if thread is not None:
                thread.join(timeout=2.0)
        else:
            self._stop_cpu()
        return self

    def _start_cpu(self) -> None:
        import signal

        if threading.current_thread() is not threading.main_thread():
            self._running = False
            raise PReVerError(
                "cpu profiling uses SIGPROF and must start on the main thread"
            )
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sigprof)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def _stop_cpu(self) -> None:
        import signal

        signal.setitimer(signal.ITIMER_PROF, 0.0)
        if self._old_handler is not None:
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None

    # -- stage context -----------------------------------------------------

    def stage(self, name: str) -> _StageContext:
        """Context manager marking the calling thread as inside
        pipeline stage ``name``; nested stages stack (samples credit
        the innermost as self time, every enclosing stage as
        cumulative time)."""
        ctx = self._stage_ctx.get(name)
        if ctx is None:
            ctx = self._stage_ctx[name] = _StageContext(self._stages, name)
        return ctx

    def thread_stack(self) -> List[str]:
        """The calling thread's mutable stage stack (created on first
        use).

        The per-update pipeline hot path pushes/pops stage names on
        this list directly instead of going through :meth:`stage` —
        five stage boundaries per update make even minimal
        context-manager machinery a measurable tax on the plaintext
        engine, and list append/pop are atomic under the GIL, so the
        sampler's cross-thread view stays consistent.
        """
        ident = threading.get_ident()
        stack = self._stages.get(ident)
        if stack is None:
            stack = self._stages[ident] = []
        return stack

    # -- sampling ----------------------------------------------------------

    def _sample_loop(self) -> None:
        me = threading.get_ident()
        while self._running:
            time.sleep(self.interval)
            frames = sys._current_frames()
            for ident, stack in list(self._stages.items()):
                if not stack or ident == me:
                    continue
                frame = frames.get(ident)
                if frame is not None:
                    self._record(tuple(stack), frame)

    def _on_sigprof(self, signum, frame) -> None:
        stack = self._stages.get(threading.get_ident())
        if stack and frame is not None:
            self._record(tuple(stack), frame)

    def _record(self, stages: Tuple[str, ...], frame) -> None:
        key = tuple(f"stage:{s}" for s in stages) + tuple(_walk_stack(frame))
        self._counts[key] = self._counts.get(key, 0) + 1
        self._samples += 1
        for name in set(stages):
            self._stage_cum[name] = self._stage_cum.get(name, 0) + 1
        leaf = stages[-1]
        self._stage_self[leaf] = self._stage_self.get(leaf, 0) + 1

    # -- reporting ---------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Total samples taken so far."""
        return self._samples

    def collapsed(self) -> str:
        """Flamegraph-compatible collapsed stacks: one
        ``frame;frame;... count`` line per distinct stack, sorted."""
        lines = [
            ";".join(key) + f" {count}"
            for key, count in sorted(self._counts.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> int:
        """Write :meth:`collapsed` to ``path``; returns the line count."""
        text = self.collapsed()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(self._counts)

    def stage_report(self) -> dict:
        """Per-stage self/cumulative time estimates.

        Seconds are ``samples * interval`` — the standard sampling
        estimate (wall seconds in wall mode, CPU seconds in cpu mode).
        """
        report = {}
        for name in sorted(self._stage_cum):
            cum = self._stage_cum[name]
            own = self._stage_self.get(name, 0)
            report[name] = {
                "samples_self": own,
                "samples_cum": cum,
                "self_seconds": own * self.interval,
                "cum_seconds": cum * self.interval,
            }
        return report

    def describe(self) -> dict:
        """Identification for artifacts and reports."""
        return {
            "mode": self.mode,
            "interval": self.interval,
            "samples": self._samples,
            "stacks": len(self._counts),
        }


def profiler_from_env(environ=None) -> Optional[SamplingProfiler]:
    """Build a profiler from ``REPRO_PROFILE=wall|cpu`` (None when
    unset — the default, zero-cost configuration).
    ``REPRO_PROFILE_INTERVAL`` overrides the sampling interval in
    seconds."""
    environ = os.environ if environ is None else environ
    mode = environ.get(_ENV_PROFILE, "").strip().lower()
    if not mode:
        return None
    interval_raw = environ.get(_ENV_INTERVAL, "").strip()
    interval = float(interval_raw) if interval_raw else 0.005
    return SamplingProfiler(mode=mode, interval=interval)
