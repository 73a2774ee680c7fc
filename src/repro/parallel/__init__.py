"""Pluggable multicore execution for the crypto-heavy pipeline stages.

After the batching work, the verify stage dominates wall time and runs
entirely on one core: every big-int operation (Paillier ``pow``,
Schnorr verification, Merkle SHA-256) is serial under the GIL.  This
package provides the execution layer those stages plug into:

* :class:`SerialExecutor` — the default; runs chunk functions inline
  in the calling process, byte-for-byte the pre-existing behaviour;
* :class:`ParallelExecutor` — fans chunks out to a shared
  ``ProcessPoolExecutor`` and reassembles results in order.

Call sites never branch on the executor type: they hand a *chunk
function* (top-level, pickling-cheap arguments) to
:meth:`~Executor.map_chunks` and get the concatenated results back in
input order, so serial and parallel execution are decision- and
digest-equivalent by construction.

Executor selection is explicit (``PReVer(executor=...)``) or
environment-driven (``REPRO_EXECUTOR={serial,process}``,
``REPRO_WORKERS=N``) so CI can exercise the process-pool path without
code changes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.executors import (
        SERIAL_EXECUTOR,
        Executor,
        ParallelExecutor,
        SerialExecutor,
        executor_from_env,
        make_executor,
        resolve_executor,
        split_chunks,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.parallel.executors": (
        "SERIAL_EXECUTOR", "Executor", "ParallelExecutor", "SerialExecutor",
        "executor_from_env", "make_executor", "resolve_executor",
        "split_chunks",
    ),
})

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "SERIAL_EXECUTOR",
    "executor_from_env",
    "make_executor",
    "resolve_executor",
    "split_chunks",
]
