"""The serving tier: network ingress for the PReVer pipeline.

The in-process API (:meth:`repro.core.framework.PReVer.submit_many`)
assumes the caller already holds a batch.  Real deployments don't:
updates arrive one or a few at a time from many concurrent producers.
This package bridges that gap with a small asyncio serving stack:

- :mod:`repro.serve.protocol` — the length-prefixed framed wire
  protocol (normative spec in ``docs/PROTOCOL.md``), codec-tagged so a
  binary codec can slot in beside canonical JSON later;
- :mod:`repro.serve.server` — :class:`PReVerServer` (asyncio) and
  :class:`ServerThread` (runs a server+loop on a background thread for
  sync callers), with challenge–response Schnorr session auth, bounded
  ingress queues, and explicit RETRY backpressure;
- :mod:`repro.serve.scheduler` — :class:`BatchingScheduler`, which
  coalesces concurrent requests within a time/size window into
  ``submit_many`` calls so the staged pipeline and the WAL group
  commit see real batches;
- :mod:`repro.serve.client` — :class:`ServeClient`, the async SDK with
  connection reuse and pipelined request correlation.

Everything here is transport: the served decision stream and anchored
roots are byte-identical to calling ``submit_many`` in-process on the
same total update order
(``tests/test_serve_server.py::test_served_equals_in_process_*``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import (
        ConnectionClosed,
        RequestError,
        ServeClient,
        ServerBusy,
    )
    from repro.serve.protocol import (
        ERROR_CODES,
        PROTOCOL_VERSION,
        FrameError,
        MessageError,
        ServeError,
        ServeResult,
    )
    from repro.serve.scheduler import BatchingScheduler, ServeSchedulerStopped
    from repro.serve.server import PReVerServer, ServeConfig, ServerThread

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.client": (
        "ConnectionClosed", "RequestError", "ServeClient", "ServerBusy",
    ),
    "repro.serve.protocol": (
        "ERROR_CODES", "PROTOCOL_VERSION", "FrameError", "MessageError",
        "ServeError", "ServeResult",
    ),
    "repro.serve.scheduler": ("BatchingScheduler", "ServeSchedulerStopped"),
    "repro.serve.server": ("PReVerServer", "ServeConfig", "ServerThread"),
})

__all__ = [
    "BatchingScheduler",
    "ConnectionClosed",
    "ERROR_CODES",
    "FrameError",
    "MessageError",
    "PROTOCOL_VERSION",
    "PReVerServer",
    "RequestError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServeSchedulerStopped",
    "ServerBusy",
    "ServerThread",
]
