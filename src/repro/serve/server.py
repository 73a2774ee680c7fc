"""The asyncio serving front door: sessions, admission, dispatch.

:class:`PReVerServer` wraps one framework (a
:class:`~repro.core.framework.PReVer` or
:class:`~repro.core.sharded.ShardedPReVer`) in the wire protocol of
:mod:`repro.serve.protocol`:

* **Connections** speak length-prefixed frames; every framing violation
  (torn, oversized, garbage) fails closed — an ERROR frame when the
  stream is still coherent enough to carry one, then the connection
  drops.
* **Sessions** authenticate per producer with a HELLO → challenge →
  AUTH handshake over the producer's existing Schnorr key; with
  ``require_auth`` (the default) no update is accepted from an
  unauthenticated session.  An optional ``producers`` allowlist pins
  each producer name to its registered public key.
* **Admission** is bounded: requests that would push the ingress queue
  past ``queue_limit`` pending updates get an explicit RETRY response —
  never an unbounded queue, never a silent drop.
* **Batching** delegates to
  :class:`~repro.serve.scheduler.BatchingScheduler`, which coalesces
  concurrent requests into ``submit_many`` runs
  on one pipeline thread, in admission order — so the served decision
  stream and anchored roots are identical to the in-process path.
* **Shutdown** (:meth:`PReVerServer.stop`) is a drain, not an abort:
  the listener closes, late submits answer SHUTTING_DOWN, every
  admitted batch completes and its responses flush before connections
  close.

``server.*`` counters/timers/gauges land on the framework's own
metrics registry, so the existing ops endpoint
(:mod:`repro.obs.server`) exposes the serving tier with zero new
wiring.  For non-async callers, :class:`ServerThread` runs the whole
event loop on a daemon thread (``PReVer.serve()`` returns one).
"""

import asyncio
import secrets
import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.crypto.group import SchnorrGroup
from repro.crypto.signatures import cached_verifier
from repro.serve import protocol
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameError,
    MessageError,
    ServeError,
    auth_bytes,
    error_body,
    make_message,
)
from repro.serve.scheduler import BatchingScheduler, ServeSchedulerStopped


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one serving instance.

    ``batch_window`` / ``max_batch`` bound the coalescing window (and,
    with WAL durability, the group-commit window); ``queue_limit``
    bounds admitted-but-unfinished updates (the RETRY threshold);
    ``producers`` optionally pins producer names to their Schnorr
    public keys; ``require_auth=False`` downgrades to an open endpoint
    (benchmark rigs only — the default refuses unauthenticated
    submits).
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window: float = 0.005
    max_batch: int = 256
    queue_limit: int = 1024
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    require_auth: bool = True
    producers: Optional[Dict[str, int]] = None
    retry_after_ms: int = 25


class Session:
    """Per-connection authentication state and counters."""

    __slots__ = ("session_id", "producer", "public_key", "challenge",
                 "authenticated", "submitted")

    def __init__(self):
        self.session_id = secrets.token_hex(8)
        self.producer: Optional[str] = None
        self.public_key: Optional[int] = None
        self.challenge: Optional[str] = None
        self.authenticated = False
        self.submitted = 0


class PReVerServer:
    """One framework behind the wire protocol; asyncio-native.

    Use ``await server.start()`` inside a running loop (tests, the
    bench, the demo) or :class:`ServerThread` / ``PReVer.serve()``
    from synchronous code.
    """

    def __init__(self, target, config: Optional[ServeConfig] = None,
                 **overrides):
        self.target = target
        self.config = replace(config or ServeConfig(), **overrides)
        self.metrics = target.metrics
        self.tracer = getattr(target, "tracer", None)
        self.scheduler = BatchingScheduler(
            target,
            batch_window=self.config.batch_window,
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._conn_tasks: set = set()
        self._response_tasks: set = set()
        self._ctr_connections = self.metrics.counter("server.connections")
        self._ctr_sessions = self.metrics.counter("server.sessions")
        self._ctr_auth_failures = self.metrics.counter(
            "server.auth_failures")
        self._ctr_requests = self.metrics.counter("server.requests")
        self._ctr_updates = self.metrics.counter("server.updates")
        self._ctr_retries = self.metrics.counter("server.retries")
        self._ctr_errors = self.metrics.counter("server.errors")
        self._ctr_frame_errors = self.metrics.counter("server.frame_errors")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "PReVerServer":
        """Bind the listener and start the batching scheduler."""
        if self._server is not None:
            return self
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        sockets = self._server.sockets
        return sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Graceful drain: stop admitting, finish everything admitted.

        Ordering: close the listener (no new connections), mark
        draining (new SUBMITs answer SHUTTING_DOWN), drain the
        scheduler (every admitted batch runs and its responses are
        written), then close the remaining connections and the
        pipeline thread.
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._draining = True
        await self.scheduler.drain()
        if self._response_tasks:  # flush every in-flight response write
            await asyncio.gather(*list(self._response_tasks),
                                 return_exceptions=True)
        await self.scheduler.stop()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Reader loop for one connection; every exit closes it."""
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._ctr_connections.add()
        session = Session()
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    message = await protocol.read_frame(
                        reader, self.config.max_frame_bytes)
                except (FrameError, MessageError) as exc:
                    # Fail closed: a torn/oversized/garbage frame or a
                    # broken envelope (wrong version, bad keys) gets one
                    # best-effort ERROR — the stream may already be
                    # gone — and then the link drops.
                    self._ctr_frame_errors.add()
                    await self._send(
                        writer, write_lock,
                        make_message("ERROR", 0,
                                     error_body(exc.symbol, str(exc))))
                    break
                if message is None:  # clean EOF
                    break
                close = await self._dispatch(session, message, writer,
                                             write_lock)
                if close:
                    break  # failed handshake: the connection is done
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _send(self, writer, write_lock, message) -> None:
        """Write one response frame (serialized per connection)."""
        try:
            async with write_lock:
                writer.write(protocol.encode_frame(message))
                await writer.drain()
        except ConnectionError:
            pass  # peer went away; its results are still anchored

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, session: Session, message: dict,
                        writer, write_lock) -> bool:
        """Route one validated message; returns True to drop the link."""
        msg_type = message["type"]
        msg_id = message["id"]
        body = message["body"]
        self._ctr_requests.add()
        close = False
        try:
            if msg_type == "HELLO":
                response = self._handle_hello(session, body)
            elif msg_type == "AUTH":
                response = self._handle_auth(session, body)
            elif msg_type in ("SUBMIT", "SUBMIT_MANY"):
                await self._handle_submit(session, msg_type, msg_id, body,
                                          writer, write_lock)
                return False
            else:  # a response type sent by a confused client
                raise MessageError(
                    "BAD_MESSAGE",
                    f"{msg_type} is a response type; clients send "
                    f"{list(protocol.REQUEST_TYPES)}")
        except MessageError as exc:
            self._ctr_errors.add()
            if exc.symbol == "AUTH_FAILED":
                self._ctr_auth_failures.add()
                close = True  # a failed handshake forfeits the connection
            response = make_message("ERROR", msg_id,
                                    error_body(exc.symbol, str(exc)))
        except Exception as exc:  # surface, never kill the reader loop
            self._ctr_errors.add()
            response = make_message(
                "ERROR", msg_id, error_body("INTERNAL", repr(exc)))
        else:
            response = make_message("RESULT", msg_id, response)
        await self._send(writer, write_lock, response)
        return close

    def _handle_hello(self, session: Session, body: dict) -> dict:
        """HELLO: version/identity checks, then issue the challenge."""
        if body.get("version") != protocol.PROTOCOL_VERSION:
            raise MessageError(
                "UNSUPPORTED_VERSION",
                f"client protocol version {body.get('version')!r}; "
                f"server speaks {protocol.PROTOCOL_VERSION}")
        producer = body.get("producer")
        public_key = body.get("public_key")
        if not isinstance(producer, str) or not producer:
            raise MessageError("BAD_MESSAGE",
                               "HELLO needs a non-empty producer name")
        if not isinstance(public_key, int) or isinstance(public_key, bool):
            raise MessageError("BAD_MESSAGE",
                               "HELLO needs an integer public_key")
        allowed = self.config.producers
        if allowed is not None and allowed.get(producer) != public_key:
            raise MessageError(
                "AUTH_FAILED",
                f"producer {producer!r} is not registered with that key")
        session.producer = producer
        session.public_key = public_key
        session.challenge = secrets.token_hex(16)
        session.authenticated = False
        return {
            "challenge": session.challenge,
            "protocol": protocol.PROTOCOL_VERSION,
            "server": "prever-serve/1",
            "session": session.session_id,
        }

    def _handle_auth(self, session: Session, body: dict) -> dict:
        """AUTH: verify the Schnorr signature over the challenge."""
        if session.challenge is None or session.producer is None:
            raise MessageError("BAD_MESSAGE", "AUTH before HELLO")
        signature = protocol.signature_from_wire(body.get("signature"))
        if signature is None:
            raise MessageError("BAD_MESSAGE", "AUTH needs a signature")
        verifier = cached_verifier(SchnorrGroup.default(),
                                   session.public_key)
        signed = auth_bytes(session.producer, session.challenge)
        challenge, session.challenge = session.challenge, None
        if not verifier.verify(signed, signature):
            session.producer = None
            raise MessageError(
                "AUTH_FAILED",
                f"challenge {challenge[:8]}… signature did not verify")
        session.authenticated = True
        self._ctr_sessions.add()
        self.metrics.counter(
            f"server.producer.{session.producer}.sessions").add()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event("server.session",
                              producer=session.producer,
                              session=session.session_id)
        return {"authenticated": True, "session": session.session_id}

    async def _handle_submit(self, session: Session, msg_type: str,
                             msg_id: int, body: dict,
                             writer, write_lock) -> None:
        """SUBMIT / SUBMIT_MANY: admit, await the batch, respond."""
        if self.config.require_auth and not session.authenticated:
            raise MessageError(
                "AUTH_REQUIRED",
                "submit on an unauthenticated session (HELLO/AUTH first)")
        if msg_type == "SUBMIT":
            docs = [body.get("update")]
        else:
            docs = body.get("updates")
            if not isinstance(docs, list) or not docs:
                raise MessageError(
                    "BAD_MESSAGE",
                    "SUBMIT_MANY needs a non-empty updates array")
        updates = [protocol.update_from_wire(doc) for doc in docs]
        if self._draining:
            raise MessageError("SHUTTING_DOWN",
                               "server is draining; resubmit elsewhere")
        try:
            future = self.scheduler.try_submit(updates)
        except ServeSchedulerStopped:
            raise MessageError("SHUTTING_DOWN",
                               "server is draining; resubmit elsewhere")
        if future is None:
            self._ctr_retries.add()
            await self._send(writer, write_lock, make_message(
                "RETRY", msg_id, {
                    "queue_depth": self.scheduler.pending_updates,
                    "retry_after_ms": self.config.retry_after_ms,
                }))
            return
        self._ctr_updates.add(len(updates))
        session.submitted += len(updates)
        if session.producer is not None:
            self.metrics.counter(
                f"server.producer.{session.producer}.updates"
            ).add(len(updates))
        # Respond from a separate task: the reader loop keeps pulling
        # frames while the batch runs, which is what lets one
        # connection pipeline requests (and what the coalescing window
        # feeds on).
        task = asyncio.get_running_loop().create_task(
            self._respond_when_done(future, msg_type, msg_id, writer,
                                    write_lock))
        self._response_tasks.add(task)
        task.add_done_callback(self._response_tasks.discard)

    async def _respond_when_done(self, future, msg_type: str, msg_id: int,
                                 writer, write_lock) -> None:
        """Await one admitted request's batch and write its response."""
        try:
            results = await future
        except Exception as exc:
            self._ctr_errors.add()
            await self._send(writer, write_lock, make_message(
                "ERROR", msg_id, error_body("INTERNAL", repr(exc))))
            return
        wire = [protocol.result_to_wire(result) for result in results]
        if msg_type == "SUBMIT":
            response_body = {"result": wire[0]}
        else:
            response_body = {"results": wire}
        await self._send(writer, write_lock,
                         make_message("RESULT", msg_id, response_body))


class ServerThread:
    """A :class:`PReVerServer` on its own daemon thread and event loop.

    The synchronous front door: ``PReVer.serve()`` builds one so
    notebooks, WSGI apps, and the ops runbook's one-liner can serve
    without owning an asyncio loop.  :meth:`close` performs the same
    graceful drain as :meth:`PReVerServer.stop`.
    """

    def __init__(self, target, config: Optional[ServeConfig] = None,
                 **overrides):
        self._target = target
        self._config = config
        self._overrides = overrides
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=self._run, name="prever-serve", daemon=True)

    def start(self) -> "ServerThread":
        """Start serving; blocks until the listener is bound."""
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise ServeError(
                f"serving tier failed to start: {self._startup_error!r}"
            ) from self._startup_error
        return self

    def url(self) -> str:
        """``host:port`` string of the bound listener."""
        host, port = self.address
        return f"{host}:{port}"

    def close(self) -> None:
        """Drain and stop the server, then join the thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start() if not self._thread.is_alive() else self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _run(self) -> None:
        """Thread body: one event loop running the server until closed."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        server = PReVerServer(self._target, self._config, **self._overrides)
        try:
            await server.start()
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self.address = server.address
        self._ready.set()
        await self._stop_event.wait()
        await server.stop()
