"""Socket gateway: the network front door of the serving engine.

The :class:`~repro.pipeline.serving.ServingEngine` has priority
scheduling, cancellation, fault tolerance and streaming — but only
in-process callers can reach it.  :class:`GatewayServer` puts a
long-lived asyncio TCP server in front (stdlib only), following the
shape of a long-lived application loop fed by a thin connectivity
layer: the asyncio side does nothing but frame I/O, and one dedicated
**driver thread** owns every engine interaction, so the engine's
single-threaded supervisor loop never races the event loop.

Wire protocol
-------------

Length-prefixed JSON frames: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Requests carry an ``op``;
responses carry a ``type`` plus the client-chosen request ``id`` they
answer.  One connection multiplexes any number of in-flight requests;
the server streams each program's digest the moment it completes
(``digest`` frames, completion order) and closes every request with
exactly one terminal frame — ``result`` (the canonical
fingerprint-stable report), ``failed``, or ``cancelled``.

Admission control and backpressure
----------------------------------

Every connection has a bounded budget of *pending work units*
(:attr:`~repro.pipeline.options.PipelineOptions.gateway_unit_budget`).
A ``submit`` whose planned units would push the connection past its
budget is answered with a structured ``rejected`` frame carrying
``retry_after`` seconds (estimated from the measured per-unit service
time) instead of being queued — so a greedy batch client saturates its
own budget and backs off, while interactive clients on their own
connections keep their admission headroom and the engine's
weighted-fair scheduler keeps their latency bounded.  An *idle*
connection is always admitted, even past the budget, so one request
bigger than the whole budget cannot be starved; the budget bounds
accumulation, not request size.  A client that
disconnects mid-stream has all its jobs cancelled engine-side: queued
units leave the scheduler, in-flight results are dropped on arrival,
nothing leaks.

Determinism is untouched: the gateway transports digests, it never
reorders or merges them — a served report rebuilt from a ``result``
frame is fingerprint-identical to ``detect_corpus(jobs=1)`` with the
same options (the frame embeds the fingerprint, and
:func:`~repro.pipeline.digest.report_from_json` verifies it on
rebuild).

Quickstart::

    from repro.pipeline import GatewayClient, GatewayServer, PipelineOptions

    with GatewayServer(PipelineOptions(jobs=4, granularity="function"),
                       port=0) as server:
        with GatewayClient(port=server.port) as client:
            request = client.submit(keys=[("EP", "NAS")],
                                    priority="interactive")
            report = client.result(request)   # streams, then verifies
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import struct
import threading
import time
from typing import Iterator, Sequence

from .digest import (
    CorpusReport,
    ProgramDigest,
    program_from_json,
    program_to_json,
    report_from_json,
    report_to_json,
)
from .options import PipelineOptions
from .serving import JobCancelled, JobClass, ServingEngine
from .shard import plan_units

Key = tuple[str, str]

#: Frame header: one big-endian u32 payload length.
FRAME_HEADER = struct.Struct(">I")
#: Upper bound on a single frame body — a full-corpus ``result`` frame
#: is ~1 MiB; anything near this limit is a protocol error, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class GatewayError(Exception):
    """Protocol- or connection-level gateway failure."""


class GatewayRejected(GatewayError):
    """A submit was refused by admission control.

    Carries the structured reject frame's backpressure contract:
    ``retry_after`` (seconds the client should wait before retrying),
    ``pending_units`` (the connection's in-flight units at rejection),
    ``requested_units`` and ``budget``.
    """

    def __init__(self, retry_after: float, pending_units: int,
                 requested_units: int, budget: int):
        self.retry_after = retry_after
        self.pending_units = pending_units
        self.requested_units = requested_units
        self.budget = budget
        super().__init__(
            f"rejected: {pending_units} pending + {requested_units} "
            f"requested units exceed the budget of {budget} "
            f"(retry after {retry_after}s)"
        )


class GatewayRequestFailed(GatewayError):
    """The server answered a request with a ``failed`` frame."""


def encode_frame(payload: dict) -> bytes:
    """One wire frame: length header + canonical-form JSON body."""
    body = json.dumps(
        payload, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds the limit")
    return FRAME_HEADER.pack(len(body)) + body


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 16))
        if not chunk:
            raise GatewayError("connection closed by the gateway")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict:
    """Blocking read of one frame from a plain socket (client side)."""
    (length,) = FRAME_HEADER.unpack(_recv_exactly(sock, FRAME_HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise GatewayError(f"oversized frame of {length} bytes")
    try:
        payload = json.loads(_recv_exactly(sock, length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GatewayError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise GatewayError("frame payload is not an object")
    return payload


async def _read_frame_async(reader) -> dict:
    """One frame from an asyncio stream (server side); raises on EOF,
    oversize and malformed JSON alike — any of them ends the
    connection."""
    header = await reader.readexactly(FRAME_HEADER.size)
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"oversized frame of {length} bytes")
    body = await reader.readexactly(length)
    payload = json.loads(body.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("frame payload is not an object")
    return payload


class _Conn:
    """One client connection, as the server sees it.

    ``outbox`` belongs to the event loop (the writer task drains it);
    ``requests`` belongs to the driver thread.  ``closed`` is flipped
    by the driver on disconnect so late sends are dropped instead of
    queued for a writer that is shutting down.
    """

    __slots__ = ("id", "writer", "outbox", "requests", "closed")

    def __init__(self, conn_id: int, writer, outbox):
        self.id = conn_id
        self.writer = writer
        self.outbox = outbox
        self.requests: dict = {}
        self.closed = False


class _ServerRequest:
    """Driver-side state of one accepted submit."""

    __slots__ = ("client_id", "job", "units", "started")

    def __init__(self, client_id: int, job, units: int):
        self.client_id = client_id
        self.job = job
        self.units = units
        self.started = time.monotonic()


class GatewayServer:
    """A long-lived TCP front door over one :class:`ServingEngine`.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  The server is a context manager; :meth:`close`
    drains the driver, shuts the engine down and stops the event loop.
    Admission budget defaults to the options'
    ``gateway_unit_budget``.
    """

    def __init__(self, options: PipelineOptions | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 budget: int | None = None, **kwargs):
        self.options = (
            options if options is not None else PipelineOptions(**kwargs)
        )
        self.host = host
        self.port: int | None = None
        self._requested_port = port
        self.budget = (
            budget if budget is not None
            else self.options.gateway_unit_budget
        )
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        self.engine = ServingEngine(self.options)
        self._commands: "queue.Queue[tuple]" = queue.Queue()
        self._conns: dict[int, _Conn] = {}
        self._conn_ids = itertools.count()
        self._loop = None
        self._stopped = None
        self._loop_thread: threading.Thread | None = None
        self._driver: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        #: EWMA of observed wall seconds per work unit — the basis of
        #: the ``retry_after`` hint in reject frames.
        self._unit_seconds = 0.1
        self._stats = {
            "connections": 0,
            "disconnects": 0,
            "submits": 0,
            "rejections": 0,
            "digests": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "disconnect_cancelled": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "GatewayServer":
        """Bind the socket, spawn workers and the driver (idempotent)."""
        if self._loop_thread is not None:
            return self
        # Workers come up before the first byte is accepted, and on
        # the caller's thread — spawn and feedback-artifact errors
        # surface here, not inside a background loop.  From here on
        # the driver thread is the engine's only caller.
        self.engine.start()
        import asyncio

        ready = threading.Event()

        def run_loop() -> None:
            try:
                asyncio.run(self._main(ready))
            except BaseException as exc:  # pragma: no cover - defensive
                self._startup_error = self._startup_error or exc
            finally:
                ready.set()

        self._loop_thread = threading.Thread(
            target=run_loop, daemon=True, name="gateway-loop"
        )
        self._loop_thread.start()
        ready.wait(timeout=30)
        if self._startup_error is not None or self.port is None:
            error = self._startup_error or GatewayError(
                "gateway event loop failed to start"
            )
            self.engine.shutdown()
            self._loop_thread.join(timeout=5)
            self._loop_thread = None
            raise error
        self._driver = threading.Thread(
            target=self._drive, daemon=True, name="gateway-driver"
        )
        self._driver.start()
        return self

    def close(self) -> None:
        """Stop serving: drain the driver, shut the engine down
        (idempotent)."""
        if self._loop_thread is None:
            return
        if self._driver is not None:
            self._commands.put(("stop",))
            self._driver.join(timeout=60)
            self._driver = None
        self._signal_loop_stop()
        self._loop_thread.join(timeout=10)
        self._loop_thread = None
        if self.engine.running:  # pragma: no cover - driver crash path
            self.engine.shutdown()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability -------------------------------------------------------

    @property
    def stats(self) -> dict:
        """A copy of the lifetime counters (driver-maintained)."""
        return dict(self._stats)

    def active_requests(self) -> int:
        """Accepted submits not yet answered with a terminal frame."""
        return sum(len(conn.requests) for conn in self._conns.values())

    def queued_units(self) -> int:
        """Units currently queued in the engine's scheduler — 0 once
        every job finished or was cancelled (the no-leak invariant the
        disconnect tests pin)."""
        return len(self.engine._scheduler)

    # -- the event loop ------------------------------------------------------

    async def _main(self, ready: threading.Event) -> None:
        import asyncio

        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_client, self.host, self._requested_port
            )
        except OSError as exc:
            self._startup_error = exc
            ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        ready.set()
        async with server:
            await self._stopped.wait()

    async def _handle_client(self, reader, writer) -> None:
        import asyncio

        conn = _Conn(next(self._conn_ids), writer, asyncio.Queue())
        self._commands.put(("connect", conn))
        writer_task = asyncio.get_running_loop().create_task(
            self._write_frames(conn)
        )
        try:
            while True:
                frame = await _read_frame_async(reader)
                self._commands.put(("frame", conn, frame))
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ValueError):
            # EOF, reset, oversize or malformed frame: the connection
            # is over either way; the driver cancels its jobs.
            pass
        finally:
            self._commands.put(("disconnect", conn))
            # The driver answers the disconnect by posting the outbox
            # sentinel, which ends the writer task and closes the
            # transport.  During server teardown the loop shutdown
            # cancels the writer instead — that cancellation is the
            # expected end of this handler, not an error to log.
            try:
                await writer_task
            except asyncio.CancelledError:
                pass

    async def _write_frames(self, conn: _Conn) -> None:
        try:
            while True:
                frame = await conn.outbox.get()
                if frame is None:
                    break
                conn.writer.write(encode_frame(frame))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _send(self, conn: _Conn, frame: dict) -> None:
        """Queue a frame for a connection, from the driver thread."""
        if conn.closed or self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(conn.outbox.put_nowait, frame)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _close_outbox(self, conn: _Conn) -> None:
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(conn.outbox.put_nowait, None)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _signal_loop_stop(self) -> None:
        if self._loop is None or self._stopped is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopped.set)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- the driver thread ---------------------------------------------------

    def _drive(self) -> None:
        """The engine's single caller: commands in, frames out.

        Alternates between draining the command queue (submits,
        cancels, disconnects from the event loop) and pumping the
        engine with a small timeout so completions stream out while
        new commands still land within tens of milliseconds — the
        latency floor interactive admission rides on.
        """
        try:
            while True:
                active = any(
                    conn.requests for conn in self._conns.values()
                )
                try:
                    command = self._commands.get(
                        timeout=0.02 if active else 0.2
                    )
                except queue.Empty:
                    command = None
                while command is not None:
                    if command[0] == "stop":
                        return
                    self._handle_command(command)
                    try:
                        command = self._commands.get_nowait()
                    except queue.Empty:
                        command = None
                if any(conn.requests for conn in self._conns.values()):
                    self.engine.pump(timeout=0.02)
                    self._advance()
        finally:
            try:
                self.engine.shutdown()
            finally:
                self._signal_loop_stop()

    def _handle_command(self, command: tuple) -> None:
        kind = command[0]
        if kind == "connect":
            conn = command[1]
            self._conns[conn.id] = conn
            self._stats["connections"] += 1
        elif kind == "frame":
            _, conn, payload = command
            if conn.id in self._conns:
                self._handle_frame(conn, payload)
        elif kind == "disconnect":
            conn = command[1]
            if conn.id in self._conns:
                self._handle_disconnect(conn)

    def _handle_frame(self, conn: _Conn, payload: dict) -> None:
        op = payload.get("op")
        if op == "submit":
            self._handle_submit(conn, payload)
        elif op == "cancel":
            self._handle_cancel(conn, payload)
        elif op == "ping":
            self._send(conn, {"type": "pong"})
        elif op == "keys":
            self._send(conn, {
                "type": "keys",
                "keys": [list(key) for key in self.engine.keys()],
            })
        else:
            self._send(conn, {
                "type": "error",
                "id": payload.get("id"),
                "error": f"unknown op {op!r}",
            })

    def _fail_request(self, conn: _Conn, client_id, message: str) -> None:
        self._stats["failed"] += 1
        self._send(conn, {
            "type": "failed", "id": client_id, "error": message,
        })

    def _handle_submit(self, conn: _Conn, payload: dict) -> None:
        client_id = payload.get("id")
        if not isinstance(client_id, int):
            self._send(conn, {
                "type": "error", "id": client_id,
                "error": "submit requires an integer id",
            })
            return
        if client_id in conn.requests:
            self._fail_request(
                conn, client_id,
                f"request id {client_id} is already in flight",
            )
            return
        try:
            priority = JobClass(payload.get("priority", "batch"))
        except ValueError:
            self._fail_request(
                conn, client_id,
                f"unknown priority {payload.get('priority')!r}",
            )
            return
        corpus = self.engine.keys()
        raw = payload.get("keys")
        if raw is None:
            keys = list(corpus)
        else:
            try:
                keys = [(str(name), str(suite)) for name, suite in raw]
            except (TypeError, ValueError):
                self._fail_request(
                    conn, client_id,
                    "keys must be [name, suite] pairs or null",
                )
                return
            known = set(corpus)
            unknown = [key for key in keys if key not in known]
            if unknown:
                self._fail_request(
                    conn, client_id,
                    f"unknown program(s): {sorted(set(unknown))}",
                )
                return
        keys = list(dict.fromkeys(keys))
        units = len(plan_units(keys, self.options.granularity))
        pending = self._conn_pending(conn)
        # An idle connection is always admitted, even past the budget
        # — otherwise a request bigger than the whole budget could
        # never run at all.  The budget bounds *accumulation*: any
        # further submit past it is rejected until the backlog drains.
        if pending > 0 and pending + units > self.budget:
            self._stats["rejections"] += 1
            self._send(conn, {
                "type": "rejected",
                "id": client_id,
                "reason": "admission budget exhausted",
                "retry_after": self._retry_after(pending),
                "pending_units": pending,
                "requested_units": units,
                "budget": self.budget,
            })
            return
        try:
            job = self.engine.submit(keys, priority=priority)
        except Exception as exc:
            self._fail_request(
                conn, client_id, f"{type(exc).__name__}: {exc}"
            )
            return
        conn.requests[client_id] = _ServerRequest(client_id, job, units)
        self._stats["submits"] += 1
        self._send(conn, {
            "type": "accepted",
            "id": client_id,
            "units": units,
            "job": job.job_id,
        })

    def _handle_cancel(self, conn: _Conn, payload: dict) -> None:
        client_id = payload.get("id")
        request = conn.requests.pop(client_id, None)
        if request is None:
            # Unknown or already terminal: cancellation is idempotent,
            # exactly like ServingJob.cancel().
            self._send(conn, {
                "type": "cancelled", "id": client_id, "drained": 0,
            })
            return
        drained = request.job.cancel()
        self._stats["cancelled"] += 1
        self._send(conn, {
            "type": "cancelled", "id": client_id, "drained": drained,
        })

    def _handle_disconnect(self, conn: _Conn) -> None:
        conn.closed = True
        self._stats["disconnects"] += 1
        for request in conn.requests.values():
            # The consumer is gone: cancel engine-side so queued units
            # leave the scheduler and in-flight results are dropped —
            # no orphaned work, no leaked units.
            request.job.cancel()
            self._stats["disconnect_cancelled"] += 1
        conn.requests.clear()
        self._conns.pop(conn.id, None)
        self._close_outbox(conn)

    def _conn_pending(self, conn: _Conn) -> int:
        return sum(
            request.job.pending_units
            for request in conn.requests.values()
        )

    def _retry_after(self, pending_units: int) -> float:
        """Seconds until the connection's backlog plausibly drained.

        The measured per-unit EWMA times the connection's pending
        units, clamped to a sane band — an honest hint, not a
        guarantee; clients treat it as a backoff floor.
        """
        return round(
            min(10.0, max(0.05, pending_units * self._unit_seconds)), 3
        )

    def _advance(self) -> None:
        """Stream fresh completions and close finished requests."""
        for conn in list(self._conns.values()):
            for client_id, request in list(conn.requests.items()):
                job = request.job
                try:
                    fresh = job.take_completed()
                except JobCancelled:
                    conn.requests.pop(client_id, None)
                    self._stats["cancelled"] += 1
                    self._send(conn, {
                        "type": "cancelled", "id": client_id,
                        "drained": 0,
                    })
                    continue
                except RuntimeError as exc:
                    conn.requests.pop(client_id, None)
                    self._fail_request(conn, client_id, str(exc))
                    continue
                for digest in fresh:
                    self._stats["digests"] += 1
                    self._send(conn, {
                        "type": "digest",
                        "id": client_id,
                        "program": program_to_json(digest),
                    })
                if not job.done:
                    continue
                try:
                    report = job.result()
                except (RuntimeError, ValueError) as exc:
                    conn.requests.pop(client_id, None)
                    self._fail_request(conn, client_id, str(exc))
                    continue
                elapsed = time.monotonic() - request.started
                per_unit = elapsed / max(1, request.units)
                self._unit_seconds = (
                    0.7 * self._unit_seconds + 0.3 * per_unit
                )
                conn.requests.pop(client_id, None)
                self._stats["completed"] += 1
                self._send(conn, {
                    "type": "result",
                    "id": client_id,
                    "report": report_to_json(report),
                })


class GatewayRequest:
    """Client-side view of one submitted request."""

    def __init__(self, request_id: int, keys, priority: str):
        self.id = request_id
        self.keys = keys
        self.priority = priority
        #: Planned unit count, from the ``accepted`` frame.
        self.units: int | None = None
        self.digests: list[ProgramDigest] = []
        self._cursor = 0
        self._admission: dict | None = None
        self._outcome: dict | None = None

    @property
    def done(self) -> bool:
        return self._outcome is not None


class GatewayClient:
    """Blocking client for one gateway connection (stdlib sockets).

    One connection multiplexes many requests: :meth:`submit` returns a
    :class:`GatewayRequest` immediately after admission, and any
    number may be in flight; frames are routed to their request by id
    as they arrive.  Not thread-safe — one client per thread, which is
    also one *budget* per thread (admission is per connection).

    ``connect_retries`` makes construction poll for a server that is
    still binding — the CI/docs pattern of starting
    ``python -m repro gateway`` in the background and connecting from
    a second process.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 120.0, connect_retries: int = 0,
                 retry_delay: float = 0.25):
        last: Exception | None = None
        self._sock = None
        for _ in range(max(1, connect_retries + 1)):
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                last = exc
                time.sleep(retry_delay)
        if self._sock is None:
            raise GatewayError(
                f"cannot connect to {host}:{port}: {last}"
            )
        self._sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        self._sock.settimeout(timeout)
        self._ids = itertools.count()
        self._requests: dict[int, GatewayRequest] = {}
        self._replies: list[dict] = []

    # -- plumbing ------------------------------------------------------------

    def _post(self, payload: dict) -> None:
        self._sock.sendall(encode_frame(payload))

    def _route_one(self) -> None:
        frame = read_frame(self._sock)
        kind = frame.get("type")
        if kind == "error":
            raise GatewayError(frame.get("error", "protocol error"))
        if kind in ("pong", "keys"):
            self._replies.append(frame)
            return
        request = self._requests.get(frame.get("id"))
        if request is None:
            return  # late frame for a discarded request
        if kind == "digest":
            request.digests.append(
                program_from_json(frame["program"])
            )
        elif kind in ("accepted", "rejected"):
            request._admission = frame
        elif kind in ("result", "failed", "cancelled"):
            if request._outcome is None:
                request._outcome = frame
            # else: a trailing cancel acknowledgement after the result
            # landed first — the terminal frame already won.

    def _await_reply(self, kind: str) -> dict:
        while True:
            for index, frame in enumerate(self._replies):
                if frame["type"] == kind:
                    return self._replies.pop(index)
            self._route_one()

    # -- API -----------------------------------------------------------------

    def ping(self) -> None:
        self._post({"op": "ping"})
        self._await_reply("pong")

    def corpus_keys(self) -> list[Key]:
        """The corpus the server plans requests against."""
        self._post({"op": "keys"})
        frame = self._await_reply("keys")
        return [tuple(key) for key in frame["keys"]]

    def submit(self, keys: Sequence[Key] | None = None,
               priority: str = "batch") -> GatewayRequest:
        """Submit programs; returns once admission answered.

        ``keys=None`` submits the server's whole corpus.  Raises
        :class:`GatewayRejected` (with ``retry_after``) when admission
        control refuses the request — nothing was queued; back off and
        retry.
        """
        request = GatewayRequest(next(self._ids), keys, priority)
        self._requests[request.id] = request
        self._post({
            "op": "submit",
            "id": request.id,
            "keys": (
                None if keys is None else [list(key) for key in keys]
            ),
            "priority": priority,
        })
        while request._admission is None and request._outcome is None:
            self._route_one()
        if request._outcome is not None:  # failed before admission
            return request
        admission = request._admission
        if admission["type"] == "rejected":
            del self._requests[request.id]
            raise GatewayRejected(
                retry_after=admission["retry_after"],
                pending_units=admission["pending_units"],
                requested_units=admission["requested_units"],
                budget=admission["budget"],
            )
        request.units = admission["units"]
        return request

    def stream(self, request: GatewayRequest) -> Iterator[ProgramDigest]:
        """Yield the request's digests as frames arrive (completion
        order), ending when its terminal frame lands."""
        while True:
            while request._cursor < len(request.digests):
                digest = request.digests[request._cursor]
                request._cursor += 1
                yield digest
            if request._outcome is not None:
                return
            self._route_one()

    def result(self, request: GatewayRequest) -> CorpusReport:
        """Drain the request and rebuild its canonical report.

        The rebuild runs through
        :func:`~repro.pipeline.digest.report_from_json`, which
        verifies the embedded fingerprint — a report that survived the
        wire is bit-trustworthy.  Raises
        :class:`~repro.pipeline.serving.JobCancelled` for a cancelled
        request and :class:`GatewayRequestFailed` for a failed one.
        """
        for _ in self.stream(request):
            pass
        outcome = request._outcome
        self._requests.pop(request.id, None)
        if outcome["type"] == "result":
            return report_from_json(outcome["report"])
        if outcome["type"] == "cancelled":
            raise JobCancelled(
                f"gateway request {request.id} was cancelled"
            )
        raise GatewayRequestFailed(outcome.get("error", "request failed"))

    def cancel(self, request: GatewayRequest) -> int:
        """Cancel a request; returns the queued units drained.

        Idempotent, and a request that completed before the cancel
        landed stays completed (0 is returned).
        """
        if request._outcome is not None:
            return 0  # already terminal: nothing left to drain
        self._post({"op": "cancel", "id": request.id})
        while request._outcome is None:
            self._route_one()
        if request._outcome["type"] == "cancelled":
            return request._outcome.get("drained", 0)
        return 0

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._sock = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
