"""Stdlib asyncio HTTP/1.1 front end for :class:`UniverseService`.

No third-party web framework: the serving contract is small (GET/POST,
JSON bodies, ETag revalidation, keep-alive) and the repo's no-new-deps
rule is hard, so this module speaks just enough HTTP/1.1 itself.  The
parser is deliberately strict — malformed request lines get a ``400``
and the connection is closed; request bodies, header counts and header
bytes are capped so a client cannot balloon memory.

The request path is hardened for fault-tolerant serving
(:class:`ServeConfig` holds the knobs):

* **deadlines** — the service router runs on a small thread pool and is
  awaited with a per-request deadline; a request that exceeds it gets
  ``503`` + ``Retry-After`` instead of wedging the connection (the
  event loop never blocks on a slow handler).
* **load shedding** — a bounded in-flight counter; past saturation new
  requests are answered ``503`` + ``Retry-After`` immediately.
* **idle/read timeouts** — a keep-alive socket that sends nothing (or
  dribbles headers forever) is closed after ``idle_timeout``.
* **``/healthz`` exemption** — liveness probes are answered inline on
  the event loop, so they succeed even when every handler thread is
  wedged; that is what lets a supervisor tell "overloaded" from "dead".

Shed/timeout/idle/malformed events are counted in
:class:`~repro.serve.metrics.ServiceMetrics` and exposed at ``/stats``
under ``"transport"``.  The fault points of
:mod:`repro.testing.faults` (``serve.request.hold``,
``serve.response.write``, ``serve.worker.kill``) are compiled into this
path and disarmed in normal operation.

Two entry points:

* :func:`serve_forever` — the blocking CLI path
  (``python -m repro serve``): one event loop, one service, runs until
  interrupted.  (``--workers N`` runs N forked copies of it under
  :mod:`repro.serve.supervisor`.)
* :class:`BackgroundServer` — a context manager running the same server
  on a daemon thread with an ephemeral port, used by the serve tests,
  ``bench_serve.py`` and the CI smoke to drive real sockets without
  managing a subprocess.
"""

from __future__ import annotations

import asyncio
import json
import socket as socket_module
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

from ..testing.faults import FAULTS
from .metrics import ServiceMetrics
from .service import Response, UniverseService

#: Largest accepted request body (the batch endpoint is the only reader).
MAX_BODY_BYTES = 4 << 20

#: Reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServeConfig:
    """Fault-tolerance knobs for one serving process.

    The defaults suit the CLI; tests tighten them to force the 503
    paths deterministically.  ``None`` for a timeout disables it.
    """

    #: Hard deadline for one request's routing work; past it the client
    #: gets ``503`` + ``Retry-After`` and the connection is closed.
    request_timeout: float | None = 10.0
    #: Keep-alive sockets idle (or dribbling) longer than this are closed.
    idle_timeout: float | None = 30.0
    #: In-flight request ceiling; past it new requests are shed with 503.
    max_inflight: int = 128
    #: Threads routing requests (the event loop never runs a handler).
    handler_threads: int = 8
    #: Seconds a draining worker waits for in-flight requests to finish.
    drain_grace: float = 5.0
    #: Advisory ``Retry-After`` seconds on shed/timeout 503s.
    retry_after: int = 1
    #: Header caps: a request with more headers (or more total header
    #: bytes) than this is a 400, not a memory balloon.
    max_header_count: int = 64
    max_header_bytes: int = 16384


def _serialize(response: Response, keep_alive: bool) -> bytes:
    body = response.body_bytes()
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}"]
    if response.status != 304:
        head.append("Content-Type: application/json; charset=utf-8")
    head.append(f"Content-Length: {len(body)}")
    if response.etag is not None:
        head.append(f"ETag: {response.etag}")
    if response.retry_after is not None:
        head.append(f"Retry-After: {response.retry_after}")
    head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader, config: ServeConfig
) -> tuple[str, str, dict[str, str], bytes] | None:
    """One parsed request off the wire, or None at clean connection end."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if len(headers) >= config.max_header_count:
            raise ValueError(
                f"more than {config.max_header_count} request headers"
            )
        if header_bytes > config.max_header_bytes:
            raise ValueError(
                f"request headers exceed {config.max_header_bytes} bytes"
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    # .isdigit() rejects signs, whitespace and non-numerics in one go, so
    # a negative or garbage Content-Length is a clean 400, never a
    # readexactly() with a nonsense count.
    if not raw_length.isdigit():
        raise ValueError(f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise ValueError(f"request body of {length} bytes exceeds cap")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


class ServerState:
    """Shared per-server runtime state: config, gate counters, executor.

    One instance per serving process; every connection handler reads
    the in-flight count and draining flag off it.  The counter is only
    touched on the event-loop thread, so plain ints suffice.
    """

    def __init__(
        self, service: UniverseService, config: ServeConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self.metrics = service.metrics
        self.inflight = 0
        self.draining = False
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.handler_threads,
            thread_name_prefix="repro-serve-handler",
        )

    def overloaded(self) -> Response:
        return Response(
            503,
            {"error": "server overloaded, request shed"},
            retry_after=self.config.retry_after,
        )

    def deadline_exceeded(self, seconds: float) -> Response:
        return Response(
            503,
            {"error": f"request exceeded its {seconds:g}s deadline"},
            retry_after=self.config.retry_after,
        )

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


async def _handle_with_deadline(
    state: ServerState,
    method: str,
    path: str,
    query: dict[str, str],
    body: bytes,
    if_none_match: str | None,
) -> tuple[Response, bool]:
    """Route one request off the event loop; returns (response, timed_out).

    ``/healthz`` is answered inline: liveness must not queue behind
    wedged handler threads, otherwise a supervisor cannot distinguish
    an overloaded worker from a dead one.
    """
    service = state.service
    if path == "/healthz":
        return service.handle(method, path, query, body, if_none_match), False

    def run() -> Response:
        if FAULTS.active:
            FAULTS.fire("serve.request.hold", path=path)
        return service.handle(method, path, query, body, if_none_match)

    loop = asyncio.get_running_loop()
    future = loop.run_in_executor(state.executor, run)
    timeout = state.config.request_timeout
    try:
        return await asyncio.wait_for(future, timeout), False
    except (asyncio.TimeoutError, TimeoutError):
        # The handler thread keeps running to completion (threads are not
        # cancellable) but its eventual result is discarded; the shed
        # gate bounds how many such stragglers can pile up.
        state.metrics.record_transport("timeouts")
        return state.deadline_exceeded(timeout or 0.0), True


async def _serve_connection(
    state: ServerState,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    config = state.config
    try:
        while True:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader, config), config.idle_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                # Idle (or glacial) keep-alive socket: close it quietly —
                # there is no request to answer.
                state.metrics.record_transport("idle_closed")
                break
            except (ValueError, asyncio.IncompleteReadError) as error:
                state.metrics.record_transport("malformed")
                writer.write(
                    _serialize(
                        Response(400, {"error": f"bad request: {error}"}),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            if FAULTS.active:
                FAULTS.fire("serve.worker.kill")
            method, target, headers, body = request
            parsed = urlsplit(target)
            query = dict(parse_qsl(parsed.query))
            keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
            ) and not state.draining
            timed_out = False
            if (
                state.inflight >= config.max_inflight
                and parsed.path != "/healthz"
            ):
                state.metrics.record_transport("shed")
                response = state.overloaded()
                keep_alive = False
            else:
                state.inflight += 1
                try:
                    response, timed_out = await _handle_with_deadline(
                        state,
                        method.upper(),
                        parsed.path,
                        query,
                        body,
                        headers.get("if-none-match"),
                    )
                except Exception as error:  # noqa: BLE001 - must not die
                    response = Response(
                        500, {"error": f"internal error: {type(error).__name__}"}
                    )
                finally:
                    state.inflight -= 1
            if timed_out:
                # The straggler thread's answer is gone; reusing the
                # connection would let a late write desynchronize it.
                keep_alive = False
            blob = _serialize(response, keep_alive=keep_alive)
            if FAULTS.active:
                injected = FAULTS.fire("serve.response.write", payload=blob)
                if injected is not None and injected != blob:
                    writer.write(injected)
                    await writer.drain()
                    break  # torn write: the connection is unusable
                blob = injected if injected is not None else blob
            writer.write(blob)
            await writer.drain()
            if not keep_alive:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # client already gone


async def _start(
    state: ServerState,
    host: str | None = None,
    port: int = 0,
    sock: socket_module.socket | None = None,
) -> asyncio.AbstractServer:
    """Start the server on ``(host, port)`` or an existing socket."""
    handler = lambda reader, writer: _serve_connection(state, reader, writer)  # noqa: E731
    if sock is not None:
        return await asyncio.start_server(handler, sock=sock)
    return await asyncio.start_server(handler, host, port)


def request_json(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: dict[str, str] | None = None,
    document=None,
    timeout: float = 30.0,
) -> tuple[int, dict, object]:
    """One blocking HTTP request; returns ``(status, headers, json)``.

    The tiny client behind :meth:`BackgroundServer.get`/``post`` and the
    supervisor harness — tests and the CI smoke share one code path.
    """
    import http.client

    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        send_headers = dict(headers or {})
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
        connection.request(method, path, body=body, headers=send_headers)
        response = connection.getresponse()
        blob = response.read()
        payload = json.loads(blob) if blob else None
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def serve_forever(
    root,
    host: str = "127.0.0.1",
    port: int = 8707,
    metrics: ServiceMetrics | None = None,
    config: ServeConfig | None = None,
    sock: socket_module.socket | None = None,
    ready=None,
    drain=None,
    extra_stats=None,
    announce: bool = True,
) -> None:
    """Run the HTTP service until interrupted (the CLI entry point).

    ``sock``/``ready``/``drain``/``extra_stats`` are the supervisor
    seam: a pre-fork worker passes the shared listening socket, a
    callback fired once the server accepts, a :class:`threading.Event`
    that triggers graceful drain (stop accepting, finish in-flight up
    to ``config.drain_grace``, exit), and the shared worker board's
    stats callable.
    """
    service = UniverseService.open(
        root, metrics=metrics, extra_stats=extra_stats
    )
    state = ServerState(service, config)

    async def main() -> None:
        server = await _start(state, host, port, sock=sock)
        if announce:
            addresses = ", ".join(
                f"http://{s.getsockname()[0]}:{s.getsockname()[1]}"
                for s in server.sockets
            )
            print(
                f"serving universe store {service.store.root} on {addresses}",
                flush=True,
            )
        if ready is not None:
            ready()
        async with server:
            if drain is None:
                await server.serve_forever()
                return
            # Supervisor worker: serve until the drain event, then stop
            # accepting and give in-flight requests drain_grace seconds.
            while not drain.is_set():
                await asyncio.sleep(0.05)
            state.draining = True
            server.close()
            deadline = (
                asyncio.get_running_loop().time() + state.config.drain_grace
            )
            while state.inflight and (
                asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.02)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        state.shutdown()


class BackgroundServer:
    """The same server on a daemon thread + ephemeral port (tests/bench).

    ::

        with BackgroundServer(store_root) as server:
            http.client.HTTPConnection(server.host, server.port)

    The event loop lives on the background thread; entering the context
    blocks until the socket is listening, exiting cancels the loop,
    joins the thread and *asserts* clean teardown — no dangling daemon
    thread, no open event loop, no bound socket — so tests cannot leak
    servers (and can immediately rebind the same port).
    """

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        service: UniverseService | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self.service = service or UniverseService.open(root)
        self.state = ServerState(self.service, config)
        self._host_requested = host
        self._port_requested = port
        self.host: str = host
        self.port: int = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("background server did not start in 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"background server failed to start: {self._failure}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                _start(self.state, self._host_requested, self._port_requested)
            )
            sockname = server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            self._ready.set()
            loop.run_forever()
            server.close()
            loop.run_until_complete(server.wait_closed())
        except BaseException as error:  # noqa: BLE001 - report to the foreground
            self._failure = error
            self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.state.shutdown()
        # Teardown must be provably clean: a server that leaks its
        # thread or socket poisons every later test binding the port.
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError(
                "background server thread still alive after __exit__"
            )
        if self._loop is not None and not self._loop.is_closed():
            raise RuntimeError(
                "background server event loop still open after __exit__"
            )

    # -- tiny built-in client (CI smoke convenience) --------------------

    def get(self, path: str, headers: dict[str, str] | None = None):
        """One blocking GET via http.client; returns (status, headers, json)."""
        return request_json(self.host, self.port, "GET", path, headers=headers)

    def post(self, path: str, document) -> tuple[int, dict, object]:
        return request_json(
            self.host, self.port, "POST", path, document=document
        )
