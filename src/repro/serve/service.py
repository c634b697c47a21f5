"""The NDJSON service shell shared by ``repro serve`` and ``repro cluster``.

Both front ends of the model speak :mod:`repro.serve.protocol` over
TCP: :class:`~repro.serve.server.AnalysisServer` admits traffic against
its own calibrated alpha/beta, and :class:`~repro.cluster.router.
ClusterRouter` enforces the aggregate ``sum alpha_i <= beta`` across
tenants.  Everything between the socket and a validated request is
identical for the two and lives here, once:

* the listener (lines capped at ``MAX_LINE_BYTES``, ``TCP_NODELAY``);
* framing: exactly one answer per non-blank line, in order.  A frame
  that fails validation gets a 400 and the connection stays open; an
  overrun line gets one 413 and the connection closes;
* in-flight accounting: a frame is in flight from the moment its line
  is read until its whole answer has been handed to the kernel;
* the ``<prefix>.requests`` / ``.responses`` / ``.errors`` counters;
* the drain (:meth:`NdjsonService.drain`);
* the process skeleton (:func:`serve`, :func:`run_service`) and the
  background-thread harness (:class:`ServiceThread`).

A subclass supplies :meth:`~NdjsonService._startup`,
:meth:`~NdjsonService._dispatch` and :meth:`~NdjsonService._release`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import socket
import threading
from typing import Any, Callable, Mapping

from ..telemetry.metrics import MetricsRegistry
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode,
    error_response,
    parse_request,
)

__all__ = ["NdjsonService", "drained_line", "serve", "run_service", "ServiceThread"]

_TOO_LARGE = encode(error_response(
    None, status=413, code="too_large",
    message=f"request line exceeds {MAX_LINE_BYTES} bytes",
))


class NdjsonService:
    """Listener, framing, in-flight accounting and drain of one front end."""

    #: counter namespace: ``<prefix>.requests``, ``.responses``,
    #: ``.errors``, and the subclass's ``.rejected``
    prefix = "service"

    def __init__(self, host: str, port: int, *, drain_timeout_s: float,
                 metrics: MetricsRegistry) -> None:
        self.host = host
        self.port: "int | None" = None
        self.metrics = metrics
        self.inflight = 0
        self.draining = False
        self._bind_port = port
        self._drain_timeout_s = drain_timeout_s
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: "asyncio.base_events.Server | None" = None
        #: open connections and the task answering each
        self._connections: dict[asyncio.StreamWriter, asyncio.Task[Any]] = {}
        self._shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------ #
    # what a front end supplies
    # ------------------------------------------------------------------ #

    async def _startup(self) -> None:
        """Prepare to answer; runs before the listener binds."""

    async def _dispatch(self, req: Request, raw: bytes) -> dict[str, Any]:
        """Answer one validated request (``raw`` is its line as received)."""
        raise NotImplementedError

    async def _release(self) -> None:
        """Free what the front end owns; runs after in-flight work settles."""

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> tuple[str, int]:
        """Run the front end's startup, then begin accepting."""
        await self._startup()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._bind_port, limit=MAX_LINE_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Signal-safe: ask :func:`serve` to drain and exit."""
        self._shutdown_requested.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown_requested.wait()

    async def drain(self) -> dict[str, Any]:
        """Stop accepting, settle in-flight work, release, close connections.

        In-flight frames get ``drain_timeout_s`` to finish.  Whatever is
        still in flight when the connections close counts as
        ``dropped``: admitted, never fully answered.  A connection still
        holding unsent output then belongs to a peer that stopped
        reading, so it is aborted rather than closed, because a graceful
        close would wait for that flush forever.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._drain_timeout_s
        self.draining = True
        if self._server is not None:
            # no wait_closed(): from Python 3.12 on it also waits for
            # every open connection, and those close below
            self._server.close()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._idle.wait(), self._drain_timeout_s)
        await self._release()
        dropped = self.inflight
        handlers = list(self._connections.values())
        for writer in list(self._connections):
            if writer.transport.get_write_buffer_size():
                writer.transport.abort()
            else:
                writer.close()
        if handlers:
            # let each handler see its EOF or abort and return, rather
            # than be cancelled (and logged) at loop teardown
            await asyncio.wait(handlers, timeout=max(0.0, deadline - loop.time()))
        return {
            "served": int(self.metrics.counter(f"{self.prefix}.responses").value),
            "rejected": int(self.metrics.counter(f"{self.prefix}.rejected").value),
            "dropped": dropped,
            "clean": dropped == 0,
        }

    # ------------------------------------------------------------------ #
    # connections and frames
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                # answers are single small frames; disable Nagle so they
                # leave at once instead of waiting out a delayed ACK
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # writer.drain() then waits until the whole answer is in the
        # kernel, so no frame in flight means no answer stuck in here
        writer.transport.set_write_buffer_limits(high=0)
        self._connections[writer] = asyncio.current_task()
        try:
            while not self.draining:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_LINE_BYTES
                    await self._answer(writer, None)
                    break
                if not line:
                    break  # EOF
                if line.strip():
                    await self._answer(writer, line)
        except OSError:
            pass  # the peer vanished mid-exchange; nothing left to answer
        finally:
            del self._connections[writer]
            writer.close()

    async def _answer(self, writer: asyncio.StreamWriter, line: "bytes | None") -> None:
        """Answer one frame (``None``: an overrun line) and flush the answer."""
        self.inflight += 1
        self._idle.clear()
        try:
            writer.write(_TOO_LARGE if line is None else encode(await self._serve_line(line)))
            await writer.drain()
        finally:
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.set()

    async def _serve_line(self, line: bytes) -> dict[str, Any]:
        self.metrics.counter(f"{self.prefix}.requests").inc()
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            response = error_response(
                exc.req_id, status=exc.status, code=exc.code, message=str(exc)
            )
        else:
            try:
                response = await self._dispatch(req, line)
            except Exception as exc:  # noqa: BLE001 - a request must never kill the connection
                response = error_response(
                    req.id, status=500, code="internal",
                    message=f"{type(exc).__name__}: {exc}",
                )
        outcome = "responses" if response.get("ok") else "errors"
        self.metrics.counter(f"{self.prefix}.{outcome}").inc()
        return response


def drained_line(tag: str, summary: Mapping[str, Any]) -> str:
    """The drain report that operators and CI grep for."""
    verdict = "clean" if summary["clean"] else f"DROPPED {summary['dropped']}"
    return (
        f"{tag} drained ({verdict}): {summary['served']} served, "
        f"{summary['rejected']} rejected, {summary['dropped']} dropped"
    )


async def serve(app: Any, *, on_ready: "Callable[[str, int], None] | None" = None
                ) -> dict[str, Any]:
    """Host ``app`` from start to drain: the body of every serving process.

    ``app`` has the lifecycle of :class:`NdjsonService` (``start``,
    ``request_shutdown``, ``wait_shutdown``, ``drain``) plus its two
    banners, ``banner(host, port)`` and ``drained(summary)``.  SIGTERM
    and SIGINT request the drain where the loop can take signals (the
    main thread); ``on_ready(host, port)`` fires once the banner is out.
    Returns the drain summary.
    """
    host, port = await app.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.add_signal_handler(sig, app.request_shutdown)
    print(app.banner(host, port), flush=True)
    if on_ready is not None:
        on_ready(host, port)
    await app.wait_shutdown()
    summary = await app.drain()
    print(app.drained(summary), flush=True)
    return summary


def run_service(app: Any, *, on_ready: "Callable[[str, int], None] | None" = None) -> int:
    """Blocking entry point; exit code 0 on a clean drain, 1 if any frame dropped."""
    summary = asyncio.run(serve(app, on_ready=on_ready))
    return 0 if summary["clean"] else 1


class ServiceThread:
    """A service hosted on a background thread: the test/benchmark harness.

    Runs the full production path (:func:`serve`: real sockets, real
    drain) without a subprocess.  ``make_app`` builds the app on the
    thread; ``stop()`` performs the same drain as SIGTERM and returns
    its summary.
    """

    #: names the thread and the harness errors
    role = "service"

    def __init__(self, make_app: Callable[[], Any], *, start_timeout: float) -> None:
        self.app: Any = None
        self.summary: "dict[str, Any] | None" = None
        self.error: "BaseException | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(make_app,), daemon=True, name=f"repro-{self.role}"
        )
        self._thread.start()
        if not self._ready.wait(start_timeout):
            raise TimeoutError(f"{self.role} thread failed to start in time")
        if self.error is not None:
            raise RuntimeError(f"{self.role} thread failed: {self.error}") from self.error

    def _run(self, make_app: Callable[[], Any]) -> None:
        try:
            self.app = make_app()
            self.summary = asyncio.run(serve(self.app, on_ready=self._on_ready))
        except BaseException as exc:  # noqa: BLE001 - surfaced to the creating thread
            self.error = exc
            self._ready.set()

    def _on_ready(self, host: str, port: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._ready.set()

    @property
    def host(self) -> str:
        return self.app.host

    @property
    def port(self) -> int:
        return self.app.port

    def stop(self, timeout: float = 120.0) -> dict[str, Any]:
        """Graceful drain (same path as SIGTERM); returns the summary."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.app.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"{self.role} thread did not drain in time")
        if self.error is not None:
            raise RuntimeError(f"{self.role} thread failed: {self.error}") from self.error
        assert self.summary is not None
        return self.summary

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._thread.is_alive():
            self.stop()
