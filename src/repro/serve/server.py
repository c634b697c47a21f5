"""The single-node analysis server: the service shell over one engine.

Architecture (stdlib only)::

    TCP clients --(NDJSON)--> asyncio event loop
        -> framing, in-flight, drain           (repro.serve.service)
        -> strict protocol validation          (repro.serve.protocol)
        -> one AnalysisEngine                  (repro.serve.engine)
            -> admission control               (repro.serve.admission)
            -> content-addressed cache lookup  (repro.sweep.cache)
            -> an idle worker process          (repro._worker, evaluate_point)

    CPU-bound NC math and DES runs execute on worker *processes*, so
    the event loop only ever parses lines, checks tokens, and reads
    small cache files — it never blocks on a curve convolution.  Each
    worker is joined to the loop by one socket pair: the loop writes a
    length-prefixed pickle of the call and reads the answer through an
    asyncio stream, with no helper thread in between.

:class:`AnalysisServer` is a :class:`~repro.serve.service.NdjsonService`
that owns one :class:`~repro.serve.engine.AnalysisEngine`: the shell
handles sockets, framing, in-flight accounting and the drain; this
module adds only the single-node dispatch, engine startup (workers,
calibration, admission) and engine release (the workers).  The cluster
tier (:mod:`repro.cluster`) runs the same server in N shard processes,
whose body (``_shard_main``) is here too.

Lifecycle: ``start()`` starts the workers, runs a calibration pass
(which both pre-imports the analysis in the workers and primes the NC
self-model with measured service times), derives the admission envelope
when asked, and begins accepting.  SIGTERM/SIGINT request a graceful
drain: the listener closes, in-flight requests complete and are
answered within ``drain_timeout_s``, the workers exit, and the
connections close.
The exit code is 0 iff no admitted request was dropped.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import sys
from typing import Any

from .. import __version__
from .engine import AnalysisEngine, ServeConfig
from .protocol import (
    CLUSTER_OPS,
    PROTOCOL_VERSION,
    Request,
    error_response,
    ok_response,
)
from .service import NdjsonService, ServiceThread, drained_line, run_service

__all__ = ["ServeConfig", "AnalysisServer", "run", "ServerThread"]


class AnalysisServer(NdjsonService):
    """One serving process: the NDJSON shell over an :class:`AnalysisEngine`."""

    prefix = "serve"

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.engine = AnalysisEngine(self.config)
        super().__init__(
            self.config.host, self.config.port,
            drain_timeout_s=self.config.drain_timeout_s, metrics=self.engine.metrics,
        )

    async def _startup(self) -> None:
        await self.engine.start()

    async def _release(self) -> None:
        await self.engine.aclose()

    async def _dispatch(self, req: Request, raw: bytes) -> dict[str, Any]:
        if req.op == "ping":
            return ok_response(
                req.id,
                {"pong": True, "version": __version__, "protocol": PROTOCOL_VERSION},
            )
        if req.op == "capacity":
            return ok_response(
                req.id, self.engine.capacity(inflight=self.inflight, draining=self.draining)
            )
        if req.op == "stats":
            return ok_response(req.id, self.engine.stats(inflight=self.inflight))
        if req.op == "shutdown":
            self.request_shutdown()
            return ok_response(req.id, {"draining": True})
        if req.op in CLUSTER_OPS:
            return error_response(
                req.id,
                status=501,
                code="cluster_only",
                message=f"op {req.op!r} is served by the cluster router, "
                "not a single shard (see `repro cluster`)",
            )
        if self.draining:
            return error_response(
                req.id, status=503, code="draining", message="server is draining"
            )
        return await self.engine.evaluate(req)

    def banner(self, host: str, port: int) -> str:
        return (
            f"repro-serve [{self.config.name}] listening on {host}:{port} "
            f"(pid {os.getpid()}, workers {self.engine.model.workers}, "
            f"protocol v{PROTOCOL_VERSION})"
        )

    def drained(self, summary: dict[str, Any]) -> str:
        return drained_line(f"repro-serve [{self.config.name}]", summary)


def run(config: "ServeConfig | None" = None, *, on_ready=None) -> int:
    """Blocking entry point (the ``repro serve`` command body).

    Returns 0 on a clean drain, 1 if any in-flight request was dropped.
    ``on_ready(host, port)`` fires once the listener is bound — cluster
    shard processes use it to report their ephemeral port upstream.
    """
    return run_service(AnalysisServer(config), on_ready=on_ready)


def _shard_main(config: ServeConfig, conn: Any) -> None:
    """A cluster shard's process body: :func:`run`, reporting the bound
    ``(host, port)`` on ``conn`` and draining once the process that
    started the shard is gone.  It lives here so that a spawned shard
    imports nothing of :mod:`repro.cluster` to find it."""
    # for the engine's workers; a shard runs one thread, so forking is safe
    multiprocessing.set_start_method("fork", force=True)
    server = AnalysisServer(config)
    # readable at end-of-file, once the process that started the shard is gone
    sentinel = multiprocessing.parent_process().sentinel

    def orphaned() -> None:
        asyncio.get_running_loop().remove_reader(sentinel)
        server.request_shutdown()

    def report(host: str, port: int) -> None:
        asyncio.get_running_loop().add_reader(sentinel, orphaned)
        with contextlib.suppress(OSError):  # no one to report to: orphaned() drains
            conn.send((host, port))
        conn.close()

    sys.exit(run_service(server, on_ready=report))


class ServerThread(ServiceThread):
    """A server hosted on a background thread — the test/benchmark harness.

    Runs the full production path (real sockets, real workers,
    real drain) without a subprocess::

        with ServerThread(ServeConfig(port=0)) as srv:
            client = ServeClient(srv.host, srv.port)
            ...

    ``stop()`` performs the same graceful drain as SIGTERM and returns
    the drain summary.
    """

    role = "server"

    def __init__(self, config: "ServeConfig | None" = None, *, start_timeout: float = 60.0) -> None:
        self.config = config if config is not None else ServeConfig()
        super().__init__(lambda: AnalysisServer(self.config), start_timeout=start_timeout)
