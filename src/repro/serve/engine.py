"""The evaluation engine behind one analysis shard.

Extracted from :mod:`repro.serve.server` so that a shard is an
*embeddable object*: anything that owns an asyncio loop can host an
engine — the TCP listener in :class:`~repro.serve.server.AnalysisServer`,
a cluster shard process (:mod:`repro.cluster.shards`), or a test —
without touching process-global state.  The engine installs no signal
handlers, prints nothing, and keeps no module-level mutable state; one
engine owns its worker processes, one result cache and one NC
self-model.

The split is shell/engine: the host (:class:`~repro.serve.service.
NdjsonService`) parses frames, manages connections and counts in-flight
requests; the engine is everything behind the frame — admission, cache
lookup, pool dispatch (one :func:`~repro.sweep.runner.evaluate_point`
call per cache miss), and the ``/capacity`` and ``/stats``
introspection bodies.

Each worker is a process of the engine's own, joined to the host's
event loop by one socket pair.  :mod:`repro._worker` starts it and says
how it is fed, answered and stopped; a parallel sweep runs its points
on the same workers, a chunk per message, where the engine sends one
call per message.  Workers start by the process's default start method:
``repro serve`` keeps the platform's (fork on Linux), and a cluster
shard forks them (:func:`repro.serve.server._shard_main`).  A forked
worker starts with every module its engine has loaded, and first drops
what it inherited of the engine's process: its signal handlers, its
listener and its connections.  A call writes one pickled message to an
idle worker and awaits the answer that the worker's reader passes back,
so it crosses no helper thread, and the loop never blocks on a worker.
A worker that dies fails only the call it was running.  The engine
starts a new worker in its place (counted in ``serve.pool_restarts``)
and reruns the call once on another worker; a call whose rerun dies too
is answered 500 ``worker_died``.  A new worker gets calls only once it
says it has booted.  One that dies before that may be unable to boot at
all, so its slot waits a full-jitter backoff (:func:`backoff_delay`,
the shard supervisor's rule) before the next start, longer after each
such death in a row; a call waiting for a worker meanwhile is charged
nothing.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable

from .. import _worker
from ..telemetry.metrics import MetricsRegistry
from ..sweep.cache import ResultCache, point_key
from ..sweep.runner import evaluate_point, point_seed
from .admission import (
    AdmissionController,
    SelfModel,
    TokenBucket,
    capacity_report,
    count_rejection,
)
from .protocol import Request, error_response, ok_response

__all__ = ["ServeConfig", "AnalysisEngine"]


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


@dataclass
class ServeConfig:
    """Everything the operator can turn — all times in seconds."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the actual port is printed/returned
    workers: "int | None" = None
    slo_s: "float | None" = None  # delay SLO for admitted requests
    rate: "float | None" = None  # admission: sustained requests/s (alpha rate R)
    burst: "float | None" = None  # admission: bucket capacity (alpha burst b)
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    cache_dir: "str | None" = None
    calibrate: int = 6  # calibration evaluations at startup (0 = skip)
    name: str = "serve"  # shard name (cluster shards get shard-0, shard-1, ...)

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else _default_workers()


def _calibration_model() -> dict[str, Any]:
    """The reference request used to measure per-request service time.

    The BLAST case study's analyze is the canonical serving workload;
    its cost is representative of any measured pipeline of similar
    depth.
    """
    from ..apps.blast import blast_pipeline
    from ..streaming import pipeline_to_dict

    return pipeline_to_dict(blast_pipeline())


#: full-jitter backoff: attempt k waits U(0, min(cap, base * 2^k)) seconds
BACKOFF_BASE_S = 0.25
BACKOFF_CAP_S = 8.0


def backoff_delay(attempt: int, rng: "random.Random | None" = None) -> float:
    """The wait before restart ``attempt`` (from 0): exponential backoff
    with full jitter, ``U(0, min(cap, base * 2^attempt))``."""
    cap = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** attempt))
    return (rng or random).uniform(0.0, cap)


class _Worker:
    """One worker process and the engine's end of its socket."""

    __slots__ = ("process", "sock", "writer", "call")

    def __init__(
        self, process: multiprocessing.process.BaseProcess, sock: socket.socket
    ) -> None:
        self.process = process
        self.sock = sock
        self.writer: "asyncio.StreamWriter | None" = None
        #: the future of the call the worker is running; None while idle
        self.call: "asyncio.Future[Any] | None" = None


class AnalysisEngine:
    """One shard's evaluation machinery: workers, cache, self-model, admission.

    Host contract: call :meth:`start` from the owning loop before the
    first :meth:`evaluate`.  The host counts its own in-flight requests
    and draining state, passes them to :meth:`capacity` and
    :meth:`stats`, stops calling :meth:`evaluate` once it drains, and
    calls :meth:`aclose` after waiting out in-flight work if a lossless
    drain is wanted.  Everything in between is loop-confined — the
    engine is not thread-safe, by design: one engine per loop, like one
    shard per loop.
    """

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.metrics = MetricsRegistry()
        self.cache = (
            ResultCache(self.config.cache_dir) if self.config.cache_dir else None
        )
        self.model = SelfModel(self.config.resolved_workers())
        self.admission: "AdmissionController | None" = None
        #: the live workers, and those of them waiting for a call
        self._workers: list[_Worker] = []
        self._idle: "asyncio.Queue[_Worker]" = asyncio.Queue()
        #: one task per worker slot, for the engine's life (see _keep)
        self._slots: list[asyncio.Task[None]] = []
        self._closing = asyncio.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start the workers, calibrate, build the admission controller."""
        cfg = self.config
        self._slots = [
            asyncio.ensure_future(self._keep(self._spawn()))
            for _ in range(self.model.workers)
        ]
        if cfg.calibrate > 0:
            await self._calibrate(cfg.calibrate)
        self._build_admission()

    def _spawn(self) -> _Worker:
        """Start one worker process (:func:`repro._worker.start`)."""
        worker = _Worker(*_worker.start(f"repro-{self.config.name}-worker"))
        self._workers.append(worker)
        return worker

    async def _keep(self, worker: _Worker) -> None:
        """Keep one worker slot filled for the engine's life.

        Passes each answer of the slot's worker to its call.  When the
        worker dies, fails the call it was running and starts another
        worker in its place: at once if the worker had booted, after a
        backoff that grows with each boot death in a row if not.  When
        the engine closes, returns once the worker has exited, or at
        once if no worker is running.
        """
        boot_deaths = 0
        while True:
            reader, worker.writer = await asyncio.open_connection(sock=worker.sock)
            if self._closing.is_set():
                worker.writer.write(_worker.STOP)
            booted = await self._read(worker, reader)
            self._workers.remove(worker)
            worker.writer.close()
            if worker.call is not None and not worker.call.done():
                worker.call.set_exception(_worker.WorkerDied.of(worker.process))
            boot_deaths = 0 if booted else boot_deaths + 1
            if boot_deaths and not await self._pause(backoff_delay(boot_deaths - 1)):
                return
            if self._closing.is_set():
                return
            self.metrics.counter("serve.pool_restarts").inc()
            while True:
                try:
                    worker = self._spawn()
                    break
                except OSError:  # out of processes or memory: try again
                    if not await self._pause(1.0):
                        return  # the engine closed while no worker could start

    async def _pause(self, seconds: float) -> bool:
        """Wait ``seconds``, or less if the engine closes; False if it did."""
        try:
            await asyncio.wait_for(self._closing.wait(), seconds)
        except asyncio.TimeoutError:
            return True
        return False

    async def _read(self, worker: _Worker, reader: asyncio.StreamReader) -> bool:
        """Make ``worker`` idle once it has booted, then pass each of its
        answers to its call, until end-of-file; True if it booted."""
        try:
            await reader.readexactly(_worker.HEADER.size)  # the empty "booted"
        except (EOFError, OSError):
            return False
        self._idle.put_nowait(worker)
        try:
            while True:
                header = await reader.readexactly(_worker.HEADER.size)
                body = await reader.readexactly(_worker.HEADER.unpack(header)[0])
                call, worker.call = worker.call, None
                self._idle.put_nowait(worker)
                try:
                    ok, value = pickle.loads(body)
                except Exception as exc:  # noqa: BLE001 - the call raises it
                    ok, value = False, exc
                if call.done():
                    continue  # a call that timed out drops its late answer
                if ok:
                    call.set_result(value)
                else:
                    call.set_exception(value)
        except (EOFError, OSError):
            return True  # the worker exited, or its socket broke

    async def _call(
        self,
        function: Callable[..., Any],
        args: tuple[Any, ...],
        timeout: "float | None" = None,
    ) -> Any:
        """``function(*args)`` on an idle worker, within ``timeout`` seconds
        (``asyncio.TimeoutError``), the wait for the worker included.  A
        call whose worker dies runs once more on another worker, in what
        is left of ``timeout``; :class:`~repro._worker.WorkerDied` escapes
        only if that worker dies too.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        message = _worker.message(function, [args])
        for attempt in range(2):
            while True:
                if not self._idle.empty():
                    worker = self._idle.get_nowait()
                else:
                    left = None if deadline is None else deadline - loop.time()
                    worker = await asyncio.wait_for(self._idle.get(), left)
                if not worker.writer.is_closing():
                    break  # else it died while idle; its slot replaces it
            worker.call = call = loop.create_future()
            worker.writer.write(message)
            try:
                # wait on the call's future itself: wrapping a coroutine
                # in wait_for would add a task per call
                left = None if deadline is None else deadline - loop.time()
                return await asyncio.wait_for(call, left)
            except _worker.WorkerDied:
                if attempt:
                    raise

    async def _calibrate(self, n: int) -> None:
        """Prime worker imports and the NC self-model with measured times.

        First a parallel warm-up (one task per worker, so every process
        pays its imports before traffic arrives), then ``n`` sequential
        timed evaluations: in-worker compute time feeds the service-curve
        rate, and the best-case (submit - compute) gap estimates the
        dispatch latency ``T``.
        """
        model = _calibration_model()
        options = {"simulate": False, "packetized": False, "workload": None, "base_seed": 42}
        warmups = [
            self._call(evaluate_point, (model, {}, options, i))
            for i in range(self.model.workers)
        ]
        await asyncio.gather(*warmups)
        dispatch_gaps = []
        for i in range(n):
            t0 = time.perf_counter()
            out = await self._call(evaluate_point, (model, {}, options, i))
            wall = time.perf_counter() - t0
            compute = float(out.get("elapsed", 0.0))
            self.model.observe(compute)
            dispatch_gaps.append(max(0.0, wall - compute))
        # the smallest observed gap is the irreducible hand-off cost
        self.model.dispatch_latency = min(dispatch_gaps)

    def _build_admission(self) -> None:
        cfg = self.config
        if cfg.rate is not None:
            bucket = TokenBucket(cfg.rate, cfg.burst if cfg.burst is not None else max(1.0, cfg.rate))
            self.admission = AdmissionController(bucket, self.model, slo_s=cfg.slo_s)
        elif cfg.slo_s is not None:
            if not self.model.calibrated:
                raise ValueError(
                    "--slo without --rate needs calibration (calibrate > 0) to "
                    "derive the admission envelope from the measured service curve"
                )
            self.admission = AdmissionController.for_slo(self.model, cfg.slo_s)
        else:
            self.admission = None  # open door: no envelope configured

    async def aclose(self) -> None:
        """Stop the workers (each after its running call) and close the cache."""
        self._closing.set()
        workers = list(self._workers)
        for worker in workers:
            if worker.writer is not None:  # else its slot sends the stop
                worker.writer.write(_worker.STOP)
        try:
            await asyncio.gather(*self._slots)  # each returns at its worker's exit
        finally:
            for worker in workers:
                worker.process.join()
            if self.cache is not None:
                self.cache.close()

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    async def evaluate(self, req: Request) -> dict[str, Any]:
        """Admission -> cache -> pool dispatch for one request."""
        if self.admission is not None:
            admitted, code, retry_after = self.admission.admit()
            if not admitted:
                count_rejection(self.metrics, "serve", code)
                return error_response(
                    req.id,
                    status=429,
                    code=code,
                    message="admission control rejected the request "
                    "(offered load exceeds the alpha envelope or the SLO)",
                    retry_after_s=retry_after,
                )
        t0 = time.perf_counter()
        key = point_key(req.model or {}, req.params, req.options)
        out: "dict[str, Any] | None" = None
        cached = False
        if self.cache is not None:
            out = self.cache.get(key)
            cached = out is not None
            self.metrics.counter(
                "serve.cache.hits" if cached else "serve.cache.misses"
            ).inc()
        if out is None:
            # same derivation as the sweep runner, so one cache key maps
            # to one result no matter which subsystem computed it first
            seed = point_seed(int(req.options.get("base_seed", 42)), req.params)
            try:
                out = await self._call(
                    evaluate_point,
                    (req.model or {}, req.params, req.options, seed),
                    self.config.request_timeout_s,
                )
            except asyncio.TimeoutError:
                return error_response(
                    req.id,
                    status=408,
                    code="timeout",
                    message=f"evaluation exceeded {self.config.request_timeout_s} s "
                    "(the worker task keeps running; retry may hit the cache)",
                )
            except _worker.WorkerDied as exc:
                return error_response(
                    req.id,
                    status=500,
                    code="worker_died",
                    message="the worker died evaluating this request, and so did "
                    f"the worker it was rerun on (killed? out of memory?): {exc}",
                )
            if "error" not in out and self.cache is not None:
                self.cache.put(key, out)
        if "error" in out:
            return error_response(
                req.id, status=422, code="evaluation_error", message=str(out["error"])
            )
        if not cached:
            self.model.observe(float(out.get("elapsed", 0.0)))
            self.metrics.histogram("serve.service_s").observe(
                float(out.get("elapsed", 0.0))
            )
        self.metrics.histogram("serve.latency_s").observe(time.perf_counter() - t0)
        return ok_response(req.id, {"key": key, "cached": cached, **out})

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def capacity(self, *, inflight: int, draining: bool) -> dict[str, Any]:
        """The shard's NC self-model (the ``/capacity`` response body)."""
        return {
            **capacity_report(self.model, self.admission),
            "name": self.config.name,
            "inflight": inflight,
            "draining": draining,
        }

    def stats(self, *, inflight: int) -> dict[str, Any]:
        """Counters, latency histograms and cache effectiveness."""
        return {
            "name": self.config.name,
            "metrics": self.metrics.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "inflight": inflight,
        }
