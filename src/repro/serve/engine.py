"""The evaluation engine behind one analysis shard.

Extracted from :mod:`repro.serve.server` so that a shard is an
*embeddable object*: anything that owns an asyncio loop can host an
engine — the TCP listener in :class:`~repro.serve.server.AnalysisServer`,
a cluster shard process (:mod:`repro.cluster.shards`), or a test —
without touching process-global state.  The engine installs no signal
handlers, prints nothing, and keeps no module-level mutable state; one
engine owns exactly one worker pool, one result cache and one NC
self-model.

The split is shell/engine: the host (:class:`~repro.serve.service.
NdjsonService`) parses frames, manages connections and counts in-flight
requests; the engine is everything behind the frame — admission, cache
lookup, pool dispatch (one :func:`~repro.sweep.runner.evaluate_point`
call per cache miss), and the ``/capacity`` and ``/stats``
introspection bodies.

A pool worker that dies breaks the whole pool.  The engine replaces a
broken pool (once per broken pool, counted in ``serve.pool_restarts``)
and reruns each call it broke on the replacement, once; a call that
breaks the replacement too is answered 500 ``worker_died``.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

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


def _pool_worker_init(parent_pid: int) -> None:
    """Worker-process initializer: a parent-death watchdog.

    A ``ProcessPoolExecutor`` worker whose parent is SIGKILLed (the
    cluster chaos path — ``ShardProcess.kill``) never learns: every
    worker inherits the call-queue write end, so the blocking read
    never sees EOF and the orphan sits forever, pinning every inherited
    file descriptor (including the launcher's stdout pipe, which hangs
    any ``... | tail`` style harness waiting for EOF).  The watchdog
    thread polls the parent pid and hard-exits the worker the moment it
    is reparented — workers die with their shard, by whatever signal
    the shard died.

    ``parent_pid`` is captured in the *parent* at executor construction
    and shipped via ``initargs``: if the kill lands while this worker is
    still bootstrapping, ``os.getppid()`` here would already report the
    reaper and a self-captured "parent" would never change.
    """
    if os.getppid() != parent_pid:
        os._exit(0)  # orphaned before the initializer even ran

    def watch() -> None:
        while True:
            time.sleep(1.0)
            if os.getppid() != parent_pid:
                os._exit(0)

    threading.Thread(target=watch, daemon=True, name="parent-watchdog").start()


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


class AnalysisEngine:
    """One shard's evaluation machinery: pool, cache, self-model, admission.

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
        self.executor: "ProcessPoolExecutor | None" = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Create the pool, calibrate, build the admission controller."""
        cfg = self.config
        self.executor = self._new_pool()
        if cfg.calibrate > 0:
            await self._calibrate(cfg.calibrate)
        self._build_admission()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.config.resolved_workers(),
            initializer=_pool_worker_init,
            initargs=(os.getpid(),),
        )

    def _replace_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap a broken pool for a new one, once per broken pool: a
        request that saw the same break after the swap reuses it."""
        if self.executor is not broken:
            return
        broken.shutdown(wait=False)
        self.executor = self._new_pool()
        self.metrics.counter("serve.pool_restarts").inc()

    async def _run_point(
        self, args: tuple[Any, ...], timeout: "float | None" = None
    ) -> dict[str, Any]:
        """One ``evaluate_point(model, params, options, seed)`` call on the
        pool, within ``timeout`` seconds (``asyncio.TimeoutError``).  A
        call the pool broke under runs once more on the replacement, in
        what is left of ``timeout``; ``BrokenProcessPool`` escapes only if
        that breaks too.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        for attempt in range(2):
            executor = self.executor
            try:
                # wait on the executor's future itself: wrapping this
                # coroutine in wait_for would add a task per request
                future = loop.run_in_executor(executor, evaluate_point, *args)
                left = None if deadline is None else deadline - loop.time()
                return await asyncio.wait_for(future, left)
            except BrokenProcessPool:
                self._replace_pool(executor)
                if attempt:
                    raise

    async def _calibrate(self, n: int) -> None:
        """Prime worker imports and the NC self-model with measured times.

        First a parallel warm-up (one task per worker, so every process
        pays its NumPy import before traffic arrives), then ``n``
        sequential timed evaluations: in-worker compute time feeds the
        service-curve rate, and the best-case (submit - compute) gap
        estimates the dispatch latency ``T``.
        """
        model = _calibration_model()
        options = {"simulate": False, "packetized": False, "workload": None, "base_seed": 42}
        warmups = [
            self._run_point((model, {}, options, i)) for i in range(self.model.workers)
        ]
        await asyncio.gather(*warmups)
        dispatch_gaps = []
        for i in range(n):
            t0 = time.perf_counter()
            out = await self._run_point((model, {}, options, i))
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
        """Stop the pool (after its tasks finish) and close the cache."""
        if self.executor is not None:
            self.executor.shutdown(wait=True)
        if self.cache is not None:
            self.cache.close()

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    async def evaluate(self, req: Request) -> dict[str, Any]:
        """Admission -> cache -> pool dispatch for one request."""
        if req.tenant is not None:
            self.metrics.counter(f"serve.tenant.{req.tenant}.requests").inc()
        if self.admission is not None:
            admitted, code, retry_after = self.admission.admit()
            if not admitted:
                count_rejection(self.metrics, "serve", code, req.tenant)
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
                out = await self._run_point(
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
            except BrokenProcessPool as exc:
                return error_response(
                    req.id,
                    status=500,
                    code="worker_died",
                    message="the pool worker died evaluating this request, on "
                    f"the pool and on its replacement (killed? out of memory?): {exc}",
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
        if req.tenant is not None:
            self.metrics.counter(f"serve.tenant.{req.tenant}.responses").inc()
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
