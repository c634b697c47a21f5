"""Cluster lifecycle: spawn shards, start the router, drain both.

The composition root of the cluster tier.  :class:`ClusterConfig`
describes the whole deployment (shard count, per-shard envelope, tenant
pre-registrations); :class:`Cluster` turns it into N
:class:`~repro.cluster.shards.ShardProcess`es plus one
:class:`~repro.cluster.router.ClusterRouter` on the calling loop;
:class:`ClusterThread` is the test/benchmark harness (full production
path on a background thread, like ``serve.ServerThread``); :func:`run`
is the blocking ``repro cluster start`` body.

Shutdown ordering matters and is the reverse of startup: the
supervisor stops first (a drain must not race a restart re-inserting
the shard it is about to SIGTERM), then the router drains (stops
accepting, answers in-flight forwards — each of which needs its shard
still alive), then each shard gets SIGTERM and performs its own
lossless drain.  The cluster drain is *clean* iff the router dropped
nothing and every shard that was still alive at drain time exited 0
(a shard that already died — by chaos injection or crash — cannot
drop anything the router didn't fail over).

Self-healing (this layer's contribution): when ``supervise`` is on, a
:class:`~repro.cluster.supervisor.ShardSupervisor` heartbeats every
shard and restarts/rejoins crashed ones; when a tenant journal path is
configured (explicitly, or derived from ``cache_dir``), the registry
loads its table from that file before the router accepts — envelopes
survive a router bounce.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass, field
from typing import Any

from ..serve.engine import ServeConfig
from ..serve.protocol import PROTOCOL_VERSION
from ..serve.service import ServiceThread, drained_line, run_service
from .router import ClusterRouter, RouterConfig
from .shards import ShardProcess
from .supervisor import ShardSupervisor, SupervisorConfig
from .tenants import TenantRegistry

__all__ = ["ClusterConfig", "Cluster", "ClusterThread", "run"]


@dataclass
class ClusterConfig:
    """One deployment: router knobs + a shard template + tenant table."""

    shards: int = 2
    workers_per_shard: int = 1
    host: str = "127.0.0.1"
    port: int = 0  # router port; 0 = ephemeral
    shard_rate: "float | None" = None  # per-shard admission envelope alpha
    shard_burst: "float | None" = None
    slo_s: "float | None" = None  # per-shard delay SLO
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    cache_dir: "str | None" = None  # each shard caches under <dir>/<shard-name>
    calibrate: int = 6
    #: tenants registered before the router accepts: (name, rate, burst, slo_s)
    tenants: "list[tuple[str, float, float, float | None]]" = field(default_factory=list)
    #: the durable tenant table; None derives <cache_dir>/tenant-journal.ndjson
    #: when a cache_dir is configured (no cache_dir, no durable table)
    journal_path: "str | None" = None
    #: run the shard supervisor (heartbeats, restart + ring rejoin)
    supervise: bool = True
    heartbeat_interval_s: float = 2.0
    probe_timeout_s: float = 1.0
    #: seeds the supervisor's full-jitter backoff RNG (None = entropy);
    #: the chaos harness pins it for deterministic restart schedules
    supervisor_seed: "int | None" = None

    def shard_config(self, index: int) -> ServeConfig:
        name = f"shard-{index}"
        return ServeConfig(
            host=self.host,
            port=0,  # always ephemeral: N shards must not collide
            workers=self.workers_per_shard,
            slo_s=self.slo_s,
            rate=self.shard_rate,
            burst=self.shard_burst,
            request_timeout_s=self.request_timeout_s,
            drain_timeout_s=self.drain_timeout_s,
            cache_dir=(
                os.path.join(self.cache_dir, name) if self.cache_dir else None
            ),
            calibrate=self.calibrate,
            name=name,
        )

    def router_config(self) -> RouterConfig:
        return RouterConfig(
            host=self.host,
            port=self.port,
            forward_timeout_s=self.request_timeout_s + 30.0,
            drain_timeout_s=self.drain_timeout_s,
        )

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_interval_s=self.heartbeat_interval_s,
            probe_timeout_s=self.probe_timeout_s,
        )

    def journal_file(self) -> "str | None":
        if self.journal_path is not None:
            return self.journal_path
        if self.cache_dir is not None:
            return os.path.join(self.cache_dir, "tenant-journal.ndjson")
        return None


class Cluster:
    """Shard processes + router, owned by the calling asyncio loop.

    Hosted like a single service (:func:`repro.serve.service.serve`):
    the router's shutdown request ends it, and :meth:`drain` takes the
    whole deployment down.
    """

    def __init__(self, config: "ClusterConfig | None" = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        if self.config.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.config.shards}")
        self.shards: list[ShardProcess] = []
        self.router: "ClusterRouter | None" = None
        self.supervisor: "ShardSupervisor | None" = None
        self.host = self.config.host
        self.port: "int | None" = None

    async def start(self) -> tuple[str, int]:
        """Spawn every shard, wait for their ports, start router + supervisor."""
        cfg = self.config
        loop = asyncio.get_running_loop()
        self.shards = [
            ShardProcess(cfg.shard_config(i)) for i in range(cfg.shards)
        ]
        # shard startup (spawn + pool + calibration) is seconds of wall
        # clock each; launch them all, then collect ports concurrently
        endpoints = await asyncio.gather(
            *(loop.run_in_executor(None, shard.start) for shard in self.shards)
        )
        # the table the previous router acknowledged, then the config's
        # pre-registrations on top (an unchanged one writes nothing)
        registry = TenantRegistry(cfg.journal_file())
        for name, rate, burst, slo_s in cfg.tenants:
            registry.register(name, rate, burst, slo_s=slo_s)
        self.router = ClusterRouter(
            [
                (shard.name, host, port)
                for shard, (host, port) in zip(self.shards, endpoints)
            ],
            cfg.router_config(),
            registry=registry,
        )
        self.host, self.port = await self.router.start()
        if cfg.supervise:
            self.supervisor = ShardSupervisor(
                self.shards,
                self.router,
                cfg.supervisor_config(),
                rng=random.Random(cfg.supervisor_seed),
            )
            self.supervisor.start()
        return self.host, self.port

    async def drain(self) -> dict[str, Any]:
        """Supervisor off, router drains, then SIGTERM each shard."""
        assert self.router is not None
        if self.supervisor is not None:
            await self.supervisor.stop()
        alive_at_drain = {shard.name: shard.alive for shard in self.shards}
        summary = await self.router.drain()
        loop = asyncio.get_running_loop()
        exit_codes = await asyncio.gather(
            *(loop.run_in_executor(None, shard.terminate) for shard in self.shards)
        )
        summary["shard_exit_codes"] = {
            shard.name: code for shard, code in zip(self.shards, exit_codes)
        }
        # only a shard that was alive when the drain began owes a
        # lossless exit: one the router declared down (failover) or
        # that died before the drain (chaos kill) cannot drop anything
        # the router didn't already fail over and answer
        summary["clean"] = summary["clean"] and all(
            code == 0
            for shard, code in zip(self.shards, exit_codes)
            if shard.name not in self.router.down and alive_at_drain[shard.name]
        )
        if self.supervisor is not None:
            summary["restarts"] = dict(self.supervisor.restarts)
        return summary

    def request_shutdown(self) -> None:
        """Signal-safe: ask the router to drain (the cluster drain follows)."""
        assert self.router is not None
        self.router.request_shutdown()

    async def wait_shutdown(self) -> None:
        assert self.router is not None
        await self.router.wait_shutdown()

    def banner(self, host: str, port: int) -> str:
        cfg = self.config
        return "\n".join([
            f"repro-cluster [router] listening on {host}:{port} "
            f"(pid {os.getpid()}, {cfg.shards} shard(s) x "
            f"{cfg.workers_per_shard} worker(s), protocol v{PROTOCOL_VERSION})",
            *(f"repro-cluster [router]   {shard.name} at {shard.host}:{shard.port}"
              for shard in self.shards),
        ])

    def drained(self, summary: dict[str, Any]) -> str:
        return (
            drained_line("repro-cluster [router]", summary)
            + f", shard exits {summary['shard_exit_codes']}"
        )


def run(config: "ClusterConfig | None" = None) -> int:
    """Blocking entry point (the ``repro cluster start`` command body)."""
    return run_service(Cluster(config))


class ClusterThread(ServiceThread):
    """A full cluster hosted on a background thread — the test harness.

    Real shard subprocesses, real router sockets, real drain::

        with ClusterThread(ClusterConfig(shards=2)) as cluster:
            client = ServeClient(cluster.host, cluster.port)
            ...
    """

    role = "cluster"

    def __init__(self, config: "ClusterConfig | None" = None, *,
                 start_timeout: float = 300.0) -> None:
        self.config = config if config is not None else ClusterConfig()
        super().__init__(lambda: Cluster(self.config), start_timeout=start_timeout)

    @property
    def cluster(self) -> Cluster:
        return self.app

    @property
    def router(self) -> ClusterRouter:
        assert self.app.router is not None
        return self.app.router

    @property
    def shards(self) -> list[ShardProcess]:
        return self.app.shards

    @property
    def supervisor(self) -> "ShardSupervisor | None":
        return self.app.supervisor
