"""The cluster router: digest-affinity forwarding + tenant admission.

One asyncio process that speaks the same NDJSON protocol as a shard
(:mod:`repro.serve.protocol`) and sits in front of N shards.  It is a
:class:`~repro.serve.service.NdjsonService`, so listener, framing,
in-flight accounting and drain are the shell's; this module adds the
dispatch, the beta rollup at startup, and the release of the shard
links:

* **Routing** — evaluation requests are hashed by the *content digest*
  (:func:`repro.sweep.cache.point_key` over model+params+options, the
  same key the sweep cache and every shard's result cache use), then
  routed on a consistent-hash ring.  Identical analyses always hit the
  same shard, so shard-local result caches stay hot.
* **Tenant admission** — the router runs the cluster's NC front door:
  each tenant's declared leaky bucket is enforced here (429 with a
  live per-tenant residual-service delay bound), and ``/capacity``
  reports the paper's aggregate ``sum alpha_i`` against the cluster
  beta rolled up from each shard's self-calibrated service curve.
* **Failover** — a shard that dies mid-request (connection refused,
  reset, EOF before a response line, or a per-exchange timeout from a
  hung-but-accepting process) is marked down and the request is
  re-forwarded to the ring successor; the event is counted in
  ``cluster.failover`` and the shard shows up in ``/stats`` as down.
* **Self-healing** — membership is no longer fixed at start.  Every
  membership change (a shard marked down, a supervised restart
  rejoining via :meth:`ClusterRouter.rejoin_shard`) bumps the **ring
  epoch** surfaced in ``/stats`` and *retightens admission*: the
  rolled-up beta is recomputed from the surviving shards, so every
  tenant's live FIFO-residual bound reflects degraded capacity and the
  router sheds (429 with ``retry_after_s``) rather than over-admitting
  while a shard is down — the paper's ``sum alpha_i <= beta``
  invariant, enforced across failures.  Shard health has one path:
  the first failed exchange puts a shard in the ``down`` set, no
  request path (forward or fan-out) contacts a shard in ``down``, and
  only a supervisor probe or restart takes it out again.  A registry
  with a path (:class:`~repro.cluster.tenants.TenantRegistry`) has a
  registration on disk before the router answers it, so the tenant
  table survives a router bounce.

Down shards stay *in* the blake2b ring but are skipped by the
preference walk, so live routing is exactly the ring-minus-down-shards
remapping pinned by ``tests/cluster/test_ring.py`` (removing a node
remaps only its keys, onto their preference successors), and a rejoin
restores the original ownership — shard-local caches stay warm through
a crash/restart cycle.

The router forwards the client's *raw request line* unchanged — the
shard re-validates and the response ``id`` matches without any
re-writing; the router only injects routing metadata (``shard``,
``failover``) into the response result.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import time
from typing import Any

from .. import __version__
from ..nc.builders import rate_latency
from ..nc.curve import Curve
from ..sweep.cache import point_key
from ..telemetry.metrics import MetricsRegistry
from ..serve.admission import count_rejection
from ..serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Request,
    encode,
    error_response,
    ok_response,
)
from ..serve.service import NdjsonService
from .ring import HashRing
from .tenants import TenantRegistry

__all__ = ["ShardDown", "ShardLink", "ClusterRouter"]


class ShardDown(ConnectionError):
    """The shard did not answer: refused, reset, EOF, or exchange timeout."""


class ShardLink:
    """A small connection pool from the router to one shard.

    Every exchange is bounded by ``timeout_s``: a hung-but-accepting
    shard must not wedge the router's request path.  A timeout surfaces
    as :class:`ShardDown`, like a refused, reset or half-answered
    exchange, so the router's failover walk (mark down, try the ring
    successor) handles them all alike.

    ``partitioned`` is the deterministic fault-injection hook used by
    :mod:`repro.cluster.chaos`: while set, the link behaves exactly
    like a network partition between router and shard (every exchange
    refused), without touching the shard process.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        timeout_s: float,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.partitioned = False
        self._free: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def exchange(self, frame: bytes) -> dict[str, Any]:
        """One request line out, one response line back, over a pooled conn."""
        if self.partitioned:
            raise ShardDown(f"shard {self.name!r} unreachable (link partitioned)")
        try:
            return await asyncio.wait_for(self._exchange(frame), self.timeout_s)
        except asyncio.TimeoutError:
            raise ShardDown(
                f"shard {self.name!r} did not answer within {self.timeout_s} s"
            ) from None

    async def _exchange(self, frame: bytes) -> dict[str, Any]:
        if self._free:
            reader, writer = self._free.pop()
        else:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES
                )
            except (ConnectionError, OSError) as exc:
                raise ShardDown(f"shard {self.name!r} refused: {exc}") from exc
        try:
            writer.write(frame)
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ShardDown(f"shard {self.name!r} closed mid-exchange")
            doc = json.loads(line)
        except ShardDown:
            self._discard(writer)
            raise
        except asyncio.CancelledError:
            # the wait_for timeout (or shutdown) cancelled us mid-I/O;
            # the connection is in an unknown framing state — drop it
            self._discard(writer)
            raise
        except (ConnectionError, OSError, ValueError) as exc:
            self._discard(writer)
            raise ShardDown(f"shard {self.name!r} failed: {exc}") from exc
        self._free.append((reader, writer))
        return doc

    def _discard(self, writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(Exception):
            writer.close()

    async def aclose(self) -> None:
        for _reader, writer in self._free:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
        self._free.clear()


class ClusterRouter(NdjsonService):
    """The listener that fronts the shard set.

    ``port`` 0 binds an ephemeral port; ``forward_timeout_s`` bounds
    every exchange with a shard (shard knobs live in each shard's
    ServeConfig).
    """

    prefix = "cluster"

    def __init__(
        self,
        shards: "list[tuple[str, str, int]]",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        forward_timeout_s: float = 60.0,
        drain_timeout_s: float = 10.0,
        registry: "TenantRegistry | None" = None,
    ) -> None:
        if not shards:
            raise ValueError("ClusterRouter needs at least one shard")
        super().__init__(
            host, port, drain_timeout_s=drain_timeout_s, metrics=MetricsRegistry(),
        )
        self.forward_timeout_s = forward_timeout_s
        self.links = {
            name: self._make_link(name, host, port) for name, host, port in shards
        }
        self.ring = HashRing(self.links)
        self.registry = registry if registry is not None else TenantRegistry()
        self.down: set[str] = set()
        #: bumped on every membership change (shard lost or rejoined);
        #: lets clients and the chaos harness observe ring transitions
        self.ring_epoch = 1
        #: attached by the orchestrator when supervision is enabled
        self.supervisor: "Any | None" = None
        self._beta_refresh_task: "asyncio.Task[Any] | None" = None
        self.beta: "Curve | None" = None
        self.beta_info: "dict[str, Any] | None" = None

    # ------------------------------------------------------------------ #
    # lifecycle (the shell drives it)
    # ------------------------------------------------------------------ #

    async def _startup(self) -> None:
        await self.refresh_beta()

    async def _release(self) -> None:
        """Stop the beta refresh and close the shard links."""
        if self._beta_refresh_task is not None and not self._beta_refresh_task.done():
            self._beta_refresh_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, ShardDown):
                await self._beta_refresh_task
        for link in self.links.values():
            await link.aclose()

    # ------------------------------------------------------------------ #
    # cluster beta (rolled up from shard self-models)
    # ------------------------------------------------------------------ #

    async def refresh_beta(self) -> "Curve | None":
        """Ask every live shard for its capacity and roll it up (:meth:`_roll_up`)."""
        return self._roll_up(await self._fan_out("capacity"))

    def _roll_up(self, reports: dict[str, Any]) -> "Curve | None":
        """Roll the shards' ``capacity`` answers into one cluster service curve.

        A shard contributes its *admission envelope* rate when one is
        configured (traffic beyond that is 429'd by the shard itself,
        so that is the service the cluster can actually promise) and
        its measured service rate otherwise; latency is the worst
        shard's dispatch latency.  ``beta(t) = (sum R_i)(t - max T_i)``
        — the parallel-server aggregation the scale benchmark measures.
        """
        rates: list[float] = []
        latencies: list[float] = [0.0]
        per_shard: dict[str, Any] = {}
        for name, doc in reports.items():
            if not isinstance(doc, dict) or not doc.get("ok"):
                continue
            report = doc.get("result") or {}
            envelope = report.get("arrival_curve") or {}
            service = report.get("service_curve") or {}
            rate = envelope.get("rate_rps")
            if rate is None:
                rate = service.get("service_rate_rps")
            if rate is None:
                continue
            rates.append(float(rate))
            latencies.append(float(service.get("dispatch_latency_s") or 0.0))
            per_shard[name] = {"rate_rps": float(rate)}
        if not rates:
            self.beta = None
            self.beta_info = None
            return None
        total_rate = sum(rates)
        latency = max(latencies)
        self.beta = rate_latency(total_rate, latency)
        self.beta_info = {
            "kind": "rate_latency",
            "rate_rps": total_rate,
            "latency_s": latency,
            "shards": per_shard,
        }
        return self.beta

    async def _fan_out(self, op: str) -> dict[str, Any]:
        """Send one introspection op to every live shard concurrently.

        Every shard gets an entry; a failed one answers ``None``.  A
        shard that is in ``down`` when its ask starts (also one that a
        concurrent request put there after the gather began) answers
        ``None`` without being contacted.
        """

        async def ask(name: str) -> tuple[str, Any]:
            if name in self.down:
                return name, None
            frame = encode({"v": PROTOCOL_VERSION, "id": f"router-{op}", "op": op})
            try:
                return name, await self.links[name].exchange(frame)
            except ShardDown:
                self._mark_down(name)
                return name, None

        return dict(await asyncio.gather(*(ask(name) for name in self.links)))

    # ------------------------------------------------------------------ #
    # membership: mark down, rejoin, retighten
    # ------------------------------------------------------------------ #

    def _make_link(self, name: str, host: str, port: int) -> ShardLink:
        return ShardLink(name, host, port, timeout_s=self.forward_timeout_s)

    def _mark_down(self, name: str) -> None:
        if name not in self.down:
            self.down.add(name)
            self.ring_epoch += 1
            # admission must retighten against the *surviving* capacity:
            # with a stale (larger) beta the router would keep quoting
            # pre-failure bounds and over-admit into the degraded cluster
            self._schedule_beta_refresh()

    def _schedule_beta_refresh(self) -> None:
        """Recompute the rolled-up beta as soon as the loop breathes.

        Coalesces bursts (several shards failing in one gather) into a
        single refresh; a no-op outside a running loop (unit tests that
        poke the router synchronously).
        """
        if self._beta_refresh_task is not None and not self._beta_refresh_task.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return
        self._beta_refresh_task = loop.create_task(self.refresh_beta())

    async def rejoin_shard(self, name: str, host: str, port: int) -> None:
        """Re-insert a recovered shard and loosen admission back up.

        Called by the supervisor once a restarted (or heal-probed)
        shard answers pings again.  Same endpoint → the existing link
        is kept; a new endpoint (the restart path: replacement processes
        bind ephemeral ports) → the old link is closed and replaced.
        Either way the shard leaves the down set, the ring epoch bumps,
        and beta is recomputed so tenant bounds retighten to the
        restored capacity.
        """
        if name not in self.links:
            raise ValueError(f"unknown shard {name!r}")
        link = self.links[name]
        if (link.host, link.port) != (host, port):
            await link.aclose()
            self.links[name] = self._make_link(name, host, port)
        self.down.discard(name)
        self.ring_epoch += 1
        await self.refresh_beta()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch(self, req: Request, raw: bytes) -> dict[str, Any]:
        if req.op == "ping":
            return ok_response(req.id, {
                "pong": True, "role": "router", "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "shards": sorted(self.links),
                "down": sorted(self.down),
                "ring_epoch": self.ring_epoch,
            })
        if req.op == "register_tenant":
            return await self._register_tenant(req)
        if req.op == "tenants":
            await self.refresh_beta()
            return ok_response(req.id, self.registry.report(beta=self.beta))
        if req.op == "capacity":
            return await self._capacity(req)
        if req.op == "stats":
            return await self._stats(req)
        if req.op == "shutdown":
            self.request_shutdown()
            return ok_response(req.id, {"draining": True})
        if self.draining:
            return error_response(
                req.id, status=503, code="draining", message="router is draining"
            )
        return await self._forward(req, raw)

    # ------------------------------------------------------------------ #
    # tenant registry ops
    # ------------------------------------------------------------------ #

    async def _register_tenant(self, req: Request) -> dict[str, Any]:
        assert req.tenant is not None  # parse_request enforces it
        await self.refresh_beta()
        # a durable registry is on disk when this returns, before the
        # answer (a rare control-plane op: the fsync'd rewrite may block
        # the loop)
        tenant = self.registry.register(
            req.tenant,
            req.options["rate"],
            req.options["burst"],
            slo_s=req.options.get("slo_s"),
        )
        doc = tenant.to_dict()
        if self.beta is not None:
            bound = self.registry.tenant_delay_bound(tenant.name, self.beta)
            doc["delay_bound_s"] = None if math.isinf(bound) else bound
            agg = self.registry.aggregate_delay_bound(self.beta)
            doc["aggregate_delay_bound_s"] = None if math.isinf(agg) else agg
            doc["stable"] = not math.isinf(agg)
        return ok_response(req.id, doc)

    # ------------------------------------------------------------------ #
    # rolled-up introspection
    # ------------------------------------------------------------------ #

    async def _capacity(self, req: Request) -> dict[str, Any]:
        reports = await self._fan_out("capacity")
        self._roll_up(reports)
        shards = {
            name: (doc.get("result") if isinstance(doc, dict) else None)
            for name, doc in reports.items()
        }
        return ok_response(req.id, {
            "role": "router",
            "cluster_service_curve": self.beta_info,
            "shards": shards,
            "down": sorted(self.down),
            "tenants": self.registry.report(beta=self.beta),
        })

    async def _stats(self, req: Request) -> dict[str, Any]:
        reports = await self._fan_out("stats")
        shards = {
            name: (doc.get("result") if isinstance(doc, dict) else None)
            for name, doc in reports.items()
        }
        return ok_response(req.id, {
            "role": "router",
            "router": self.metrics.snapshot(),
            "shards": shards,
            "down": sorted(self.down),
            "inflight": self.inflight,
            "ring_epoch": self.ring_epoch,
            "supervisor": (
                self.supervisor.snapshot() if self.supervisor is not None else None
            ),
            "journal": (
                {"path": str(self.registry.path), "tenants": len(self.registry)}
                if self.registry.path is not None else None
            ),
        })

    # ------------------------------------------------------------------ #
    # the forwarding path
    # ------------------------------------------------------------------ #

    async def _forward(self, req: Request, raw: bytes) -> dict[str, Any]:
        t0 = time.perf_counter()
        if req.tenant is not None:
            self.metrics.counter(f"cluster.tenant.{req.tenant}.requests").inc()
        admitted, code, retry_after = self.registry.admit(req.tenant, beta=self.beta)
        if not admitted:
            count_rejection(self.metrics, self.prefix, code, req.tenant)
            bound = None
            if req.tenant is not None and self.beta is not None \
                    and self.registry.get(req.tenant) is not None:
                b = self.registry.tenant_delay_bound(req.tenant, self.beta)
                bound = None if math.isinf(b) else b
            return error_response(
                req.id, status=429, code=code,
                message="tenant admission rejected the request "
                "(offered load exceeds the declared alpha or the tenant SLO)",
                retry_after_s=retry_after,
                tenant=req.tenant,
                delay_bound_s=bound,
            )
        # the routing digest IS the cache key: affinity and caching agree
        digest = point_key(req.model or {}, req.params, req.options)
        attempts = 0
        for name in self.ring.preference(digest):
            if name in self.down:
                continue
            attempts += 1
            self.metrics.counter(f"cluster.shard.{name}.requests").inc()
            try:
                # the link applies the per-exchange timeout itself and
                # surfaces it as ShardDown, so a hung-but-accepting
                # shard fails over exactly like a dead one
                doc = await self.links[name].exchange(raw)
            except ShardDown:
                self._mark_down(name)
                self.metrics.counter("cluster.failover").inc()
                continue
            if doc.get("ok") and isinstance(doc.get("result"), dict):
                doc["result"]["shard"] = name
                if attempts > 1:
                    doc["result"]["failover"] = True
            elapsed = time.perf_counter() - t0
            self.metrics.histogram("cluster.latency_s").observe(elapsed)
            if req.tenant is not None:
                self.metrics.histogram(
                    f"cluster.tenant.{req.tenant}.latency_s"
                ).observe(elapsed)
                if doc.get("ok"):
                    self.metrics.counter(f"cluster.tenant.{req.tenant}.responses").inc()
            return doc
        return error_response(
            req.id, status=503, code="no_shards",
            message="no live shard can serve the request "
            f"({len(self.down)}/{len(self.links)} shards down)",
        )
