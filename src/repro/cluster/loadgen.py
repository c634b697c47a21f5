"""Open-loop heavy-tailed load replay with a tenant mix.

The scale benchmark and the failure-injection tests need *offered*
load, not closed-loop load: a closed loop (send, wait, send) slows down
exactly when the system does, which hides capacity limits — the
admission story only shows when excess traffic keeps arriving.  This
module builds a deterministic open-loop schedule and replays it against
a router (or a single server) over real sockets.

Schedule construction is fully deterministic from one seed
(:func:`repro.des.distributions.spawn_rngs`): inter-arrival gaps are
drawn from a bounded Pareto (the classic heavy-tailed traffic model,
same distribution family the DES workloads use), rescaled so the
schedule spans exactly ``duration_s`` with ``duration_s * rate_rps``
events; each event is assigned a tenant by weighted draw and a
parameter point from a small pool — repeats are the point, they are
what digest-affinity routing turns into shard-local cache hits.

Replay runs one thread per connection; each thread sleeps until an
event's scheduled time and sends regardless of how previous responses
fared (within a connection, a slow response delays that connection's
next event — with enough connections the offered process stays
effectively open-loop).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..serve.client import ServeClient

__all__ = ["ScheduledRequest", "ReplayReport", "build_schedule", "replay"]


@dataclass(frozen=True)
class ScheduledRequest:
    """One event of the offered load: when, who, and which analysis."""

    at_s: float
    tenant: "str | None"
    params: dict[str, Any]


def _quantile(values: Sequence[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def build_schedule(
    *,
    duration_s: float,
    rate_rps: float,
    tenants: "Sequence[tuple[str, float]] | None" = None,
    point_pool: "Sequence[Mapping[str, Any]] | None" = None,
    seed: int = 42,
    pareto_shape: float = 1.5,
) -> list[ScheduledRequest]:
    """A deterministic open-loop schedule of ``duration_s * rate_rps`` events.

    ``tenants`` is a ``(name, weight)`` mix (None → anonymous traffic);
    ``point_pool`` the distinct parameter points to draw from (None →
    a single default point, the pure cache-affinity worst case for
    load and best case for hit rate).
    """
    if duration_s <= 0 or rate_rps <= 0:
        raise ValueError("duration_s and rate_rps must be > 0")
    # the load generator's draws, not the cluster it drives, need NumPy
    import numpy as np

    from ..des.distributions import bounded_pareto, spawn_rngs

    count = max(1, int(round(duration_s * rate_rps)))
    gap_rng, tenant_rng, point_rng = spawn_rngs(seed, 3)
    # heavy-tailed gaps: mean 1/rate, truncated to [1/50, 20]x the mean
    mean_gap = 1.0 / rate_rps
    gap_dist = bounded_pareto(pareto_shape, mean_gap / 50.0, mean_gap * 20.0)
    gaps = np.array([gap_dist(gap_rng) for _ in range(count)])
    times = np.cumsum(gaps)
    times *= duration_s / float(times[-1])  # exact span, burstiness preserved
    if tenants:
        names = [name for name, _ in tenants]
        weights = np.array([w for _, w in tenants], dtype=float)
        weights /= weights.sum()
        assigned = tenant_rng.choice(len(names), size=count, p=weights)
    else:
        names, assigned = [], np.zeros(count, dtype=int)
    pool = [dict(p) for p in point_pool] if point_pool else [{}]
    picks = point_rng.integers(0, len(pool), size=count)
    return [
        ScheduledRequest(
            at_s=float(times[i]),
            tenant=names[assigned[i]] if tenants else None,
            params=pool[int(picks[i])],
        )
        for i in range(count)
    ]


@dataclass
class ReplayReport:
    """What actually happened when the schedule was offered."""

    duration_s: float = 0.0
    offered: int = 0
    ok: int = 0
    rejected: int = 0
    errors: int = 0
    cached: int = 0
    latencies_s: list[float] = field(default_factory=list)
    per_tenant: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def offered_rps(self) -> float:
        return self.offered / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def served_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "duration_s": self.duration_s,
            "offered": self.offered,
            "offered_rps": self.offered_rps,
            "ok": self.ok,
            "served_rps": self.served_rps,
            "rejected": self.rejected,
            "errors": self.errors,
            "cached": self.cached,
            "latency_p50_s": _quantile(self.latencies_s, 0.50),
            "latency_p99_s": _quantile(self.latencies_s, 0.99),
            "tenants": self.per_tenant,
        }


def replay(
    host: str,
    port: int,
    schedule: Sequence[ScheduledRequest],
    *,
    model: Mapping[str, Any],
    connections: int = 8,
    op: str = "analyze",
    request_timeout_s: float = 60.0,
) -> ReplayReport:
    """Offer the schedule over ``connections`` parallel sockets."""
    if not schedule:
        raise ValueError("empty schedule")
    report = ReplayReport()
    lock = threading.Lock()
    tenant_lat: dict[str, list[float]] = {}

    def record(event: ScheduledRequest, response: "dict[str, Any] | None",
               latency: float) -> None:
        with lock:
            report.offered += 1
            doc: dict[str, Any] = {}
            if event.tenant is not None:
                doc = report.per_tenant.setdefault(
                    event.tenant,
                    {"offered": 0, "ok": 0, "rejected": 0, "errors": 0},
                )
                doc["offered"] += 1
            if response is None:
                report.errors += 1
                if doc:
                    doc["errors"] += 1
            elif response.get("ok"):
                report.ok += 1
                report.latencies_s.append(latency)
                if (response.get("result") or {}).get("cached"):
                    report.cached += 1
                if doc:
                    doc["ok"] += 1
                    tenant_lat.setdefault(event.tenant, []).append(latency)
            elif response.get("status") == 429:
                report.rejected += 1
                if doc:
                    doc["rejected"] += 1
            else:
                report.errors += 1
                if doc:
                    doc["errors"] += 1

    def worker(events: "list[ScheduledRequest]", t0: float) -> None:
        client = ServeClient(
            host, port, timeout=request_timeout_s, connect_retries=6
        )
        try:
            client.connect()
            for idx, event in enumerate(events):
                delay = t0 + event.at_s - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    response = client.request(
                        op, model=model, params=event.params, tenant=event.tenant
                    )
                except (ConnectionError, OSError):
                    record(event, None, 0.0)
                    # the far side dropped this connection; reconnect so
                    # the rest of this lane's schedule still gets offered
                    client.close()
                    try:
                        client.connect()
                    except ConnectionError:
                        for rest in events[idx + 1:]:
                            record(rest, None, 0.0)
                        return
                    continue
                record(event, response, time.perf_counter() - sent)
        finally:
            client.close()

    lanes: list[list[ScheduledRequest]] = [[] for _ in range(max(1, connections))]
    for i, event in enumerate(schedule):
        lanes[i % len(lanes)].append(event)
    t0 = time.monotonic() + 0.05  # common epoch, slightly in the future
    threads = [
        threading.Thread(target=worker, args=(lane, t0), daemon=True)
        for lane in lanes
        if lane
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.duration_s = time.perf_counter() - start
    for tenant, lats in tenant_lat.items():
        report.per_tenant[tenant]["p50_s"] = _quantile(lats, 0.50)
        report.per_tenant[tenant]["p99_s"] = _quantile(lats, 0.99)
    return report
