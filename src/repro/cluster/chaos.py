"""Deterministic chaos harness: seeded faults under replayed load.

"It fails over" is a claim; this module turns it into a measurement.
A chaos run drives a real cluster (spawned shard processes, router,
supervisor) with the PR 6 open-loop bounded-Pareto load replayer while
a *seeded fault schedule* fires against it:

* ``kill_shard`` — SIGKILL a shard at replayed-load time ``t`` (the
  supervisor must detect, restart with jittered backoff, and rejoin
  the ring);
* ``partition`` / ``heal`` — flag the router→shard link partitioned
  (every exchange refused, exactly a network partition from the
  router's point of view) and later heal it (the supervisor must
  quarantine, then rejoin without restarting the healthy process).

Everything observable is recorded against a monotonic timeline: ring
epoch transitions, the down set, the *degraded-capacity* live tenant
bounds captured while a shard is out (the bounds admission actually
quoted during the incident), per-tenant latencies, and the drain
verdict.  ``benchmarks/bench_chaos.py`` asserts floors over the
resulting :class:`ChaosReport` — zero accepted-then-lost requests,
served fraction, MTTR vs the heartbeat interval, p99 vs the degraded
bound — and CI runs the quick configuration on every push.

Determinism: the load schedule, the fault times, and the supervisor's
backoff jitter are all derived from explicit seeds, so a chaos run is
replayable bit-for-bit at the schedule level (wall-clock latencies of
course vary).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..serve.client import ServeClient
from .loadgen import ReplayReport, build_schedule, replay
from .orchestrator import ClusterConfig, ClusterThread

__all__ = [
    "FaultEvent",
    "ChaosReport",
    "chaos_schedule",
    "run_chaos",
    "tenant_table",
]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: when (replay-relative seconds), what, to whom."""

    at_s: float
    kind: str  # "kill_shard" | "partition" | "heal"
    target: str  # shard name

    def __post_init__(self) -> None:
        if self.kind not in ("kill_shard", "partition", "heal"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at_s < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_s}")


def chaos_schedule(
    *,
    seed: int,
    duration_s: float,
    shard_names: Sequence[str],
    kills: int = 1,
    partitions: int = 0,
    partition_span_s: float = 1.5,
) -> list[FaultEvent]:
    """A seeded fault schedule over the replay window.

    Kills land in the first half of the run (recovery needs the back
    half to be observable); partitions open in the first 40% and heal
    ``partition_span_s`` later.  Targets are drawn without replacement
    so one shard never eats two overlapping faults.
    """
    if not shard_names:
        raise ValueError("chaos_schedule needs at least one shard name")
    if kills + partitions > len(shard_names):
        raise ValueError(
            f"{kills} kill(s) + {partitions} partition(s) exceed "
            f"{len(shard_names)} shard(s)"
        )
    rng = random.Random(seed)
    targets = rng.sample(list(shard_names), kills + partitions)
    events: list[FaultEvent] = []
    for target in targets[:kills]:
        events.append(FaultEvent(
            at_s=rng.uniform(0.15, 0.50) * duration_s,
            kind="kill_shard",
            target=target,
        ))
    for target in targets[kills:]:
        start = rng.uniform(0.15, 0.40) * duration_s
        events.append(FaultEvent(at_s=start, kind="partition", target=target))
        events.append(FaultEvent(
            at_s=min(start + partition_span_s, 0.85 * duration_s),
            kind="heal",
            target=target,
        ))
    return sorted(events, key=lambda e: e.at_s)


@dataclass
class ChaosReport:
    """Everything a chaos run measured, floor-assertable."""

    replay: "ReplayReport | None" = None
    faults: list[dict[str, Any]] = field(default_factory=list)
    ring_epoch_initial: int = 0
    ring_epoch_final: int = 0
    #: per killed/partitioned shard: seconds from fault injection to
    #: the ring-epoch-bumping rejoin (None = never recovered in window)
    recovery_s: dict[str, "float | None"] = field(default_factory=dict)
    recovered: bool = False
    #: live per-tenant bounds captured while capacity was degraded
    degraded_bounds_s: dict[str, "float | None"] = field(default_factory=dict)
    degraded_down: list[str] = field(default_factory=list)
    final_bounds_s: dict[str, "float | None"] = field(default_factory=dict)
    supervisor: "dict[str, Any] | None" = None
    tenant_table: dict[str, dict[str, Any]] = field(default_factory=dict)
    drain: "dict[str, Any] | None" = None

    @property
    def accepted_then_lost(self) -> int:
        """Offered requests neither served nor cleanly rejected.

        The zero-loss invariant: every request either got its result
        (possibly after mid-request failover) or an explicit 429 shed.
        Anything else — transport error, 5xx, dropped in drain — is a
        request the cluster accepted responsibility for and lost.
        """
        if self.replay is None:
            return 0
        lost = self.replay.errors
        if self.drain is not None:
            lost += int(self.drain.get("dropped", 0))
        return lost

    @property
    def served_fraction(self) -> float:
        if self.replay is None or self.replay.offered == 0:
            return 0.0
        return self.replay.ok / self.replay.offered

    def p99_under_degraded_bound(self) -> dict[str, "bool | None"]:
        """Per tenant: observed p99 <= the degraded-capacity live bound.

        Falls back to the final (restored-capacity, i.e. *tighter*)
        bound when the degraded window was too short to sample — the
        fallback is strictly harder to pass, never easier.
        """
        out: dict[str, "bool | None"] = {}
        if self.replay is None:
            return out
        for name, doc in self.replay.per_tenant.items():
            p99 = doc.get("p99_s")
            bound = self.degraded_bounds_s.get(name, self.final_bounds_s.get(name))
            if bound is None:
                bound = self.final_bounds_s.get(name)
            out[name] = None if (p99 is None or bound is None) else p99 <= bound
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "replay": self.replay.to_dict() if self.replay is not None else None,
            "faults": self.faults,
            "ring_epoch_initial": self.ring_epoch_initial,
            "ring_epoch_final": self.ring_epoch_final,
            "recovery_s": self.recovery_s,
            "recovered": self.recovered,
            "accepted_then_lost": self.accepted_then_lost,
            "served_fraction": self.served_fraction,
            "degraded_bounds_s": self.degraded_bounds_s,
            "degraded_down": self.degraded_down,
            "final_bounds_s": self.final_bounds_s,
            "p99_under_degraded_bound": self.p99_under_degraded_bound(),
            "supervisor": self.supervisor,
            "tenant_table": self.tenant_table,
            "drain": self.drain,
        }


def tenant_table(host: str, port: int) -> dict[str, dict[str, Any]]:
    """The durable part of the registry: name -> (R, b, SLO).

    Two calls around a router bounce must return identical tables when
    a journal path makes the table durable — the acceptance check for
    durable tenant state.
    """
    with ServeClient(host, port, connect_retries=6) as client:
        doc = client.tenants()["result"]
    return {
        t["name"]: {
            "rate_rps": t["rate_rps"],
            "burst_requests": t["burst_requests"],
            "slo_s": t["slo_s"],
        }
        for t in doc["tenants"]
    }


def _live_bounds(capacity: dict[str, Any]) -> dict[str, "float | None"]:
    return {
        t["name"]: t.get("delay_bound_s")
        for t in (capacity.get("tenants") or {}).get("tenants", [])
    }


def run_chaos(
    config: ClusterConfig,
    faults: Sequence[FaultEvent],
    *,
    model: Mapping[str, Any],
    duration_s: float,
    rate_rps: float,
    tenants: "Sequence[tuple[str, float]] | None" = None,
    point_pool: "Sequence[Mapping[str, Any]] | None" = None,
    seed: int = 42,
    connections: int = 6,
    recovery_wait_s: "float | None" = None,
    monitor_interval_s: float = 0.05,
) -> ChaosReport:
    """One chaos run: cluster up, faults + load concurrently, report.

    ``recovery_wait_s`` bounds how long after the replay we keep
    waiting for every faulted shard to rejoin (default: 3 heartbeats +
    a 15 s restart allowance).
    """
    schedule = build_schedule(
        duration_s=duration_s,
        rate_rps=rate_rps,
        tenants=tenants,
        point_pool=point_pool,
        seed=seed,
    )
    if recovery_wait_s is None:
        recovery_wait_s = 3.0 * config.heartbeat_interval_s + 15.0
    report = ChaosReport()
    faulted = sorted({f.target for f in faults})

    with ClusterThread(config) as handle:
        router = handle.router
        report.ring_epoch_initial = router.ring_epoch
        stop_monitor = threading.Event()
        t0 = time.monotonic() + 0.25  # shared epoch for load + faults
        fault_log: list[dict[str, Any]] = []
        # per-target fault injection time and observed rejoin time
        injected_at: dict[str, float] = {}
        rejoined_at: dict[str, float] = {}

        def monitor() -> None:
            """Poll membership; snapshot degraded bounds while down."""
            seen_down: set[str] = set()
            while not stop_monitor.is_set():
                down = set(router.down)
                for name in down - seen_down:
                    seen_down.add(name)
                for name in list(injected_at):
                    if (
                        name not in rejoined_at
                        and name in seen_down
                        and name not in down
                    ):
                        rejoined_at[name] = time.monotonic()
                if down and not report.degraded_bounds_s:
                    try:
                        with ServeClient(
                            handle.host, handle.port, connect_retries=2
                        ) as client:
                            capacity = client.capacity()["result"]
                        report.degraded_bounds_s = _live_bounds(capacity)
                        report.degraded_down = sorted(down)
                    except (ConnectionError, OSError):
                        pass
                stop_monitor.wait(monitor_interval_s)

        def inject() -> None:
            shards = {shard.name: shard for shard in handle.shards}
            for fault in sorted(faults, key=lambda f: f.at_s):
                delay = t0 + fault.at_s - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                now = time.monotonic()
                if fault.kind == "kill_shard":
                    shards[fault.target].kill()
                    injected_at.setdefault(fault.target, now)
                elif fault.kind == "partition":
                    router.links[fault.target].partitioned = True
                    injected_at.setdefault(fault.target, now)
                else:  # heal
                    router.links[fault.target].partitioned = False
                fault_log.append({
                    "kind": fault.kind,
                    "target": fault.target,
                    "scheduled_at_s": fault.at_s,
                    "applied_at_s": now - t0,
                })

        monitor_thread = threading.Thread(target=monitor, daemon=True)
        fault_thread = threading.Thread(target=inject, daemon=True)
        monitor_thread.start()
        fault_thread.start()
        report.replay = replay(
            handle.host, handle.port, schedule,
            model=model, connections=connections,
        )
        fault_thread.join()
        # the replay may end mid-recovery: give the supervisor its window
        deadline = time.monotonic() + recovery_wait_s
        while time.monotonic() < deadline:
            if not router.down and all(t in rejoined_at for t in injected_at):
                break
            time.sleep(monitor_interval_s)
        stop_monitor.set()
        monitor_thread.join(5.0)

        for name in faulted:
            t_in = injected_at.get(name)
            t_out = rejoined_at.get(name)
            report.recovery_s[name] = (
                None if t_in is None or t_out is None else t_out - t_in
            )
        report.recovered = not router.down and all(
            report.recovery_s.get(name) is not None for name in injected_at
        )
        report.ring_epoch_final = router.ring_epoch
        if handle.supervisor is not None:
            report.supervisor = handle.supervisor.snapshot()
        try:
            with ServeClient(handle.host, handle.port, connect_retries=4) as client:
                report.final_bounds_s = _live_bounds(client.capacity()["result"])
            report.tenant_table = tenant_table(handle.host, handle.port)
        except (ConnectionError, OSError):
            pass
        report.faults = fault_log
        report.drain = handle.stop()
    return report
