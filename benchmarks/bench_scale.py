"""Cluster scaling benchmark: capacity vs shard count under replayed load.

Drives a real :class:`~repro.cluster.ClusterThread` (shard processes
forked from the router, consistent-hash router, tenant registry) at 1,
2 and 4 shards with the *same* open-loop heavy-tailed schedule and
records:

* aggregate served throughput per shard count — on this class of
  container the shards share one core, so scaling is **capacity
  provisioned**: each shard carries an explicit ``--shard-rate``
  admission envelope and tenants are provisioned to ~70% of the
  cluster's summed envelope.  Adding shards adds admitted capacity
  (the paper's aggregation model, Sec. 3), not CPU parallelism;
* digest-affinity cache effectiveness — the router hashes the same
  content digest the caches key on, so repeated points must hit the
  shard-local cache (>= 0.7 per shard with traffic);
* per-tenant observed p99 against the router's *live* per-tenant FIFO
  residual delay bound from ``/capacity`` — the paper's
  bound-vs-observed methodology applied to the cluster itself.

Run as a script for the full record (writes ``BENCH_scale.json``):

    PYTHONPATH=src python benchmarks/bench_scale.py

``--quick`` runs 1 and 2 shards with a shorter replay (the CI smoke
configuration, >= 1.2x floor).  Under pytest, the quick configuration
keeps the invariants covered cheaply.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.apps.blast import blast_pipeline
from repro.cluster import ClusterConfig, ClusterThread, build_schedule, replay
from repro.serve import ServeClient
from repro.streaming import pipeline_to_dict

MODEL = pipeline_to_dict(blast_pipeline())

# Per-shard admission envelope (requests/s).  40 rps/shard is far under
# the single-core serve ceiling (~600 rps warm), so the envelope — not
# the CPU — is the binding constraint at every shard count and the
# scaling measurement stays honest on a one-core container.
SHARD_RATE = 40.0
SHARD_BURST = 80.0
TENANTS = ("alpha", "bravo")
# Tenants jointly subscribe ~70% of the summed shard envelopes, keeping
# sum(alpha_i) strictly inside beta so every live bound stays finite.
TENANT_SUBSCRIPTION = 0.70
TENANT_BURST = 12.0
# 12 distinct points: enough to spread over 4 shards (every shard owns
# at least one under the canonical ring), few enough that replays are
# dominated by repeats and the affinity hit rate is measurable.
POINT_POOL = [{"scale:network": 1.0 + 0.25 * i} for i in range(12)]


def _quantile(sorted_xs: list[float], q: float) -> float:
    if not sorted_xs:
        return float("nan")
    idx = min(len(sorted_xs) - 1, int(q * (len(sorted_xs) - 1) + 0.5))
    return sorted_xs[idx]


def _shard_cache_rates(stats: dict) -> dict[str, float | None]:
    """Per-shard cache hit rate from the rolled-up ``/stats`` document."""
    rates: dict[str, float | None] = {}
    for name, doc in stats["shards"].items():
        if doc is None:
            rates[name] = None
            continue
        metrics = doc["metrics"]
        hits = metrics.get("serve.cache.hits", {}).get("value", 0)
        total = hits + metrics.get("serve.cache.misses", {}).get("value", 0)
        rates[name] = hits / total if total else None
    return rates


def _run_scale_point(
    shards: int,
    *,
    duration_s: float,
    offered_rps: float,
    cache_root: Path,
    seed: int = 42,
) -> dict:
    """One cluster at ``shards`` shards, replaying the canonical load."""
    tenant_rate = TENANT_SUBSCRIPTION * SHARD_RATE * shards / len(TENANTS)
    config = ClusterConfig(
        shards=shards,
        workers_per_shard=1,
        calibrate=2,
        shard_rate=SHARD_RATE,
        shard_burst=SHARD_BURST,
        cache_dir=str(cache_root / f"shards-{shards}"),
        tenants=[(name, tenant_rate, TENANT_BURST, None) for name in TENANTS],
    )
    schedule = build_schedule(
        duration_s=duration_s,
        rate_rps=offered_rps,
        tenants=[(name, 1.0) for name in TENANTS],
        point_pool=POINT_POOL,
        seed=seed,
    )
    t0 = time.perf_counter()
    with ClusterThread(config) as handle:
        startup_s = time.perf_counter() - t0
        report = replay(
            handle.host, handle.port, schedule, model=MODEL, connections=6
        )
        with ServeClient(handle.host, handle.port, connect_retries=4) as c:
            capacity = c.capacity()["result"]
            stats = c.stats()["result"]
        summary = handle.stop()
    assert summary["clean"], f"drain dropped requests: {summary}"

    live_bounds = {
        doc["name"]: doc["delay_bound_s"]
        for doc in capacity["tenants"]["tenants"]
    }
    tenants = {}
    for name in TENANTS:
        doc = dict(report.per_tenant.get(name, {}))
        doc["live_delay_bound_s"] = live_bounds.get(name)
        doc["p99_under_bound"] = (
            doc.get("p99_s") is not None
            and doc["live_delay_bound_s"] is not None
            and doc["p99_s"] <= doc["live_delay_bound_s"]
        )
        tenants[name] = doc

    cache_rates = _shard_cache_rates(stats)
    active_rates = [r for r in cache_rates.values() if r is not None]
    return {
        "shards": shards,
        "tenant_rate_rps": tenant_rate,
        "offered": report.offered,
        "offered_rps": report.offered_rps,
        "ok": report.ok,
        "rejected": report.rejected,
        "errors": report.errors,
        "served_rps": report.served_rps,
        "cluster_rate_rps": capacity["cluster_service_curve"]["rate_rps"],
        "aggregate_delay_bound_s": capacity["tenants"]["aggregate"][
            "delay_bound_s"
        ],
        "cache_hit_rate_per_shard": cache_rates,
        "min_cache_hit_rate": min(active_rates) if active_rates else None,
        "tenants": tenants,
        "startup_s": startup_s,
    }


def run_benchmark(
    *,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    duration_s: float = 4.0,
    offered_rps: float = 160.0,
) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        points = [
            _run_scale_point(
                n,
                duration_s=duration_s,
                offered_rps=offered_rps,
                cache_root=Path(tmp),
            )
            for n in shard_counts
        ]
    base = points[0]["served_rps"]
    top = points[-1]["served_rps"]
    return {
        "bench": "scale",
        "version": __version__,
        "cpu_count": os.cpu_count(),
        "shard_rate_rps": SHARD_RATE,
        "tenant_subscription": TENANT_SUBSCRIPTION,
        "duration_s": duration_s,
        "offered_rps": offered_rps,
        "distinct_points": len(POINT_POOL),
        "points": points,
        "throughput_ratio": top / base if base else None,
        "errors": sum(p["errors"] for p in points),
    }


def _assert_floors(record: dict, *, ratio_floor: float) -> None:
    assert record["errors"] == 0, f"replay saw transport errors: {record}"
    assert record["throughput_ratio"] >= ratio_floor, (
        f"served throughput scaled {record['throughput_ratio']:.2f}x from "
        f"{record['points'][0]['shards']} to {record['points'][-1]['shards']} "
        f"shards; expected >= {ratio_floor}x"
    )
    for point in record["points"]:
        assert point["ok"] + point["rejected"] == point["offered"], point
        for name, rate in point["cache_hit_rate_per_shard"].items():
            assert rate is not None and rate >= 0.7, (
                f"{point['shards']}-shard run: {name} cache hit rate "
                f"{rate} < 0.7 — digest affinity is not landing repeats "
                "on the owning shard"
            )
        for name, doc in point["tenants"].items():
            if not doc.get("ok"):
                continue
            assert doc["p99_under_bound"], (
                f"{point['shards']}-shard run: tenant {name} observed p99 "
                f"{doc['p99_s']:.4f}s exceeds its live bound "
                f"{doc['live_delay_bound_s']}s"
            )


def test_scale_quick():
    """Tier-2 guard: 1 -> 2 shards must scale served capacity >= 1.2x."""
    record = run_benchmark(
        shard_counts=(1, 2), duration_s=2.0, offered_rps=90.0
    )
    _assert_floors(record, ratio_floor=1.2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1 and 2 shards with a short replay (CI smoke; >= 1.2x floor)",
    )
    args = parser.parse_args()
    if args.quick:
        record = run_benchmark(
            shard_counts=(1, 2), duration_s=2.0, offered_rps=90.0
        )
        ratio_floor = 1.2
    else:
        record = run_benchmark()
        ratio_floor = 2.5
    out = Path(__file__).parent / "BENCH_scale.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"\n[written to {out}]")
    _assert_floors(record, ratio_floor=ratio_floor)
    lines = []
    for point in record["points"]:
        lines.append(
            f"{point['shards']} shard(s): {point['served_rps']:.1f} served "
            f"req/s of {point['offered_rps']:.1f} offered, min cache hit "
            f"rate {point['min_cache_hit_rate']:.0%}"
        )
    print("; ".join(lines))
    print(
        f"scaling {record['throughput_ratio']:.2f}x >= {ratio_floor}x, "
        "all tenant p99s under their live NC bounds"
    )


if __name__ == "__main__":
    main()
