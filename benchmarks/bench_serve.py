"""Serving benchmark: throughput, tail latency vs the NC bound, cache hits.

Drives a real :class:`~repro.serve.ServerThread` (sockets, worker pool,
admission) with closed-loop client threads and records:

* sustained throughput (the >= 200 analyze req/s acceptance bar),
* p50/p99 client-observed latency against the server's *self-computed*
  NC delay bound from ``/capacity`` — the paper's bound-vs-observed
  methodology applied to the serving layer itself,
* cache hit rate on a repeated-params phase.

Run as a script for the full record (writes ``BENCH_serve.json``):

    PYTHONPATH=src python benchmarks/bench_serve.py

Under pytest, a scaled-down load keeps the invariants covered cheaply.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path

from repro import __version__
from repro.apps.blast import blast_pipeline
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.streaming import pipeline_to_dict

MODEL = pipeline_to_dict(blast_pipeline())


def _quantile(sorted_xs: list[float], q: float) -> float:
    if not sorted_xs:
        return float("nan")
    idx = min(len(sorted_xs) - 1, int(q * (len(sorted_xs) - 1) + 0.5))
    return sorted_xs[idx]


def _load_phase(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    distinct_params: int,
) -> dict:
    """Closed-loop load: each client thread sends its share back to back."""
    latencies: list[float] = []
    oks = [0]
    rejected = [0]
    lock = threading.Lock()

    def worker(offset: int) -> None:
        mine: list[float] = []
        ok = rej = 0
        with ServeClient(host, port, timeout=60.0) as c:
            for i in range(requests_per_client):
                params = {
                    "scale:network": 1.0
                    + ((offset + i) % distinct_params) * 0.125
                }
                t0 = time.perf_counter()
                resp = c.analyze(MODEL, params=params)
                mine.append(time.perf_counter() - t0)
                if resp["ok"]:
                    ok += 1
                elif resp["status"] == 429:
                    rej += 1
                else:
                    raise AssertionError(f"unexpected response: {resp}")
        with lock:
            latencies.extend(mine)
            oks[0] += ok
            rejected[0] += rej

    threads = [
        threading.Thread(target=worker, args=(k * requests_per_client,))
        for k in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    latencies.sort()
    n = clients * requests_per_client
    return {
        "requests": n,
        "ok": oks[0],
        "rejected": rejected[0],
        "elapsed_s": elapsed,
        "throughput_rps": n / elapsed if elapsed > 0 else None,
        "p50_s": _quantile(latencies, 0.50),
        "p99_s": _quantile(latencies, 0.99),
        "max_s": latencies[-1] if latencies else None,
    }


def run_benchmark(
    *,
    clients: int = 4,
    requests_per_client: int = 100,
    workers: int | None = None,
    slo_s: float = 0.25,
) -> dict:
    workers = workers if workers is not None else min(4, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory() as tmp:
        # -- phase 1: plain serving, distinct params (cold cache) -------- #
        config = ServeConfig(
            port=0, workers=workers, calibrate=4, slo_s=slo_s,
            cache_dir=str(Path(tmp) / "cache"),
        )
        with ServerThread(config) as srv:
            with ServeClient(srv.host, srv.port) as c:
                cold = _load_phase(
                    srv.host, srv.port,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    distinct_params=clients * requests_per_client,
                )
                capacity = c.capacity()["result"]
                # -- phase 2: repeated params (warm cache) -------------- #
                warm = _load_phase(
                    srv.host, srv.port,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    distinct_params=8,
                )
                stats = c.stats()["result"]
            summary = srv.stop()
        assert summary["clean"], f"drain dropped requests: {summary}"

        metrics = stats["metrics"]
        hits = metrics.get("serve.cache.hits", {}).get("value", 0)
        misses = metrics.get("serve.cache.misses", {}).get("value", 0)
        hit_rate = hits / (hits + misses) if hits + misses else None

    return {
        "bench": "serve",
        "version": __version__,
        "workers": workers,
        "clients": clients,
        "cpu_count": os.cpu_count(),
        "slo_s": slo_s,
        "cold": cold,
        "warm": warm,
        "nc_delay_bound_s": capacity["delay_bound_s"],
        "nc_service_rate_rps": capacity["service_curve"]["service_rate_rps"],
        "admitted_rate_rps": capacity["arrival_curve"]["rate_rps"],
        "cache_hit_rate": hit_rate,
        # closed-loop clients self-pace under the admitted rate, so the
        # NC bound for admitted traffic should cover the observed p99
        "p99_under_bound": (
            capacity["delay_bound_s"] is not None
            and cold["p99_s"] <= capacity["delay_bound_s"]
        ),
    }


def test_serve_throughput_and_bound():
    """Tier-2 guard: sustained load, clean drain, p99 under the NC bound."""
    record = run_benchmark(clients=2, requests_per_client=40)
    assert record["cold"]["ok"] + record["cold"]["rejected"] == 80
    assert record["cold"]["throughput_rps"] >= 200.0, (
        f"expected >= 200 analyze req/s, got {record['cold']['throughput_rps']:.0f}"
    )
    assert record["p99_under_bound"], (
        f"p99 {record['cold']['p99_s']:.4f}s exceeds the server's own NC "
        f"bound {record['nc_delay_bound_s']}s"
    )
    # cold phase is all misses, warm phase all hits -> exactly 1/2
    assert record["cache_hit_rate"] is not None and record["cache_hit_rate"] >= 0.5


def main() -> None:
    record = run_benchmark()
    out = Path(__file__).parent / "BENCH_serve.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"\n[written to {out}]")
    assert record["cold"]["throughput_rps"] >= 200.0, (
        f"expected >= 200 analyze req/s, got {record['cold']['throughput_rps']:.0f}"
    )
    assert record["p99_under_bound"], "observed p99 exceeds the self-computed NC bound"
    print(
        f"throughput {record['cold']['throughput_rps']:.0f} req/s, "
        f"p99 {record['cold']['p99_s'] * 1e3:.2f} ms "
        f"<= NC bound {record['nc_delay_bound_s'] * 1e3:.2f} ms, "
        f"cache hit rate {record['cache_hit_rate']:.0%}"
    )


if __name__ == "__main__":
    main()
