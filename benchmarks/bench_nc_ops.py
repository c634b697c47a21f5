"""Curve-algebra kernel benchmark: cold vs. warm op timings + end-to-end sweep.

Times the three hot NC operators (convolve, deconvolve, pseudo-inverse)
over a repertoire of packetized/affine curve pairs in three regimes —

* ``baseline``  — kernel disabled (no interning, no memo),
* ``cold``      — kernel enabled, empty memo (every call misses),
* ``warm``      — kernel enabled, second pass (every call hits) —

and then runs the same ``upgrade_grid`` what-if sweep end-to-end with
the kernel disabled vs. enabled+warm, asserting the two produce
identical results and recording the speedup and memo hit rate in
``BENCH_nc_ops.json``.

Run as a script for the full benchmark:

    PYTHONPATH=src python benchmarks/bench_nc_ops.py            # full
    PYTHONPATH=src python benchmarks/bench_nc_ops.py --quick    # CI smoke

The script exits non-zero if the warm-path speedup regresses below the
floor (1.5x full, 1.2x quick) — the CI kernel-bench step relies on that.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import __version__
from repro.apps.blast import blast_pipeline
from repro.nc import (
    convolve,
    deconvolve,
    kernel_disabled,
    lower_pseudo_inverse,
    memo_stats,
    rate_latency,
    reset_kernel,
    token_bucket_stair,
)
from repro.streaming import upgrade_grid
from repro.units import MiB


def _op_cases(n: int):
    """``n`` distinct (alpha, beta) pairs that dodge the trivial fast paths.

    Packetized token-bucket arrivals against rate-latency service keep
    the generic envelope algorithm honest (O(pieces^2) work per op).
    """
    cases = []
    for i in range(1, n + 1):
        alpha = token_bucket_stair(100.0 * i, 64.0, 8.0 + i, n_steps=48)
        beta = rate_latency(150.0 * i, 0.01 + 0.001 * i)
        cases.append((alpha, beta))
    return cases


def _time_ops(cases) -> float:
    t0 = time.perf_counter()
    for alpha, beta in cases:
        convolve(alpha, beta)
        deconvolve(alpha, beta)
        lower_pseudo_inverse(beta)
    return time.perf_counter() - t0


def bench_micro_ops(n_cases: int) -> dict:
    """Cold/warm/baseline timings for convolve + deconvolve + pseudoinverse."""
    cases = _op_cases(n_cases)
    with kernel_disabled():
        t_baseline = _time_ops(cases)
    reset_kernel()
    t_cold = _time_ops(cases)
    t_warm = _time_ops(cases)
    stats = memo_stats()
    return {
        "n_cases": n_cases,
        "ops_per_pass": 3 * n_cases,
        "baseline_s": t_baseline,
        "cold_s": t_cold,
        "warm_s": t_warm,
        "speedup_warm_vs_baseline": t_baseline / t_warm if t_warm > 0 else None,
        "memo_hit_rate": stats["hit_rate"],
        "fast_path_hits": stats["fast_path_hits"],
    }


def _run_grid(factors) -> "tuple[float, object]":
    t0 = time.perf_counter()
    result = upgrade_grid(
        blast_pipeline(),
        stages=["ungapped_ext", "network"],
        factors=factors,
        jobs=1,
        workload=256 * MiB,
    )
    return time.perf_counter() - t0, result


def bench_upgrade_grid(factors) -> dict:
    """End-to-end what-if sweep: kernel-disabled vs. enabled-and-warm.

    ``jobs=1`` keeps every point in-process so all points share one
    kernel memo — the deployment shape of a sweep worker.
    """
    with kernel_disabled():
        t_off, off = _run_grid(factors)
    reset_kernel()
    t_cold, cold = _run_grid(factors)
    t_warm, warm = _run_grid(factors)
    stats = memo_stats()

    assert off.comparable() == cold.comparable(), (
        "analysis outputs must be byte-identical with the kernel on vs. off"
    )
    assert off.comparable() == warm.comparable(), (
        "warm kernel runs must not change analysis outputs"
    )
    assert not off.errors

    return {
        "n_points": off.n_points,
        "factors": list(factors),
        "kernel_off_s": t_off,
        "kernel_cold_s": t_cold,
        "kernel_warm_s": t_warm,
        "speedup_warm_vs_off": t_off / t_warm if t_warm > 0 else None,
        "speedup_cold_vs_off": t_off / t_cold if t_cold > 0 else None,
        "memo_hit_rate": stats["hit_rate"],
        "memo_size": stats["size"],
        "memo_evictions": stats["evictions"],
    }


def run_benchmark(quick: bool = False) -> dict:
    n_cases = 8 if quick else 24
    factors = (1.0, 1.5) if quick else (1.0, 1.25, 1.5, 2.0)
    record = {
        "bench": "nc_ops",
        "version": __version__,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "micro": bench_micro_ops(n_cases),
        "upgrade_grid": bench_upgrade_grid(factors),
    }
    return record


def test_kernel_identity_and_hit_rate():
    """Tier-2 guard: on/off identity holds and the warm grid mostly hits.

    Deliberately asserts no wall-clock ratios — timing thresholds live in
    ``main`` where the CI bench step can retry/inspect them.
    """
    record = run_benchmark(quick=True)
    grid = record["upgrade_grid"]
    assert grid["memo_hit_rate"] is not None and grid["memo_hit_rate"] > 0.3
    assert grid["memo_size"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this warm upgrade_grid speedup (default 1.5, quick 1.2)",
    )
    args = parser.parse_args()
    out = Path(__file__).parent / "BENCH_nc_ops.json"

    record = run_benchmark(quick=args.quick)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"\n[written to {out}]")

    floor = args.min_speedup if args.min_speedup is not None else (1.2 if args.quick else 1.5)
    speedup = record["upgrade_grid"]["speedup_warm_vs_off"]
    assert speedup is not None and speedup >= floor, (
        f"warm-kernel upgrade_grid speedup {speedup:.2f}x regressed below "
        f"the {floor:.1f}x floor"
    )
    print(f"warm upgrade_grid speedup {speedup:.2f}x (>= {floor:.1f}x OK)")


if __name__ == "__main__":
    main()
