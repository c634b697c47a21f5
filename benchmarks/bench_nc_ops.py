"""Curve-algebra kernel benchmark: fast paths vs. the generic envelope.

Times the two hot NC operators, convolution and deconvolution, over a
repertoire of packetized-arrival / rate-latency pairs, once through the
kernel's dispatch (which takes the one-pass forms against a
rate-latency curve) and once through the generic piece-envelope
algorithms, asserts that both give the same curve within EPS, and
records the speedup in ``BENCH_nc_ops.json``.

Run as a script for the full benchmark:

    PYTHONPATH=src python benchmarks/bench_nc_ops.py            # full
    PYTHONPATH=src python benchmarks/bench_nc_ops.py --quick    # CI smoke

The script exits non-zero if the speedup falls below the floor (2.5x
full, 4x quick) — the CI kernel-bench step relies on that.  A quarter
of the full run's pairs (one in eight of the quick run's) hold envelope
slivers: breakpoints so close that shifting them by the latency merges
two, where the fast paths decline and both sides run the generic, so
the full run's ratio is the lower one.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro import __version__
from repro.nc import EPS, convolve, deconvolve, rate_latency, token_bucket_stair
from repro.nc.minplus import _convolve_generic, _deconvolve_generic

#: fail below these dispatched-vs-generic speedups, about half of what a
#: 2-core x86-64 VM measures (full 4.4-5.6x, quick 8.0-11.0x)
FLOOR = {False: 2.5, True: 4.0}


def _op_cases(n: int):
    """``n`` distinct (alpha, beta) pairs of the packetized kind.

    Packetized token-bucket arrivals (a ~50-piece staircase) against
    rate-latency service: O(pieces^2) work per op for the generic
    envelope, one pass for the fast paths.
    """
    cases = []
    for i in range(1, n + 1):
        alpha = token_bucket_stair(100.0 * i, 64.0, 8.0 + i, n_steps=48)
        beta = rate_latency(150.0 * i, 0.01 + 0.001 * i)
        cases.append((alpha, beta))
    return cases


def _time_ops(cases, conv, deconv, repeats: int) -> "tuple[float, list]":
    """Best-of-``repeats`` seconds for one pass over ``cases``, and its results."""
    best, out = float("inf"), []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = [(conv(a, b), deconv(a, b)) for a, b in cases]
        best = min(best, time.perf_counter() - t0)
    return best, out


def run_benchmark(quick: bool = False) -> dict:
    n_cases = 8 if quick else 24
    repeats = 3 if quick else 5
    cases = _op_cases(n_cases)
    t_fast, fast = _time_ops(cases, convolve, deconvolve, repeats)
    t_generic, generic = _time_ops(cases, _convolve_generic, _deconvolve_generic, repeats)
    for (c1, d1), (c2, d2) in zip(fast, generic):
        assert c1.almost_equal(c2, tol=EPS), "fast convolution disagrees with the generic"
        assert d1.almost_equal(d2, tol=EPS), "fast deconvolution disagrees with the generic"
    return {
        "bench": "nc_ops",
        "version": __version__,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "n_cases": n_cases,
        "ops_per_pass": 2 * n_cases,
        "fast_s": t_fast,
        "generic_s": t_generic,
        "speedup": t_generic / t_fast if t_fast > 0 else None,
    }


def test_fast_paths_agree_with_generic():
    """Tier-2 guard: the agreement assertions run; no wall-clock ratios."""
    record = run_benchmark(quick=True)
    assert record["speedup"] is not None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this fast-path speedup (default 2.5, quick 4)",
    )
    args = parser.parse_args()
    out = Path(__file__).parent / "BENCH_nc_ops.json"

    record = run_benchmark(quick=args.quick)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"\n[written to {out}]")

    floor = args.min_speedup if args.min_speedup is not None else FLOOR[args.quick]
    speedup = record["speedup"]
    assert speedup is not None and speedup >= floor, (
        f"fast-path speedup {speedup:.2f}x regressed below the {floor:.1f}x floor"
    )
    print(f"fast-path speedup {speedup:.2f}x (>= {floor:.1f}x OK)")


if __name__ == "__main__":
    main()
