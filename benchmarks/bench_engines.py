"""Micro-benchmarks of the two engines everything else is built on.

* the DES kernel: event throughput of a timeout-driven process;
* the min-plus algebra: convolution/deconvolution of representative
  curve sizes, and the full BLAST tandem concatenation.

These guard against performance regressions in the substrates (the
guides' rule: measure before optimising).

Run as a script to emit machine-readable timings —

    PYTHONPATH=src python benchmarks/bench_engines.py

writes ``BENCH_engines.json`` next to this file (per-workload best/mean
seconds plus environment metadata), the perf baseline future PRs diff
against.  Under pytest, the same workloads run through pytest-benchmark
as before.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.des import Environment
from repro.nc import (
    Curve,
    convolve,
    convolve_many,
    deconvolve,
    leaky_bucket,
    rate_latency,
    staircase,
)


def _ping_pong(n_events: int) -> float:
    env = Environment()

    def proc(env):
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    return env.now


def test_des_timeout_throughput(benchmark):
    result = benchmark(_ping_pong, 2000)
    assert result == 2000.0


def _random_pwl(seed: int, n: int = 12) -> Curve:
    rng = np.random.default_rng(seed)
    bx = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))))
    sl = rng.uniform(0.0, 5.0, n)
    by, sy = [0.0], [float(rng.uniform(0, 1))]
    for i in range(1, n):
        left = sy[-1] + sl[i - 1] * (bx[i] - bx[i - 1])
        by.append(left)
        sy.append(left + float(rng.uniform(0, 0.5)))
    return Curve(bx, by, sy, sl)


def test_minplus_convolution_speed(benchmark):
    f, g = _random_pwl(1), _random_pwl(2)
    out = benchmark(convolve, f, g)
    assert out.is_nondecreasing()


def test_minplus_deconvolution_speed(benchmark):
    f = leaky_bucket(10.0, 3.0).minimum(leaky_bucket(4.0, 9.0))
    g = _random_pwl(3)
    if f.final_slope > g.final_slope:
        g = g + Curve.affine(f.final_slope, 0.0)
    out = benchmark(deconvolve, f, g)
    assert out(0.0) >= 0.0


def test_blast_tandem_concatenation_speed(benchmark):
    from repro.apps.blast import blast_pipeline
    from repro.streaming import build_model

    model = build_model(blast_pipeline())
    curves = [model.node_service_curve(i) for i in range(len(model.normalized))]
    out = benchmark(convolve_many, curves)
    assert out.final_slope > 0


def test_staircase_convolution_speed(benchmark):
    st = staircase(1.0, 0.5, n_steps=32)
    beta = rate_latency(3.0, 0.25)
    out = benchmark(convolve, st, beta)
    assert out.is_nondecreasing()


# --------------------------------------------------------------------- #
# script mode: machine-readable timings
# --------------------------------------------------------------------- #


def _workloads():
    """The same engine workloads the pytest benchmarks time, as thunks."""
    f, g = _random_pwl(1), _random_pwl(2)
    dec_f = leaky_bucket(10.0, 3.0).minimum(leaky_bucket(4.0, 9.0))
    dec_g = _random_pwl(3)
    if dec_f.final_slope > dec_g.final_slope:
        dec_g = dec_g + Curve.affine(dec_f.final_slope, 0.0)
    st = staircase(1.0, 0.5, n_steps=32)
    beta = rate_latency(3.0, 0.25)

    from repro.apps.blast import blast_pipeline
    from repro.streaming import build_model

    model = build_model(blast_pipeline())
    curves = [model.node_service_curve(i) for i in range(len(model.normalized))]

    return {
        "des_timeout_throughput": lambda: _ping_pong(2000),
        "minplus_convolution": lambda: convolve(f, g),
        "minplus_deconvolution": lambda: deconvolve(dec_f, dec_g),
        "blast_tandem_concatenation": lambda: convolve_many(curves),
        "staircase_convolution": lambda: convolve(st, beta),
    }


def _time(thunk, repeat: int = 5) -> dict:
    """Best/mean wall seconds over ``repeat`` runs (after one warmup)."""
    thunk()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - t0)
    return {
        "min_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "runs": repeat,
    }


def main() -> None:
    from repro import __version__

    record = {
        "bench": "engines",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "timings": {name: _time(thunk) for name, thunk in _workloads().items()},
    }
    out = Path(__file__).parent / "BENCH_engines.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    print(f"\n[written to {out}]")


if __name__ == "__main__":
    main()
