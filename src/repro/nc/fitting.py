"""Fitting arrival and service curves to measured traces.

A selling point of both the paper's NC models and the queueing models
they extend is that parameters come from *measurements taken in
isolation* — per-stage throughput runs — rather than full deployments.
This module turns such measurements into curves:

* :func:`fit_leaky_bucket` — tightest ``(R, b)`` envelope over a
  cumulative arrival trace;
* :func:`fit_rate_latency` — tightest ``(R, T)`` rate-latency curve
  *below* a cumulative service trace (a valid service-curve witness);
* :func:`rate_latency_from_job_times` — per-job isolated measurements
  (sizes and execution times) to a conservative rate-latency curve, the
  paper's actual methodology for Table 2.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .._validation import check_positive
from .builders import leaky_bucket, rate_latency
from .curve import Curve
from .tolerance import EPS, rel_scale

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "burst_for_rate",
    "fit_leaky_bucket",
    "fit_rate_latency",
    "rate_latency_from_job_times",
]


def _as_trace(times: Sequence[float], cumulative: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    t = np.asarray(times, dtype=float)
    r = np.asarray(cumulative, dtype=float)
    if t.ndim != 1 or t.shape != r.shape or len(t) < 2:
        raise ValueError("need equal-length 1-D times/cumulative with >= 2 samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(np.diff(r) < 0):
        raise ValueError("cumulative volume must be non-decreasing")
    return t, r


def burst_for_rate(times: Sequence[float], cumulative: Sequence[float], rate: float) -> float:
    """Minimal burst ``b`` making ``rate*dt + b`` an envelope of the trace.

    Exact over all sample pairs:
    ``b = max_{s <= t} [r(t) - r(s) - rate*(t - s)]`` computed in O(n)
    via a running minimum of ``r(s) - rate*s``.
    """
    import numpy as np

    t, r = _as_trace(times, cumulative)
    check_positive("rate", rate)
    slack = r - rate * t
    running_min = np.minimum.accumulate(slack)
    burst = float(np.max(slack - running_min))
    # rounding noise can leave a vanishing positive burst on exact traces;
    # snap it to zero under the shared canonicalisation tolerance so the
    # fitted curve interns to the pure-rate shape
    if burst <= EPS * rel_scale(float(r[-1])):
        return 0.0
    return burst


def fit_leaky_bucket(
    times: Sequence[float], cumulative: Sequence[float], rate: float | None = None
) -> Curve:
    """Tightest leaky-bucket arrival curve for a cumulative trace.

    When ``rate`` is omitted the long-run average rate of the trace is
    used (the smallest rate with a finite burst over the trace window);
    the burst is then minimal for that rate.
    """
    t, r = _as_trace(times, cumulative)
    if rate is None:
        span_t = t[-1] - t[0]
        rate = float((r[-1] - r[0]) / span_t)
        if rate <= 0.0:
            # an idle trace: any positive rate with zero burst envelopes it
            return leaky_bucket(0.0, float(r[-1] - r[0]))
    return leaky_bucket(rate, burst_for_rate(times, cumulative, rate))


def fit_rate_latency(times: Sequence[float], cumulative: Sequence[float]) -> Curve:
    """Tightest rate-latency curve *below* a cumulative service trace.

    Uses the trace's long-run rate as ``R`` (the largest sustainable
    guarantee) and the minimal ``T`` such that ``R*(t-T)^+ <= r(t)`` at
    every sample: ``T = max_t [t - r(t)/R]``.
    """
    t, r = _as_trace(times, cumulative)
    span = t[-1] - t[0]
    rate = float((r[-1] - r[0]) / span)
    if rate <= 0.0:
        raise ValueError("service trace has no throughput; cannot fit a rate")
    latency = float((t - (r - r[0]) / rate).max())
    return rate_latency(rate, max(0.0, latency))


def rate_latency_from_job_times(
    job_sizes: Sequence[float], execution_times: Sequence[float], *, dispatch_overhead: float = 0.0
) -> Curve:
    """Conservative rate-latency curve from isolated per-job measurements.

    ``R`` is the worst observed per-job rate (size over time — the
    guarantee every job met) and ``T`` is the worst observed execution
    time of a single job plus any fixed dispatch overhead: before ``T``
    has elapsed the node may not have emitted anything.
    """
    import numpy as np

    sizes = np.asarray(job_sizes, dtype=float)
    times = np.asarray(execution_times, dtype=float)
    if sizes.shape != times.shape or sizes.ndim != 1 or len(sizes) == 0:
        raise ValueError("need equal-length, non-empty job sizes and times")
    if np.any(sizes <= 0) or np.any(times <= 0):
        raise ValueError("job sizes and execution times must be positive")
    rate = float(np.min(sizes / times))
    latency = float(np.max(times)) + float(dispatch_overhead)
    return rate_latency(rate, latency)
