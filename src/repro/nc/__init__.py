"""Deterministic network calculus core.

Exact piecewise-linear curve algebra (min-plus and max-plus), the three
classic performance bounds, packetization corrections, tandem
concatenation, sub-additive closure, transient analysis for the
``R_alpha > R_beta`` regime, and curve fitting from measurements.

Quick start::

    from repro.nc import leaky_bucket, rate_latency, delay_bound, backlog_bound

    alpha = leaky_bucket(rate=100.0, burst=8.0)
    beta = rate_latency(rate=150.0, latency=0.01)
    d = delay_bound(alpha, beta)      # T + b/R  = 0.01 + 8/150
    x = backlog_bound(alpha, beta)    # b + R*T  = 8 + 100*0.01
"""

from .curve import Curve, UnboundedCurveError
from .kernel import eval_batch
from .pieces import Point, Segment, envelope
from .tolerance import EPS, EPS_STRICT, close
from .builders import (
    affine,
    constant_rate,
    leaky_bucket,
    piecewise_concave,
    pure_delay,
    rate_latency,
    staircase,
    token_bucket_stair,
)
from .minplus import convolve, convolve_many, deconvolve, self_convolve
from .maxplus import max_convolve, max_deconvolve
from .bounds import (
    affine_backlog_bound,
    affine_delay_bound,
    backlog_bound,
    delay_bound,
    horizontal_deviation,
    output_arrival_curve,
    pseudo_inverse,
    vertical_deviation,
)
from .packetizer import (
    Packetizer,
    packetize_arrival,
    packetize_max_service,
    packetize_service,
)
from .concatenation import Tandem, TandemNode
from .closure import is_subadditive, subadditive_closure
from .transient import (
    affine_backlog_estimate,
    affine_delay_estimate,
    backlog_bound_finite_workload,
    backlog_bound_horizon,
    delay_bound_finite_workload,
)
from .multiflow import (
    aggregate_arrival,
    blind_residual,
    fifo_residual,
    fifo_residual_delay_bound,
    priority_residual,
)
from .pseudoinverse import lower_pseudo_inverse, upper_pseudo_inverse
from .shaper import GreedyShaper, variable_rate_arrival
from .fitting import (
    burst_for_rate,
    fit_leaky_bucket,
    fit_rate_latency,
    rate_latency_from_job_times,
)

__all__ = [
    "Curve",
    "UnboundedCurveError",
    "Point",
    "Segment",
    "envelope",
    "EPS",
    "EPS_STRICT",
    "close",
    "eval_batch",
    "affine",
    "constant_rate",
    "leaky_bucket",
    "piecewise_concave",
    "pure_delay",
    "rate_latency",
    "staircase",
    "token_bucket_stair",
    "convolve",
    "convolve_many",
    "deconvolve",
    "self_convolve",
    "max_convolve",
    "max_deconvolve",
    "affine_backlog_bound",
    "affine_delay_bound",
    "backlog_bound",
    "delay_bound",
    "horizontal_deviation",
    "output_arrival_curve",
    "pseudo_inverse",
    "vertical_deviation",
    "Packetizer",
    "packetize_arrival",
    "packetize_max_service",
    "packetize_service",
    "Tandem",
    "TandemNode",
    "is_subadditive",
    "subadditive_closure",
    "affine_backlog_estimate",
    "affine_delay_estimate",
    "backlog_bound_finite_workload",
    "backlog_bound_horizon",
    "delay_bound_finite_workload",
    "burst_for_rate",
    "fit_leaky_bucket",
    "fit_rate_latency",
    "rate_latency_from_job_times",
    "lower_pseudo_inverse",
    "upper_pseudo_inverse",
    "GreedyShaper",
    "variable_rate_arrival",
    "aggregate_arrival",
    "blind_residual",
    "fifo_residual",
    "fifo_residual_delay_bound",
    "priority_residual",
]
