"""Service/inter-arrival time distributions for simulation models.

A distribution here is a callable ``(rng: numpy.random.Generator) -> float``
so stages stay declarative and seeds stay centralised.  ``constant``
and ``uniform`` also carry a ``batch(rng, n)`` sampler returning the
next ``n`` draws exactly as ``n`` scalar calls would (the recurrence
engine draws a stage's service times in blocks).  The paper's
simulator draws per-job execution times from ``uniform(min, max)``;
exponential variants exist for validating the queueing baseline against
M/M/1 theory, and the heavy-tailed samplers (bounded Pareto, lognormal)
feed the adversarial scenario family, where job sizes and stage rates
follow the skewed distributions real measurement campaigns produce.

:func:`spawn_rngs` centralises the seeding discipline: independent
deterministic ``Generator`` streams derived from one seed via
``numpy.random.SeedSequence``, the same spawning the pipeline simulator
uses per stage — consumers drawing from one stream cannot perturb
another's sequence.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .._validation import check_non_negative, check_positive

__all__ = [
    "constant",
    "uniform",
    "exponential",
    "bounded_pareto",
    "lognormal",
    "spawn_rngs",
    "Distribution",
]

Distribution = Callable[[np.random.Generator], float]


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """``n`` independent deterministic generators from one seed.

    Streams are spawned from a single ``SeedSequence``, so they are
    statistically independent and stable: stream ``i`` yields the same
    draws regardless of how many siblings exist or are consumed.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def constant(value: float) -> Distribution:
    """Always ``value`` (deterministic service)."""
    check_non_negative("value", value)

    def sample(rng: np.random.Generator) -> float:
        return value

    sample.batch = lambda rng, n: [value] * n  # type: ignore[attr-defined]
    sample.mean = value  # type: ignore[attr-defined]
    sample.lo = value  # type: ignore[attr-defined]
    sample.hi = value  # type: ignore[attr-defined]
    return sample


def uniform(lo: float, hi: float) -> Distribution:
    """Uniform on ``[lo, hi]`` — the paper's per-job execution time model."""
    check_non_negative("lo", lo)
    check_non_negative("hi", hi)
    if hi < lo:
        raise ValueError(f"uniform needs lo <= hi, got [{lo}, {hi}]")

    def sample(rng: np.random.Generator) -> float:
        return float(rng.uniform(lo, hi))

    def batch(rng: np.random.Generator, n: int) -> list[float]:
        return rng.uniform(lo, hi, size=n).tolist()

    sample.batch = batch  # type: ignore[attr-defined]
    sample.mean = 0.5 * (lo + hi)  # type: ignore[attr-defined]
    sample.lo = lo  # type: ignore[attr-defined]
    sample.hi = hi  # type: ignore[attr-defined]
    return sample


def exponential(mean: float) -> Distribution:
    """Exponential with the given mean (Markovian service/arrivals)."""
    check_positive("mean", mean)

    def sample(rng: np.random.Generator) -> float:
        return float(rng.exponential(mean))

    sample.mean = mean  # type: ignore[attr-defined]
    return sample


def bounded_pareto(shape: float, lo: float, hi: float) -> Distribution:
    """Bounded Pareto on ``[lo, hi]`` with tail index ``shape``.

    The classic heavy-tailed workload model (job sizes, flow lengths)
    truncated to a finite support so service-time conformance checks
    stay applicable.  Sampled by inverting the CDF
    ``F(x) = (1 - lo^a x^-a) / (1 - (lo/hi)^a)``.
    """
    check_positive("shape", shape)
    check_positive("lo", lo)
    check_positive("hi", hi)
    if hi <= lo:
        raise ValueError(f"bounded_pareto needs lo < hi, got [{lo}, {hi}]")
    a = shape
    la, ha = lo**a, hi**a
    ratio = (lo / hi) ** a

    def sample(rng: np.random.Generator) -> float:
        u = float(rng.uniform())
        # inverse CDF: x = (-(u*ha - u*la - ha) / (ha*la))^(-1/a)
        return float((-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / a))

    if math.isclose(a, 1.0):
        mean = math.log(hi / lo) * lo * hi / (hi - lo)
    else:
        mean = (la / (1.0 - ratio)) * (a / (a - 1.0)) * (
            lo ** (1.0 - a) - hi ** (1.0 - a)
        )
    sample.mean = mean  # type: ignore[attr-defined]
    sample.lo = lo  # type: ignore[attr-defined]
    sample.hi = hi  # type: ignore[attr-defined]
    return sample


def lognormal(mean: float, sigma: float) -> Distribution:
    """Lognormal with arithmetic mean ``mean`` and log-space spread ``sigma``.

    Parameterised by the *desired arithmetic mean* (the quantity stage
    measurements report), so ``mu = ln(mean) - sigma^2 / 2``.  The
    support is unbounded above: distributions without ``lo``/``hi``
    attributes are exempt from the per-job service-span conformance
    check, which only covers bounded-support models.
    """
    check_positive("mean", mean)
    check_non_negative("sigma", sigma)
    mu = math.log(mean) - 0.5 * sigma * sigma

    def sample(rng: np.random.Generator) -> float:
        return float(rng.lognormal(mu, sigma))

    sample.mean = mean  # type: ignore[attr-defined]
    return sample
