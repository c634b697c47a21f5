"""Greedy shapers and variable-rate arrival curves.

The paper's §6 proposes "variable rate arrival curves [to] introduce
the concept of back pressure into the model".  Network calculus has an
exact tool for both halves of that sentence:

* :func:`variable_rate_arrival` — a time-varying source profile (rate
  changing over scheduled phases) as an arrival curve;
* :class:`GreedyShaper` — the element that *enforces* an envelope
  ``sigma`` by buffering: its output is ``sigma``-constrained, it is a
  ``sigma`` service-curve element (so delay/backlog bounds compose),
  and re-shaping "comes for free" after a server (shaping-theorem
  bounds).

A backpressured source is exactly a greedy shaper in front of the
pipeline: :func:`repro.streaming.backpressure.shaped_source` picks the
rate, and this module supplies the curve-level machinery and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .._validation import check_non_negative, check_positive
from .bounds import backlog_bound, delay_bound
from .curve import Curve
from .minplus import convolve

__all__ = ["variable_rate_arrival", "GreedyShaper"]


def variable_rate_arrival(
    phases: Sequence[tuple[float, float]], burst: float = 0.0
) -> Curve:
    """Arrival curve of a source whose rate varies over phases.

    ``phases`` is a list of ``(duration, rate)`` pairs describing the
    source's schedule; the final phase extends forever (its duration is
    ignored).  The minimal arrival curve of a cumulative profile ``R``
    is its self-deconvolution ``R (/) R`` — the supremum of every
    window of each width — computed exactly here, so e.g. a source
    alternating fast/slow is bounded by its fastest sustained window at
    every scale (and the result is automatically sub-additive).
    """
    if not phases:
        raise ValueError("need at least one (duration, rate) phase")
    xs = [0.0]
    ys = [0.0]
    for duration, rate in phases[:-1]:
        check_positive("phase duration", duration)
        check_non_negative("phase rate", rate)
        xs.append(xs[-1] + duration)
        ys.append(ys[-1] + rate * duration)
    final_rate = check_non_negative("final phase rate", phases[-1][1])
    check_non_negative("burst", burst)
    profile = Curve.from_breakpoints(xs, ys, final_rate)
    from .minplus import deconvolve

    envelope = deconvolve(profile, profile)
    if burst > 0:
        from .packetizer import packetize_arrival

        envelope = packetize_arrival(envelope, burst)
    return envelope


@dataclass(frozen=True)
class GreedyShaper:
    """A buffer that delays data just enough to keep output within ``sigma``.

    ``sigma`` must be a "good" (sub-additive, 0-at-0) curve — pass any
    concave arrival curve, or anything else through
    :func:`repro.nc.closure.subadditive_closure` first.  Classic
    results implemented here:

    * the shaper offers ``sigma`` as a service curve
      (:meth:`service_curve`);
    * a ``alpha``-constrained input leaves ``min(alpha, sigma)``-
      constrained (:meth:`output_envelope`);
    * the shaper's own delay/backlog for an ``alpha`` input are the
      usual deviations against ``sigma`` (:meth:`delay_bound`,
      :meth:`backlog_bound`).
    """

    sigma: Curve

    def __post_init__(self) -> None:
        if not self.sigma.is_nondecreasing():
            raise ValueError("shaping curve must be nondecreasing")
        if self.sigma(0.0) != 0.0:
            raise ValueError("shaping curve must satisfy sigma(0) = 0")

    def service_curve(self) -> Curve:
        """The shaper is a ``sigma``-server (greedy-shaper theorem)."""
        return self.sigma

    def output_envelope(self, alpha: Curve) -> Curve:
        """Envelope of the shaped flow: ``alpha (*) sigma``.

        For concave curves through the origin this equals
        ``min(alpha, sigma)`` — shaping never *adds* burstiness.
        """
        return convolve(alpha, self.sigma)

    def delay_bound(self, alpha: Curve) -> float:
        """Worst delay the shaper itself introduces for an ``alpha`` input."""
        return delay_bound(alpha, self.sigma)

    def backlog_bound(self, alpha: Curve) -> float:
        """Buffer the shaper needs for an ``alpha`` input."""
        return backlog_bound(alpha, self.sigma)
