"""The three classic network-calculus performance bounds.

For a flow ``alpha``-constrained at the input of a server offering a
(minimum) service curve ``beta`` — and optionally a maximum service
curve ``gamma`` — deterministic network calculus yields (Le Boudec &
Thiran, ch. 1):

* **backlog bound**  ``x <= sup_t [alpha(t) - beta(t)]``
  (the maximum vertical deviation),
* **virtual-delay bound**  ``d <= h(alpha, beta)``
  (the maximum horizontal deviation), and
* **output envelope**  ``alpha* = alpha (/) beta`` — refined to
  ``alpha* = (alpha (*) gamma) (/) beta`` when a maximum service curve
  is known (the form used in the paper, modulo its typo printing the
  second operator as a convolution).

All three are exact for the piecewise-linear curve class, including the
paper's closed-form specialisations ``d <= T + b/R_beta`` and
``x <= b + R_alpha * T`` for a leaky-bucket/rate-latency pair, which are
reproduced (and property-tested) by :func:`affine_delay_bound` and
:func:`affine_backlog_bound`.

When the stability condition ``R_alpha <= R_beta`` fails, the asymptotic
bounds are infinite (``math.inf`` is returned); the paper's transient
reading of that regime lives in :mod:`repro.nc.transient`.
"""

from __future__ import annotations

import math

from .._validation import check_non_negative
from .curve import Curve, UnboundedCurveError
from .kernel import binary_op
from .minplus import convolve, deconvolve

__all__ = [
    "vertical_deviation",
    "horizontal_deviation",
    "backlog_bound",
    "delay_bound",
    "output_arrival_curve",
    "pseudo_inverse",
    "affine_delay_bound",
    "affine_backlog_bound",
]


def pseudo_inverse(f: Curve, y: float) -> float:
    """Lower pseudo-inverse ``f^-1(y) = inf { t >= 0 : f(t) >= y }``.

    Returns ``math.inf`` when the level ``y`` is never reached.  This is
    the time at which a cumulative function first meets the level ``y``
    (up to non-attainment at jumps, which does not affect the infimum).
    """
    pts, segs = f.pieces()
    for p, s in zip(pts, segs):
        if p.y >= y:
            return p.x
        if s.y0 >= y:
            # the function exceeds y immediately to the right of s.x0
            return s.x0
        if s.slope > 0:
            left_lim = s.left_limit_at_x1
            if left_lim >= y:
                return s.x0 + (y - s.y0) / s.slope
    return math.inf


def vertical_deviation(f: Curve, g: Curve, t_max: float = math.inf) -> float:
    """``sup_{0 <= t <= t_max} [f(t) - g(t)]`` — exact, possibly ``inf``.

    Kernel-dispatched: against a rate-latency ``g`` it is one pass over
    ``f``'s breakpoints, and for a leaky-bucket ``f`` the paper's
    ``b + R_alpha * T``.
    """
    def generic(a: Curve, b: Curve) -> float:
        return (a - b).sup(t_max)

    if math.isinf(t_max):
        return binary_op("vertical_deviation", f, g, generic)
    # a finite horizon changes the result: no fast path
    return generic(f, g)


def horizontal_deviation(f: Curve, g: Curve) -> float:
    """Maximum horizontal distance ``h(f, g) = sup_t inf {d >= 0 : f(t) <= g(t+d)}``.

    Computed exactly in level space: ``h = sup_y [g^-1(y) - f^-1(y)]``
    over the finitely many levels at which either pseudo-inverse kinks.
    Returns ``math.inf`` when ``g`` can never catch up (e.g. the flow's
    long-run rate exceeds the service rate).  Always the generic level
    sweep: a closed form such as the paper's ``T + b / R_beta`` rounds
    differently from it (see :mod:`repro.nc.kernel`).
    """
    return binary_op("horizontal_deviation", f, g, _hdev_generic)


def _hdev_generic(f: Curve, g: Curve) -> float:
    if f.final_slope > g.final_slope:
        return math.inf
    if f.final_slope > 0 and g.final_slope == 0:
        return math.inf

    levels: set[float] = {0.0}
    for c in (f, g):
        pts, segs = c.pieces()
        for p, s in zip(pts, segs):
            levels.add(p.y)
            levels.add(s.y0)
            ll = s.left_limit_at_x1
            if math.isfinite(ll):
                levels.add(ll)
    f_sup = f.sup()
    if math.isfinite(f_sup):
        levels.add(f_sup)
        # levels above sup f are never attained by the flow
        levels = {y for y in levels if y <= f_sup}
    g_sup = g.sup()
    if math.isfinite(g_sup) and f_sup > g_sup:
        return math.inf
    if math.isinf(f_sup):
        # beyond the last kink the difference is affine in y; two probe
        # levels let the midpoint refinement below recover its right-limit
        y_top = max(levels)
        levels.add(y_top + 1.0)
        levels.add(y_top + 2.0)

    ys = sorted(levels)

    def d_at(y: float) -> float:
        gy = pseudo_inverse(g, y)
        if math.isinf(gy):
            return math.inf
        return gy - pseudo_inverse(f, y)

    best = 0.0
    vals = [d_at(y) for y in ys]
    for v in vals:
        best = max(best, v)
    # between consecutive kinks both inverses are affine in y, so the
    # supremum over the open interval is the max of the two end *limits*;
    # recover the right-limit at the lower end from the midpoint value.
    for y_lo, y_hi, v_hi in zip(ys, ys[1:], vals[1:]):
        mid = d_at(0.5 * (y_lo + y_hi))
        if math.isinf(mid) or math.isinf(v_hi):
            return math.inf
        right_lim_lo = 2.0 * mid - v_hi
        best = max(best, right_lim_lo)
    return max(best, 0.0)


def backlog_bound(alpha: Curve, beta: Curve, t_max: float = math.inf) -> float:
    """Worst-case backlog of an ``alpha``-constrained flow in a ``beta`` server.

    ``t_max`` optionally restricts the supremum to a finite horizon —
    the paper's transient reading for the ``R_alpha > R_beta`` regime
    (see also :mod:`repro.nc.transient` for the busy-period variant).
    """
    return max(0.0, vertical_deviation(alpha, beta, t_max))


def delay_bound(alpha: Curve, beta: Curve) -> float:
    """Worst-case virtual delay: horizontal deviation ``h(alpha, beta)``."""
    return horizontal_deviation(alpha, beta)


def output_arrival_curve(
    alpha: Curve, beta: Curve, gamma: Curve | None = None
) -> Curve:
    """Arrival curve of the departing flow.

    Classical bound: ``alpha* = alpha (/) beta``.  When the server also
    offers a *maximum* service curve ``gamma``, the departing flow is
    additionally ``(alpha (*) gamma)``-constrained, giving the refined
    ``alpha* = (alpha (*) gamma) (/) beta`` used in the paper (§3; the
    paper's text prints the second operator as a convolution, but an
    output *envelope* requires the deconvolution — see DESIGN.md).

    Raises :class:`UnboundedCurveError` in the unstable regime.
    """
    num = alpha if gamma is None else convolve(alpha, gamma)
    return deconvolve(num, beta)


def affine_delay_bound(r_alpha: float, burst: float, r_beta: float, latency: float) -> float:
    """Closed-form delay bound ``T + b / R_beta`` for leaky-bucket/rate-latency.

    Matches the paper's §3 expression.  Requires ``r_beta > 0``; returns
    ``inf`` when ``r_alpha > r_beta`` (unstable — the closed form no
    longer bounds the asymptotic delay).
    """
    check_non_negative("r_alpha", r_alpha)
    check_non_negative("burst", burst)
    check_non_negative("latency", latency)
    if r_beta <= 0:
        return math.inf
    if r_alpha > r_beta:
        return math.inf
    return latency + burst / r_beta


def affine_backlog_bound(r_alpha: float, burst: float, r_beta: float, latency: float) -> float:
    """Closed-form backlog bound ``b + R_alpha * T`` for leaky-bucket/rate-latency.

    Matches the paper's §3 expression; ``inf`` when ``r_alpha > r_beta``.
    """
    check_non_negative("r_alpha", r_alpha)
    check_non_negative("burst", burst)
    check_non_negative("latency", latency)
    if r_alpha > r_beta:
        return math.inf
    return burst + r_alpha * latency
