"""Pseudo-inverses of wide-sense-increasing curves, as curves.

For a nondecreasing ``f`` the lower pseudo-inverse
``f^-1(y) = inf { t >= 0 : f(t) >= y }`` and the upper pseudo-inverse
``f^-1_+(y) = sup { t >= 0 : f(t) <= y }`` swap the roles of time and
data: jumps become flat pieces and vice versa.  They are the bridge
between min-plus and max-plus network calculus, and the horizontal
deviation (delay bound) is a supremum over level space of
``g^-1 - f^-1`` — which :func:`repro.nc.bounds.horizontal_deviation`
exploits point-wise; this module exposes the full inverse *functions*
for callers that need them (e.g. converting a cumulative-arrival trace
to per-byte service times).

The inverse is represented as a :class:`~repro.nc.curve.Curve` over the
level axis ``y >= 0``, valid on levels the curve actually attains; for
levels above a bounded curve's supremum the lower pseudo-inverse is
``+inf``, which the finite-valued representation cannot carry — those
cases raise :class:`UnboundedCurveError`.
"""

from __future__ import annotations

import math

from .curve import Curve, UnboundedCurveError
from .kernel import unary_op
from .pieces import Point, Segment, envelope

__all__ = ["lower_pseudo_inverse", "upper_pseudo_inverse"]


def _inverse_pieces(f: Curve) -> tuple[list[Point], list[Segment]]:
    """Mirror each piece of ``f`` across the diagonal.

    A rising segment maps to a rising segment with reciprocal slope; a
    flat segment of ``f`` at level ``y`` maps to a point (lower inverse:
    the flat's left end; upper: its right end handled by the envelope);
    a jump of ``f`` at time ``t`` maps to a flat piece at value ``t``
    over the jumped-over levels.
    """
    pts: list[Point] = []
    segs: list[Segment] = []
    f_pts, f_segs = f.pieces()

    # levels below f(0) are reached (and left) at t = 0
    if f_pts[0].y > 0.0:
        pts.append(Point(0.0, 0.0))
        segs.append(Segment(0.0, f_pts[0].y, 0.0, 0.0))

    prev_level = 0.0  # highest level covered so far on the y axis
    for p, s in zip(f_pts, f_segs):
        # left-discontinuity at p.x (previous piece's left limit below
        # the breakpoint value, e.g. a staircase step): the jumped-over
        # levels are first and last reached at exactly p.x
        if p.y > prev_level:
            segs.append(Segment(prev_level, p.y, p.x, 0.0))
        # the exact value at the breakpoint
        if p.y >= prev_level:
            pts.append(Point(p.y, p.x))
            prev_level = max(prev_level, p.y)
        # jump from p.y to s.y0 at time p.x: levels in (p.y, s.y0)
        # are first reached (and last left) at exactly p.x
        if s.y0 > p.y:
            segs.append(Segment(p.y, s.y0, p.x, 0.0))
            prev_level = max(prev_level, s.y0)
            pts.append(Point(s.y0, p.x))
        # rising run over (s.x0, s.x1): invertible 1:1
        if s.slope > 0:
            hi = s.left_limit_at_x1
            segs.append(Segment(s.y0, hi, s.x0, 1.0 / s.slope))
            if math.isfinite(hi):
                prev_level = max(prev_level, hi)
        elif s.slope == 0 and math.isinf(s.x1):
            # f saturates at level s.y0 forever
            break
    return pts, segs


def lower_pseudo_inverse(f: Curve) -> Curve:
    """``f^-1(y) = inf { t : f(t) >= y }`` as a curve over levels.

    Requires ``f`` nondecreasing and unbounded (``final_slope > 0`` or
    an infinite staircase); bounded curves have an infinite inverse
    above their supremum, which raises :class:`UnboundedCurveError`.
    Kernel-dispatched.
    """
    return unary_op("lower_pseudo_inverse", f, _lower_pinv_generic)


def _lower_pinv_generic(f: Curve) -> Curve:
    if not f.is_nondecreasing():
        raise ValueError("pseudo-inverse requires a nondecreasing curve")
    if f.final_slope <= 0:
        raise UnboundedCurveError(
            "curve saturates: its lower pseudo-inverse is +inf above the supremum"
        )
    pts, segs = _inverse_pieces(f)
    e_pts, e_segs = envelope(pts, segs, lower=True, fill_holes=True)
    # the checked constructor: an f(0) < 0 puts the first level below 0
    return Curve.from_pieces(e_pts, e_segs)


def upper_pseudo_inverse(f: Curve) -> Curve:
    """``f^-1_+(y) = sup { t : f(t) <= y }`` as a curve over levels.

    Same domain restrictions as :func:`lower_pseudo_inverse`.  Flat
    pieces of ``f`` make the two inverses differ: the lower inverse
    takes a flat run's left end, the upper its right end.
    Kernel-dispatched.
    """
    return unary_op("upper_pseudo_inverse", f, _upper_pinv_generic)


def _upper_pinv_generic(f: Curve) -> Curve:
    if not f.is_nondecreasing():
        raise ValueError("pseudo-inverse requires a nondecreasing curve")
    if f.final_slope <= 0:
        raise UnboundedCurveError(
            "curve saturates: its upper pseudo-inverse is +inf above the supremum"
        )
    pts, segs = _inverse_pieces(f)
    e_pts, e_segs = envelope(pts, segs, lower=False, fill_holes=True)
    return Curve.from_pieces(e_pts, e_segs)
