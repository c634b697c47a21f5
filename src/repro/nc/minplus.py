"""Exact min-plus convolution and deconvolution on piecewise-linear curves.

For curves ``f, g`` in the network-calculus class (wide-sense increasing,
piecewise linear with jumps) this module computes

* the **min-plus convolution**
  ``(f (*) g)(t) = inf_{0 <= s <= t} f(s) + g(t - s)``, and
* the **min-plus deconvolution**
  ``(f (/) g)(t) = sup_{u >= 0} f(t + u) - g(u)``

exactly, by decomposing each curve into point and open-segment pieces,
combining pieces pairwise (each pair yields at most two affine pieces in
closed form), and taking the exact lower (resp. upper) envelope of the
resulting bag — the algorithm used by exact NC tool-boxes (Bouillard &
Thierry 2008).

The generics defined here are the one generic path behind
:mod:`repro.nc.kernel`: every call that no fast path covers lands in
them.  The property-based test-suite checks them
against an exact rational (:class:`fractions.Fraction`) evaluation of
the defining inf/sup.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .curve import Curve, UnboundedCurveError, _from_tiling
from .kernel import binary_op
from .pieces import Point, Segment, envelope

__all__ = [
    "convolve",
    "convolve_many",
    "deconvolve",
    "self_convolve",
]


# --------------------------------------------------------------------- #
# convolution
# --------------------------------------------------------------------- #


def _conv_seg_seg(s1: Segment, s2: Segment) -> tuple[list[Point], list[Segment]]:
    """Min-plus convolution of two open affine segments.

    The result is supported on ``(x01+x02, x11+x12)``; it starts at the
    summed right-limits and climbs first along the smaller slope (for the
    length of the segment owning it), then along the larger slope.
    """
    a = s1.x0 + s2.x0
    b = s1.x1 + s2.x1  # may be inf
    y = s1.y0 + s2.y0
    l1 = s1.x1 - s1.x0
    l2 = s2.x1 - s2.x0
    if s1.slope == s2.slope:
        return [], [Segment(a, b, y, s1.slope)]
    if s1.slope < s2.slope:
        lo_slope, lo_len, hi_slope = s1.slope, l1, s2.slope
    else:
        lo_slope, lo_len, hi_slope = s2.slope, l2, s1.slope
    if math.isinf(lo_len):
        return [], [Segment(a, b, y, lo_slope)]
    mid = a + lo_len
    y_mid = y + lo_slope * lo_len
    pts = [Point(mid, y_mid)] if mid < b else []
    segs = [Segment(a, mid, y, lo_slope)]
    if mid < b:
        segs.append(Segment(mid, b, y_mid, hi_slope))
    return pts, segs


def convolve(f: Curve, g: Curve) -> Curve:
    """Min-plus convolution ``f (*) g`` of two curves.

    For wide-sense increasing curves this is the service curve of two
    systems in tandem, and ``f (*) g <= min(f, g)`` whenever both vanish
    at the origin.  Dispatched through :mod:`repro.nc.kernel`: known
    shapes (rate-latency pairs, leaky buckets) take closed forms, and a
    rate-latency ``g`` takes one forward pass over ``f``.
    """
    return binary_op("convolve", f, g, _convolve_generic)


def _convolve_generic(f: Curve, g: Curve) -> Curve:
    """The exact pairwise-piece envelope algorithm (kernel fallback)."""
    pf, sf = f.pieces()
    pg, sg = g.pieces()
    pts: list[Point] = []
    segs: list[Segment] = []
    for p1 in pf:
        for p2 in pg:
            pts.append(Point(p1.x + p2.x, p1.y + p2.y))
        for s2 in sg:
            segs.append(Segment(s2.x0 + p1.x, s2.x1 + p1.x, s2.y0 + p1.y, s2.slope))
    for s1 in sf:
        for p2 in pg:
            segs.append(Segment(s1.x0 + p2.x, s1.x1 + p2.x, s1.y0 + p2.y, s1.slope))
        for s2 in sg:
            p, s = _conv_seg_seg(s1, s2)
            pts.extend(p)
            segs.extend(s)
    return _from_tiling(*envelope(pts, segs, lower=True))


def convolve_many(curves: Sequence[Curve]) -> Curve:
    """Fold :func:`convolve` over a sequence (at least one curve).

    Used to concatenate the service curves of a whole pipeline; the
    operation is associative so the fold order does not affect the
    result.
    """
    items = list(curves)
    if not items:
        raise ValueError("convolve_many needs at least one curve")
    out = items[0]
    for c in items[1:]:
        out = convolve(out, c)
    return out


def self_convolve(f: Curve, n: int) -> Curve:
    """n-fold min-plus self-convolution ``f (*) f (*) ... (*) f``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = f
    for _ in range(n - 1):
        out = convolve(out, f)
    return out


# --------------------------------------------------------------------- #
# deconvolution
# --------------------------------------------------------------------- #


class _RawSeg:
    """Affine piece on the open interval ``(t0, t1)`` (ends may be +-inf),
    anchored as ``value(t) = ay + slope * (t - ax)``.

    Deconvolution pieces can extend to negative abscissae before the
    final clip to ``[0, inf)``; the anchor form avoids evaluating at an
    infinite left endpoint.
    """

    __slots__ = ("t0", "t1", "ax", "ay", "slope")

    def __init__(self, t0: float, t1: float, ax: float, ay: float, slope: float):
        self.t0, self.t1, self.ax, self.ay, self.slope = t0, t1, ax, ay, slope

    def value_at(self, t: float) -> float:
        return self.ay + self.slope * (t - self.ax)


def _deconv_pairs(
    pf: list[Point], sf: list[Segment], pg: list[Point], sg: list[Segment]
) -> tuple[list[Point], list[_RawSeg]]:
    """All pairwise deconvolution pieces (before clipping to t >= 0)."""
    pts: list[Point] = []
    raw: list[_RawSeg] = []

    for p1 in pf:
        for p2 in pg:
            pts.append(Point(p1.x - p2.x, p1.y - p2.y))
        for s2 in sg:
            # t = p1.x - u for u in (s2.x0, s2.x1):
            # h(t) = p1.y - g(p1.x - t), slope = s2.slope
            t_lo = p1.x - s2.x1
            t_hi = p1.x - s2.x0
            # anchor at t_hi (finite): u -> s2.x0+, g -> s2.y0
            raw.append(_RawSeg(t_lo, t_hi, t_hi, p1.y - s2.y0, s2.slope))
    for s1 in sf:
        for p2 in pg:
            # u = p2.x fixed: h(t) = f(t + p2.x) - p2.y on (s1.x0-p2.x, s1.x1-p2.x)
            t_lo = s1.x0 - p2.x
            raw.append(
                _RawSeg(t_lo, s1.x1 - p2.x, t_lo, s1.y0 - p2.y, s1.slope)
            )
        for s2 in sg:
            raw.extend(_deconv_seg_seg(s1, s2, pts))
    return pts, raw


def _deconv_seg_seg(
    s1: Segment, s2: Segment, transition_points: list[Point]
) -> list[_RawSeg]:
    """Deconvolution of segment ``s1`` of f by segment ``s2`` of g.

    ``h(t) = sup { f(t+u) - g(u) : u in (a2,b2), t+u in (a1,b1) }`` on the
    open domain ``(a1-b2, b1-a2)``.  The supremum sits at the feasible-u
    endpoint selected by the slope order, giving one or two affine
    regimes; the (continuous) regime seam is appended to
    ``transition_points`` so the envelope stays hole-free.
    """
    a1, b1, y1, m1 = s1.x0, s1.x1, s1.y0, s1.slope
    a2, b2, y2, m2 = s2.x0, s2.x1, s2.y0, s2.slope
    lo = a1 - b2
    hi = b1 - a2
    out: list[_RawSeg] = []

    if m1 == m2:
        # sup independent of u: affine through anchor (a1-a2, y1-y2)
        out.append(_RawSeg(lo, hi, a1 - a2, y1 - y2, m1))
        return out

    if m1 > m2:
        if math.isinf(b1) and math.isinf(b2):
            # phi(u) increases without bound as u -> inf
            raise UnboundedCurveError(
                "deconvolution is +inf: numerator grows faster than denominator"
            )
        t_star = b1 - b2  # -inf when b2 = inf, +inf when b1 = inf
        g_at_b2 = y2 + m2 * (b2 - a2) if math.isfinite(b2) else math.inf
        f_at_b1 = y1 + m1 * (b1 - a1) if math.isfinite(b1) else math.inf
        # regime A (t < t_star): u -> b2-: slope m1, anchor at t = a1-b2
        if math.isfinite(b2) and t_star > lo:
            out.append(_RawSeg(lo, min(t_star, hi), a1 - b2, y1 - g_at_b2, m1))
        # regime B (t > t_star): u -> (b1-t)-: slope m2, anchor at t = b1-a2
        if math.isfinite(b1) and t_star < hi:
            out.append(
                _RawSeg(max(t_star, lo), hi, b1 - a2, f_at_b1 - y2, m2)
            )
        if math.isfinite(t_star) and lo < t_star < hi:
            transition_points.append(Point(t_star, f_at_b1 - g_at_b2))
        return out

    # m1 < m2: sup at u -> umin+, umin = max(a2, a1 - t)
    t_star = a1 - a2
    # regime C (t < t_star): u -> (a1-t)+: h = f(a1+) - g(a1-t), slope m2
    if t_star > lo:
        out.append(_RawSeg(lo, min(t_star, hi), t_star, y1 - y2, m2))
    # regime D (t > t_star): u -> a2+: h = f(t+a2) - g(a2+), slope m1
    if t_star < hi:
        out.append(_RawSeg(max(t_star, lo), hi, t_star, y1 - y2, m1))
    if lo < t_star < hi:
        transition_points.append(Point(t_star, y1 - y2))
    return out


def _clip_to_nonnegative(
    pts: list[Point], raw: list[_RawSeg]
) -> tuple[list[Point], list[Segment]]:
    """Restrict a raw piece bag to abscissae ``>= 0``."""
    out_pts = [p for p in pts if p.x >= 0]
    out_segs: list[Segment] = []
    for r in raw:
        if r.t1 <= 0:
            continue
        if r.t0 < 0:
            # straddles the origin: value at 0 becomes a point, remainder a segment
            v0 = r.value_at(0.0)
            out_pts.append(Point(0.0, v0))
            out_segs.append(Segment(0.0, r.t1, v0, r.slope))
        else:
            out_segs.append(Segment(r.t0, r.t1, r.value_at(r.t0), r.slope))
    return out_pts, out_segs


def deconvolve(f: Curve, g: Curve) -> Curve:
    """Min-plus deconvolution ``(f (/) g)(t) = sup_{u>=0} f(t+u) - g(u)``.

    This is the output-envelope operator: if a flow with arrival curve
    ``alpha`` crosses a server with service curve ``beta``, the departing
    flow is ``alpha (/) beta``-constrained.

    Raises :class:`~repro.nc.curve.UnboundedCurveError` when
    ``f.final_slope > g.final_slope`` (the paper's ``R_alpha > R_beta``
    regime, where the asymptotic bound is infinite — use
    :mod:`repro.nc.transient` for finite-horizon analysis instead).
    Kernel-dispatched like :func:`convolve`.
    """
    return binary_op("deconvolve", f, g, _deconvolve_generic)


def _deconvolve_generic(f: Curve, g: Curve) -> Curve:
    """The exact raw-piece upper-envelope algorithm (kernel fallback)."""
    if f.final_slope > g.final_slope:
        raise UnboundedCurveError(
            f"deconvolution unbounded: long-run slope of numerator "
            f"({f.final_slope:g}) exceeds the denominator's ({g.final_slope:g})"
        )
    pf, sf = f.pieces()
    pg, sg = g.pieces()
    pts, raw = _deconv_pairs(pf, sf, pg, sg)
    c_pts, c_segs = _clip_to_nonnegative(pts, raw)
    return _from_tiling(*envelope(c_pts, c_segs, lower=False))
