"""Shared strategies and the exact rational reference for the NC tests.

The reference evaluates every operator from its definition in exact
rational arithmetic (:class:`fractions.Fraction`, as the Nancy library
does): each float of a curve's arrays converts to a ``Fraction``
exactly, and the inf (⊗) or sup (⊘, deviations) of a piecewise-linear
expression is taken over its breakpoint candidates *and* the one-sided
limits between them.  On every open interval between candidates the
expression is affine, so its extremum over the interval is one of the
two end limits — the candidate set is complete and the oracle has no
ε offsets or sampling error.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from repro.nc import EPS, Curve

_EPS_T = 1e-6   # offsets used to probe just inside open segments (test grid)

# small grid of well-behaved floats for curve geometry (multiples of 1/8
# keep float arithmetic exact through sums/differences)
_coords = st.integers(min_value=0, max_value=40).map(lambda k: k / 8.0)
_slopes = st.integers(min_value=0, max_value=32).map(lambda k: k / 4.0)
_jumps = st.integers(min_value=0, max_value=16).map(lambda k: k / 8.0)


# {0} ∪ [1e-3, 1e3]: arbitrary floats, but no subnormal-scale slopes —
# production compares slopes under an absolute tolerance, so a 1e-100
# slope would read as 0 there and as growth in exact arithmetic
_real = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def nondecreasing_curves(draw, max_breakpoints: int = 4, reals=None) -> Curve:
    """Random wide-sense-increasing PWL curve with jumps (class F).

    On the dyadic grid by default; ``reals`` draws every abscissa, jump
    and slope from that one strategy instead.
    """
    coords, jumps, slopes = (reals,) * 3 if reals is not None else (_coords, _jumps, _slopes)
    n = draw(st.integers(min_value=1, max_value=max_breakpoints))
    xs = sorted(draw(st.sets(coords.filter(lambda v: v > 0), min_size=n - 1, max_size=n - 1)))
    bx = [0.0] + list(xs)
    y0 = draw(jumps)
    by, sy, sl = [], [], []
    level = y0
    for i in range(n):
        by.append(level)
        level += draw(jumps)  # jump at the breakpoint (f(x) <= f(x+))
        sy.append(level)
        slope = draw(slopes)
        sl.append(slope)
        if i + 1 < n:
            level += slope * (bx[i + 1] - bx[i])
    return Curve(bx, by, sy, sl)


def float_curves(max_breakpoints: int = 4):
    """:func:`nondecreasing_curves` on arbitrary floats from ``{0} ∪ [1e-3, 1e3]``."""
    return nondecreasing_curves(max_breakpoints, reals=_real)


def critical_times(f: Curve, g: Curve, extra: int = 5) -> np.ndarray:
    """Abscissae where operator results can kink: pairwise breakpoint sums
    and differences, plus offsets into the open segments and a coarse grid."""
    pts = {0.0}
    for x1 in f.bx:
        for x2 in g.bx:
            for v in (x1 + x2, x1 - x2, x2 - x1, x1, x2):
                if v >= 0 and math.isfinite(v):
                    pts.add(float(v))
    out = set()
    for p in pts:
        out.add(p)
        out.add(p + _EPS_T)
        if p - _EPS_T >= 0:
            out.add(p - _EPS_T)
    hi = max(out) + 2.0
    for k in range(extra):
        out.add(hi * (k + 1) / extra)
    return np.array(sorted(out))


# --------------------------------------------------------------------- #
# exact rational reference
# --------------------------------------------------------------------- #

#: an exact function of time; ``math.inf`` marks an unbounded value
ExactFn = Callable[[Fraction], "Fraction | float"]


class Exact:
    """A :class:`Curve` read exactly: every array float as a ``Fraction``."""

    def __init__(self, c: Curve) -> None:
        self.bx = [Fraction(float(v)) for v in c.bx]
        self.by = [Fraction(float(v)) for v in c.by]
        self.sy = [Fraction(float(v)) for v in c.sy]
        self.sl = [Fraction(float(v)) for v in c.sl]
        self.final_slope = self.sl[-1]

    def _ray(self, i: int, t: Fraction) -> Fraction:
        return self.sy[i] + self.sl[i] * (t - self.bx[i])

    def at(self, t: Fraction) -> Fraction:
        i = bisect_right(self.bx, t) - 1
        return self.by[i] if self.bx[i] == t else self._ray(i, t)

    def right(self, t: Fraction) -> Fraction:
        """``f(t+)``."""
        return self._ray(bisect_right(self.bx, t) - 1, t)

    def left(self, t: Fraction) -> Fraction:
        """``f(t-)`` for ``t > 0``."""
        return self._ray(bisect_left(self.bx, t) - 1, t)


def _split_extremum(f: Curve, g: Curve, best) -> ExactFn:
    """``t -> best_{0<=s<=t} f(s) + g(t-s)`` (inf: ⊗, sup: max-plus ⊗)."""
    F, G = Exact(f), Exact(g)

    def at(t: Fraction) -> Fraction:
        cands = {Fraction(0), t}
        cands.update(x for x in F.bx if x <= t)
        cands.update(t - x for x in G.bx if x <= t)
        vals = []
        for s in cands:
            vals.append(F.at(s) + G.at(t - s))
            if s < t:
                vals.append(F.right(s) + G.left(t - s))
            if s > 0:
                vals.append(F.left(s) + G.right(t - s))
        return best(vals)

    return at


def exact_convolve(f: Curve, g: Curve) -> ExactFn:
    """``(f ⊗ g)(t) = inf_{0<=s<=t} f(s) + g(t-s)``, exactly."""
    return _split_extremum(f, g, min)


def exact_max_convolve(f: Curve, g: Curve) -> ExactFn:
    """Max-plus ``sup_{0<=s<=t} f(s) + g(t-s)``, exactly."""
    return _split_extremum(f, g, max)


def exact_deconvolve(f: Curve, g: Curve) -> ExactFn:
    """``(f ⊘ g)(t) = sup_{u>=0} f(t+u) - g(u)``, exactly (``inf`` when unbounded).

    Past the last candidate the expression is affine in ``u`` with slope
    ``f.final - g.final``: unbounded when positive, otherwise its sup is
    the right-limit at the last candidate (already a candidate value).
    """
    F, G = Exact(f), Exact(g)
    unbounded = F.final_slope > G.final_slope

    def at(t: Fraction) -> "Fraction | float":
        if unbounded:
            return math.inf
        cands = {Fraction(0)}
        cands.update(G.bx)
        cands.update(x - t for x in F.bx if x >= t)
        vals = []
        for u in cands:
            vals.append(F.at(t + u) - G.at(u))
            vals.append(F.right(t + u) - G.right(u))
            if u > 0:
                vals.append(F.left(t + u) - G.left(u))
        return max(vals)

    return at


def exact_minimum(f: Curve, g: Curve) -> ExactFn:
    F, G = Exact(f), Exact(g)
    return lambda t: min(F.at(t), G.at(t))


def exact_maximum(f: Curve, g: Curve) -> ExactFn:
    F, G = Exact(f), Exact(g)
    return lambda t: max(F.at(t), G.at(t))


def exact_vertical_deviation(f: Curve, g: Curve) -> "Fraction | float":
    """``sup_{t>=0} f(t) - g(t)``, exactly (``inf`` when unbounded)."""
    F, G = Exact(f), Exact(g)
    if F.final_slope > G.final_slope:
        return math.inf
    vals = []
    for x in set(F.bx) | set(G.bx):
        vals.append(F.at(x) - G.at(x))
        vals.append(F.right(x) - G.right(x))
        if x > 0:
            vals.append(F.left(x) - G.left(x))
    return max(vals)


def delay_slack(f: Curve, g: Curve, d: float) -> "Fraction | float":
    """``inf_{t>=0} g((t+d)+) - f(t)``, exactly: ``>= 0`` iff ``d >= h(f, g)``.

    The delay check ``f(t) <= g(t+d)`` at every critical ``t``: the
    expression's breakpoints are ``f``'s and ``g``'s shifted by ``-d``,
    and its tail slope is ``g.final - f.final`` (``-inf`` when negative).
    Using ``g``'s right-limit makes the check exact for nondecreasing
    ``g``, whose delay infimum need not be attained at a jump.
    """
    F, G = Exact(f), Exact(g)
    if G.final_slope < F.final_slope:
        return -math.inf
    dd = Fraction(d)
    cands = {Fraction(0)}
    cands.update(F.bx)
    cands.update(x - dd for x in G.bx if x >= dd)
    vals = []
    for t in cands:
        vals.append(G.right(t + dd) - F.at(t))
        vals.append(G.right(t + dd) - F.right(t))
        if t > 0:
            vals.append(G.left(t + dd) - F.left(t))
    return min(vals)


def _probe_times(c: Curve, kinks) -> list[float]:
    """Breakpoints of ``c`` plus interior points of its pieces.

    Interior points are the midpoints between consecutive breakpoints of
    ``c`` merged with the exact result's candidate kinks, plus two points
    on the final ray.
    """
    grid = sorted({float(x) for x in c.bx} | {float(k) for k in kinks if k >= 0})
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return sorted({*grid, *mids, grid[-1] + 1, 2 * grid[-1] + 3})


def assert_matches_exact(got: Curve, exact: ExactFn, kinks=()) -> None:
    """``got`` equals the exact function within EPS at every probe time.

    Float breakpoint sums round, which leaves ulp-wide slivers at jumps:
    production's jump may sit an ulp off the exact one.  So each probe
    ``t`` accepts any value between the exact function at ``t - δ``,
    ``t`` and ``t + δ`` (``δ = EPS·max(1, t)``), widened by EPS.
    """
    eps = Fraction(EPS)
    for t in _probe_times(got, kinks):
        delta = eps * Fraction(max(1.0, t))
        window = [exact(Fraction(t)), exact(t + delta)]
        if t >= delta:
            window.append(exact(t - delta))
        lo, hi = min(window), max(window)
        value = Fraction(float(got(t)))
        tol = eps * max(1, abs(lo), abs(hi))
        assert lo - tol <= value <= hi + tol, (t, float(value), float(lo), float(hi))


def sum_kinks(f: Curve, g: Curve) -> list[float]:
    """Breakpoint sums: where a convolution can kink or jump."""
    return [float(a + b) for a in f.bx for b in g.bx]


def diff_kinks(f: Curve, g: Curve) -> list[float]:
    """Breakpoint differences: where a deconvolution can kink or jump."""
    return [float(a - b) for a in f.bx for b in g.bx]
