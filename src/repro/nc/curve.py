"""Exact piecewise-linear curves on ``[0, inf)`` with jump support.

:class:`Curve` is the numeric backbone of the network-calculus layer.
It represents a total function ``f: [0, inf) -> R`` that is affine
between breakpoints and may jump *at* breakpoints — the exact class of
functions needed for arrival curves (burst jump at 0), rate-latency
service curves, and staircase/packetised curves.

Internally a curve is four equal-length tuples of floats::

    bx[i]  breakpoint abscissae, bx[0] == 0, strictly increasing
    by[i]  exact value at bx[i]
    sy[i]  right-limit at bx[i]  (start value of the following segment)
    sl[i]  slope on the open interval (bx[i], bx[i+1]); bx[n] extends to inf

so ``f(bx[i]) = by[i]`` and ``f(t) = sy[i] + sl[i]*(t - bx[i])`` for
``t`` in ``(bx[i], bx[i+1])``.  The model's curves hold a handful of
pieces, so scalar evaluation is a :mod:`bisect` lookup; NumPy is
imported only to evaluate on arrays (``__call__`` on a vector,
:meth:`Curve.sample`, :func:`repro.nc.kernel.eval_batch`).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .pieces import Point, Segment, envelope, merge_collinear
from .tolerance import EPS, EPS_STRICT, close as _close, rel_scale

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Curve", "UnboundedCurveError"]


class UnboundedCurveError(ValueError):
    """Raised when an operation would produce an everywhere-infinite curve.

    The classic case is deconvolving by a service curve whose long-run
    rate is smaller than the arrival curve's (``R_alpha > R_beta``): the
    paper notes the resulting bounds are infinite.  Callers that want the
    paper's *transient* interpretation should catch this and use
    :mod:`repro.nc.transient` instead.
    """


_FIELDS = ("bx", "by", "sy", "sl")


def _freeze(c: "Curve", fields: Iterable[Sequence[float]]) -> None:
    """Store equal-length ``(bx, by, sy, sl)`` as tuples."""
    for name, values in zip(_FIELDS, fields):
        object.__setattr__(c, name, tuple(values))


class Curve:
    """A piecewise-linear, possibly discontinuous function on ``[0, inf)``.

    Curves are immutable.  Build them with the constructor (low level),
    :meth:`Curve.from_pieces`, or the named constructors in
    :mod:`repro.nc.builders` (leaky bucket, rate-latency, ...).
    """

    __slots__ = _FIELDS

    def __init__(
        self,
        bx: Sequence[float],
        by: Sequence[float],
        sy: Sequence[float],
        sl: Sequence[float],
    ) -> None:
        try:
            fields = [tuple(map(float, f)) for f in (bx, by, sy, sl)]
        except TypeError:
            raise ValueError("curve arrays must be one-dimensional") from None
        xs = fields[0]
        if not (len(xs) == len(fields[1]) == len(fields[2]) == len(fields[3]) >= 1):
            raise ValueError("curve arrays must share a positive length")
        if xs[0] != 0.0:
            raise ValueError(f"curves are defined from t=0, got bx[0]={xs[0]}")
        if not all(b > a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for name, values in zip(_FIELDS, fields):
            if not all(map(math.isfinite, values)):
                import numpy as np  # the message prints the values as an array, as always

                raise ValueError(f"{name} must be finite, got {np.asarray(values)}")
        _freeze(self, fields)

    @classmethod
    def _trusted(
        cls,
        bx: Sequence[float],
        by: Sequence[float],
        sy: Sequence[float],
        sl: Sequence[float],
    ) -> "Curve":
        """A curve from values the algebra itself computed.

        Operator results are valid by construction, so this skips the
        public constructor's checks; user input always goes through
        those.
        """
        c = object.__new__(cls)
        _freeze(c, (bx, by, sy, sl))
        return c

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Curve instances are immutable")

    def __reduce__(self) -> tuple:
        # pickle and deepcopy rebuild through _trusted, not the guarded __setattr__
        return type(self)._trusted, (self.bx, self.by, self.sy, self.sl)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zero(cls) -> "Curve":
        """The identically-zero curve."""
        return cls([0.0], [0.0], [0.0], [0.0])

    @classmethod
    def constant(cls, c: float) -> "Curve":
        """The constant curve ``f(t) = c``."""
        return cls([0.0], [c], [c], [0.0])

    @classmethod
    def affine(cls, rate: float, offset: float = 0.0) -> "Curve":
        """The affine curve ``f(t) = offset + rate * t`` (continuous at 0)."""
        return cls([0.0], [offset], [offset], [rate])

    @classmethod
    def from_pieces(cls, points: Iterable[Point], segments: Iterable[Segment]) -> "Curve":
        """Build a curve from a canonical alternating point/segment tiling.

        ``points[i]`` must sit at the left end of ``segments[i]``; the
        first point must be at 0 and the last segment unbounded.
        """
        pts = list(points)
        segs = list(segments)
        if len(pts) != len(segs):
            raise ValueError("need exactly one point per segment")
        if not pts:
            raise ValueError("empty piece sequence")
        if pts[0].x != 0.0:
            raise ValueError("first point must be at x=0")
        if not math.isinf(segs[-1].x1):
            raise ValueError("last segment must extend to +inf")
        for i, (p, s) in enumerate(zip(pts, segs)):
            if s.x0 != p.x:
                raise ValueError(f"segment {i} does not start at its point")
            nxt = pts[i + 1].x if i + 1 < len(pts) else math.inf
            if s.x1 != nxt:
                raise ValueError(f"segment {i} does not reach the next point")
        return cls(
            [p.x for p in pts],
            [p.y for p in pts],
            [s.y0 for s in segs],
            [s.slope for s in segs],
        )

    @classmethod
    def from_breakpoints(cls, xs: Sequence[float], ys: Sequence[float], final_slope: float) -> "Curve":
        """Continuous PWL curve through ``(xs[i], ys[i])`` then ``final_slope``.

        Convenience constructor for continuous curves (no jumps).
        """
        xs_a = [float(x) for x in xs]
        ys_a = [float(y) for y in ys]
        if len(xs_a) != len(ys_a) or not xs_a:
            raise ValueError("xs and ys must be equal-length and non-empty")
        if xs_a[0] != 0.0:
            raise ValueError("first breakpoint must be at 0")
        slopes = []
        for i in range(len(xs_a) - 1):
            dx = xs_a[i + 1] - xs_a[i]
            if dx <= 0:
                raise ValueError("xs must be strictly increasing")
            slopes.append((ys_a[i + 1] - ys_a[i]) / dx)
        slopes.append(float(final_slope))
        return cls(xs_a, ys_a, ys_a, slopes)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def n_breakpoints(self) -> int:
        """Number of breakpoints (>= 1; the first is always at 0)."""
        return len(self.bx)

    @property
    def final_slope(self) -> float:
        """Long-run growth rate: the slope of the unbounded final segment."""
        return self.sl[-1]

    def __call__(self, t: "float | np.ndarray") -> "float | np.ndarray":
        """Evaluate the curve at ``t >= 0``, a number or an array."""
        if isinstance(t, (float, int)):
            t = float(t)
            if t < 0:
                raise ValueError("curves are defined on t >= 0")
            i = bisect_right(self.bx, t) - 1
            return self.by[i] if self.bx[i] == t else self.sy[i] + self.sl[i] * (t - self.bx[i])
        import numpy as np

        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        ts = np.atleast_1d(arr)
        if np.any(ts < 0):
            raise ValueError("curves are defined on t >= 0")
        bx, by, sy, sl = np.array((self.bx, self.by, self.sy, self.sl))
        idx = np.searchsorted(bx, ts, side="right") - 1
        vals = sy[idx] + sl[idx] * (ts - bx[idx])
        vals = np.where(bx[idx] == ts, by[idx], vals)
        return float(vals[0]) if scalar else vals

    def left_limit(self, t: float) -> float:
        """Limit of ``f`` from the left at ``t > 0``."""
        if t <= 0:
            raise ValueError("left limit requires t > 0")
        i = bisect_left(self.bx, t) - 1
        return float(self.sy[i] + self.sl[i] * (t - self.bx[i]))

    def right_limit(self, t: float) -> float:
        """Limit of ``f`` from the right at ``t >= 0``."""
        if t < 0:
            raise ValueError("right limit requires t >= 0")
        i = bisect_right(self.bx, t) - 1
        if self.bx[i] == t:
            return self.sy[i]
        return float(self.sy[i] + self.sl[i] * (t - self.bx[i]))

    def pieces(self) -> tuple[list[Point], list[Segment]]:
        """Decompose into the canonical point/open-segment tiling."""
        ends = self.bx[1:] + (math.inf,)
        pts = list(map(Point, self.bx, self.by))
        return pts, list(map(Segment, self.bx, ends, self.sy, self.sl))

    def is_nondecreasing(self) -> bool:
        """True when the curve is wide-sense increasing (the NC class ``F``)."""
        bx, by, sy, sl = self.bx, self.by, self.sy, self.sl
        for i in range(len(bx)):
            if sl[i] < 0:
                return False
            # point must not exceed the outgoing right-limit
            if by[i] > sy[i] + EPS_STRICT * rel_scale(sy[i]):
                return False
            if i > 0:
                left = sy[i - 1] + sl[i - 1] * (bx[i] - bx[i - 1])
                if left > by[i] + EPS_STRICT * rel_scale(by[i]):
                    return False
        return True

    def is_continuous(self) -> bool:
        """True when the curve has no jumps at any breakpoint."""
        for i in range(len(self.bx)):
            if not _close(self.by[i], self.sy[i]):
                return False
            if i > 0:
                left = self.sy[i - 1] + self.sl[i - 1] * (self.bx[i] - self.bx[i - 1])
                if not _close(left, self.by[i]):
                    return False
        return True

    def is_concave(self, tol: float = EPS) -> bool:
        """True for continuous curves with non-increasing slopes."""
        return self.is_continuous() and all(
            b - a <= tol * max(1.0, abs(a)) for a, b in zip(self.sl, self.sl[1:])
        )

    def is_convex(self, tol: float = EPS) -> bool:
        """True for continuous curves with non-decreasing slopes."""
        return self.is_continuous() and all(
            b - a >= -tol * max(1.0, abs(a)) for a, b in zip(self.sl, self.sl[1:])
        )

    # ------------------------------------------------------------------ #
    # pointwise algebra
    # ------------------------------------------------------------------ #

    def _resampled(self, grid: Sequence[float]) -> tuple[tuple[float, ...], ...]:
        """(by, sy, sl) of this curve on a sorted grid holding its breakpoints."""
        bx, by, sy, sl = self.bx, self.by, self.sy, self.sl
        rows, i = [], 0
        for x in grid:
            if i + 1 < len(bx) and bx[i + 1] == x:
                i += 1
            v = sy[i] + sl[i] * (x - bx[i])
            rows.append((by[i], sy[i], sl[i]) if bx[i] == x else (v, v, sl[i]))
        return tuple(zip(*rows))

    def _zip_with(self, other: "Curve", fn: Callable[[float, float], float]) -> "Curve":
        grid = sorted({*self.bx, *other.bx})
        mine, theirs = self._resampled(grid), other._resampled(grid)
        return Curve._trusted(grid, *(map(fn, a, b) for a, b in zip(mine, theirs))).canonical()

    def __add__(self, other: "Curve | float") -> "Curve":
        if isinstance(other, Curve):
            return self._zip_with(other, operator.add)
        return self.vshift(float(other))

    __radd__ = __add__

    def __sub__(self, other: "Curve | float") -> "Curve":
        if isinstance(other, Curve):
            return self._zip_with(other, operator.sub)
        return self.vshift(-float(other))

    def __neg__(self) -> "Curve":
        return Curve._trusted(self.bx, *([-v for v in f] for f in (self.by, self.sy, self.sl)))

    def __mul__(self, k: float) -> "Curve":
        """Vertical scaling ``(k*f)(t) = k*f(t)``."""
        k = float(k)
        if k >= 0:
            return Curve(self.bx, *([k * v for v in f] for f in (self.by, self.sy, self.sl)))
        return -(self * (-k))

    __rmul__ = __mul__

    def vshift(self, dy: float) -> "Curve":
        """Vertical shift ``f(t) + dy``."""
        if not math.isfinite(dy):
            raise ValueError(f"vshift needs a finite offset, got {dy}")
        by = [y + dy for y in self.by]
        return Curve._trusted(self.bx, by, [s + dy for s in self.sy], self.sl)

    def hshift(self, delay: float, fill: float = 0.0) -> "Curve":
        """Right shift: ``g(t) = f(t - delay)`` for ``t >= delay``, else ``fill``.

        This is composition with the pure-delay element: a service curve
        delayed by ``delay`` seconds.
        """
        if delay < 0:
            raise ValueError("hshift requires delay >= 0")
        if delay == 0:
            return self
        bx = [0.0, *(x + delay for x in self.bx)]
        # value at t=delay: fill on [0, delay) but f(0) at delay itself
        return Curve(bx, (fill, *self.by), (fill, *self.sy), (0.0, *self.sl)).canonical()

    def xscale(self, k: float) -> "Curve":
        """Horizontal scaling ``g(t) = f(t / k)`` for ``k > 0``."""
        if k <= 0:
            raise ValueError("xscale requires k > 0")
        return Curve([x * k for x in self.bx], self.by, self.sy, [m / k for m in self.sl])

    def max0(self) -> "Curve":
        """Positive part ``[f]^+ = max(f, 0)`` — used by ``[beta - l_max]^+``."""
        return self.maximum(Curve.zero())

    def minimum(self, other: "Curve") -> "Curve":
        """Exact pointwise minimum (kernel-dispatched)."""
        from .kernel import binary_op

        return binary_op("minimum", self, other, _minimum_generic)

    def maximum(self, other: "Curve") -> "Curve":
        """Exact pointwise maximum (kernel-dispatched)."""
        from .kernel import binary_op

        return binary_op("maximum", self, other, _maximum_generic)

    # ------------------------------------------------------------------ #
    # extrema
    # ------------------------------------------------------------------ #

    def sup(self, t_max: float = math.inf) -> float:
        """Supremum of the curve over ``[0, t_max]`` (``inf`` allowed)."""
        if t_max < 0:
            raise ValueError("t_max must be >= 0")
        bx, by, sy, sl = self.bx, self.by, self.sy, self.sl
        best = -math.inf
        for i in range(len(bx)):
            x0 = bx[i]
            if x0 > t_max:
                break
            best = max(best, by[i])
            x1 = bx[i + 1] if i + 1 < len(bx) else math.inf
            hi = min(x1, t_max)
            if hi > x0:
                if math.isinf(hi):
                    if sl[i] > 0:
                        return math.inf
                    best = max(best, sy[i])
                else:
                    end = sy[i] + sl[i] * (hi - x0)
                    start = sy[i]
                    best = max(best, start, end)
        return best

    def inf(self, t_max: float = math.inf) -> float:
        """Infimum of the curve over ``[0, t_max]``."""
        return -((-self).sup(t_max))

    # ------------------------------------------------------------------ #
    # comparison / misc
    # ------------------------------------------------------------------ #

    def canonical(self) -> "Curve":
        """Return an equivalent curve with merged collinear pieces."""
        merged = merge_collinear(self.bx, self.by, self.sy, self.sl)
        if len(merged[0]) == len(self.bx):
            return self
        return Curve._trusted(*merged)

    def almost_equal(self, other: "Curve", tol: float = EPS) -> bool:
        """Pointwise equality within ``tol`` (checked exactly via pieces)."""
        diff = self - other
        lo, hi = diff.inf(), diff.sup()
        if math.isinf(lo) or math.isinf(hi):
            return False
        scale = max(1.0, *map(abs, self.by), *map(abs, other.by))
        return max(abs(lo), abs(hi)) <= tol * scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        if self is other:
            return True
        a, b = self.canonical(), other.canonical()
        return (a.bx, a.by, a.sy, a.sl) == (b.bx, b.by, b.sy, b.sl)

    def __hash__(self) -> int:
        c = self.canonical()
        # ``==`` compares values, and Python hashes -0.0 like 0.0
        return hash((c.bx, c.by, c.sy, c.sl))

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """Evaluate on a sequence of abscissae, as an array."""
        import numpy as np

        return np.asarray(self(np.asarray(ts, dtype=float)))

    def __repr__(self) -> str:
        n = len(self.bx)
        if n == 1:
            return (
                f"Curve(f(0)={self.by[0]:g}, f(0+)={self.sy[0]:g}, "
                f"slope={self.sl[0]:g})"
            )
        return (
            f"Curve({n} breakpoints on [0, {self.bx[-1]:g}], "
            f"final slope {self.final_slope:g})"
        )


def _from_tiling(points: Sequence[Point], segments: Sequence[Segment]) -> Curve:
    """The curve of an envelope's output tiling, without re-checking it."""
    return Curve._trusted(
        [p.x for p in points],
        [p.y for p in points],
        [s.y0 for s in segments],
        [s.slope for s in segments],
    )


def _minimum_generic(f: Curve, g: Curve) -> Curve:
    """Envelope-based pointwise minimum (the kernel's generic fallback)."""
    p1, s1 = f.pieces()
    p2, s2 = g.pieces()
    return _from_tiling(*envelope(p1 + p2, s1 + s2, lower=True))


def _maximum_generic(f: Curve, g: Curve) -> Curve:
    """Envelope-based pointwise maximum (the kernel's generic fallback)."""
    p1, s1 = f.pieces()
    p2, s2 = g.pieces()
    return _from_tiling(*envelope(p1 + p2, s1 + s2, lower=False))
