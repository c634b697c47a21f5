"""Exact piecewise-linear curves on ``[0, inf)`` with jump support.

:class:`Curve` is the numeric backbone of the network-calculus layer.
It represents a total function ``f: [0, inf) -> R`` that is affine
between breakpoints and may jump *at* breakpoints — the exact class of
functions needed for arrival curves (burst jump at 0), rate-latency
service curves, and staircase/packetised curves.

Internally a curve is four equal-length NumPy arrays::

    bx[i]  breakpoint abscissae, bx[0] == 0, strictly increasing
    by[i]  exact value at bx[i]
    sy[i]  right-limit at bx[i]  (start value of the following segment)
    sl[i]  slope on the open interval (bx[i], bx[i+1]); bx[n] extends to inf

so ``f(bx[i]) = by[i]`` and ``f(t) = sy[i] + sl[i]*(t - bx[i])`` for
``t`` in ``(bx[i], bx[i+1])``.  Evaluation is vectorised.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .pieces import Point, Segment, envelope, merge_collinear
from .tolerance import EPS, EPS_STRICT, close as _close, rel_scale

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


def _freeze(c: "Curve", arrays: "Sequence[Sequence[float]] | np.ndarray") -> None:
    """Store equal-length ``(bx, by, sy, sl)`` as read-only rows of one block."""
    block = np.asarray(arrays, dtype=float)
    block.setflags(write=False)
    for name, row in zip(_FIELDS, block):
        object.__setattr__(c, name, row)


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
        bx_a = np.asarray(bx, dtype=float)
        by_a = np.asarray(by, dtype=float)
        sy_a = np.asarray(sy, dtype=float)
        sl_a = np.asarray(sl, dtype=float)
        if not (bx_a.ndim == by_a.ndim == sy_a.ndim == sl_a.ndim == 1):
            raise ValueError("curve arrays must be one-dimensional")
        if not (len(bx_a) == len(by_a) == len(sy_a) == len(sl_a) >= 1):
            raise ValueError("curve arrays must share a positive length")
        if bx_a[0] != 0.0:
            raise ValueError(f"curves are defined from t=0, got bx[0]={bx_a[0]}")
        if len(bx_a) > 1 and not (bx_a[1:] > bx_a[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        block = np.array((bx_a, by_a, sy_a, sl_a))
        if not np.isfinite(block).all():
            for name, arr in zip(_FIELDS, block):
                if not np.isfinite(arr).all():
                    raise ValueError(f"{name} must be finite, got {arr}")
        _freeze(self, block)

    @classmethod
    def _trusted(
        cls,
        bx: Sequence[float],
        by: Sequence[float],
        sy: Sequence[float],
        sl: Sequence[float],
    ) -> "Curve":
        """A curve from arrays the algebra itself computed.

        Operator results are valid by construction, so this skips the
        public constructor's checks; user input always goes through
        those.
        """
        c = object.__new__(cls)
        _freeze(c, (bx, by, sy, sl))
        return c

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Curve instances are immutable")

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
        return float(self.sl[-1])

    def __call__(self, t: "float | np.ndarray") -> "float | np.ndarray":
        """Evaluate the curve, vectorised over ``t`` (``t >= 0``)."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        ts = np.atleast_1d(arr)
        if np.any(ts < 0):
            raise ValueError("curves are defined on t >= 0")
        idx = np.searchsorted(self.bx, ts, side="right") - 1
        vals = self.sy[idx] + self.sl[idx] * (ts - self.bx[idx])
        exact = self.bx[idx] == ts
        vals = np.where(exact, self.by[idx], vals)
        return float(vals[0]) if scalar else vals

    def left_limit(self, t: float) -> float:
        """Limit of ``f`` from the left at ``t > 0``."""
        if t <= 0:
            raise ValueError("left limit requires t > 0")
        i = int(np.searchsorted(self.bx, t, side="left")) - 1
        return float(self.sy[i] + self.sl[i] * (t - self.bx[i]))

    def right_limit(self, t: float) -> float:
        """Limit of ``f`` from the right at ``t >= 0``."""
        if t < 0:
            raise ValueError("right limit requires t >= 0")
        i = int(np.searchsorted(self.bx, t, side="right")) - 1
        if self.bx[i] == t:
            return float(self.sy[i])
        return float(self.sy[i] + self.sl[i] * (t - self.bx[i]))

    def pieces(self) -> tuple[list[Point], list[Segment]]:
        """Decompose into the canonical point/open-segment tiling."""
        pts = [Point(float(x), float(y)) for x, y in zip(self.bx, self.by)]
        segs = []
        for i in range(len(self.bx)):
            x1 = float(self.bx[i + 1]) if i + 1 < len(self.bx) else math.inf
            segs.append(Segment(float(self.bx[i]), x1, float(self.sy[i]), float(self.sl[i])))
        return pts, segs

    def is_nondecreasing(self) -> bool:
        """True when the curve is wide-sense increasing (the NC class ``F``)."""
        bx, by, sy, sl = self.bx.tolist(), self.by.tolist(), self.sy.tolist(), self.sl.tolist()
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
        return self.is_continuous() and bool(
            np.all(np.diff(self.sl) <= tol * np.maximum(1.0, np.abs(self.sl[:-1])))
        )

    def is_convex(self, tol: float = EPS) -> bool:
        """True for continuous curves with non-decreasing slopes."""
        return self.is_continuous() and bool(
            np.all(np.diff(self.sl) >= -tol * np.maximum(1.0, np.abs(self.sl[:-1])))
        )

    # ------------------------------------------------------------------ #
    # pointwise algebra
    # ------------------------------------------------------------------ #

    def _merge_grid(self, other: "Curve") -> np.ndarray:
        return np.union1d(self.bx, other.bx)

    def _resampled_arrays(
        self, grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(by, sy, sl) of this curve re-expressed on a refined grid."""
        by = np.asarray(self(grid))
        idx = np.searchsorted(self.bx, grid, side="right") - 1
        sy = np.where(
            self.bx[idx] == grid,
            self.sy[idx],
            self.sy[idx] + self.sl[idx] * (grid - self.bx[idx]),
        )
        sl = self.sl[idx]
        return by, sy, sl

    def _zip_with(self, other: "Curve", fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "Curve":
        grid = self._merge_grid(other)
        by1, sy1, sl1 = self._resampled_arrays(grid)
        by2, sy2, sl2 = other._resampled_arrays(grid)
        return Curve._trusted(grid, fn(by1, by2), fn(sy1, sy2), fn(sl1, sl2)).canonical()

    def __add__(self, other: "Curve | float") -> "Curve":
        if isinstance(other, Curve):
            return self._zip_with(other, np.add)
        return self.vshift(float(other))

    __radd__ = __add__

    def __sub__(self, other: "Curve | float") -> "Curve":
        if isinstance(other, Curve):
            return self._zip_with(other, np.subtract)
        return self.vshift(-float(other))

    def __neg__(self) -> "Curve":
        return Curve._trusted(self.bx, -self.by, -self.sy, -self.sl)

    def __mul__(self, k: float) -> "Curve":
        """Vertical scaling ``(k*f)(t) = k*f(t)``."""
        k = float(k)
        if k >= 0:
            return Curve(self.bx, k * self.by, k * self.sy, k * self.sl)
        return -(self * (-k))

    __rmul__ = __mul__

    def vshift(self, dy: float) -> "Curve":
        """Vertical shift ``f(t) + dy``."""
        if not math.isfinite(dy):
            raise ValueError(f"vshift needs a finite offset, got {dy}")
        return Curve._trusted(self.bx, self.by + dy, self.sy + dy, self.sl)

    def hshift(self, delay: float, fill: float = 0.0) -> "Curve":
        """Right shift: ``g(t) = f(t - delay)`` for ``t >= delay``, else ``fill``.

        This is composition with the pure-delay element: a service curve
        delayed by ``delay`` seconds.
        """
        if delay < 0:
            raise ValueError("hshift requires delay >= 0")
        if delay == 0:
            return self
        bx = np.concatenate(([0.0], self.bx + delay))
        # value at t=delay: fill on [0, delay) but f(0) at delay itself
        by = np.concatenate(([fill], self.by))
        sy = np.concatenate(([fill], self.sy))
        sl = np.concatenate(([0.0], self.sl))
        return Curve(bx, by, sy, sl).canonical()

    def xscale(self, k: float) -> "Curve":
        """Horizontal scaling ``g(t) = f(t / k)`` for ``k > 0``."""
        if k <= 0:
            raise ValueError("xscale requires k > 0")
        return Curve(self.bx * k, self.by, self.sy, self.sl / k)

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
        best = -math.inf
        for i in range(len(self.bx)):
            x0 = float(self.bx[i])
            if x0 > t_max:
                break
            best = max(best, float(self.by[i]))
            x1 = float(self.bx[i + 1]) if i + 1 < len(self.bx) else math.inf
            hi = min(x1, t_max)
            if hi > x0:
                if math.isinf(hi):
                    if self.sl[i] > 0:
                        return math.inf
                    best = max(best, float(self.sy[i]))
                else:
                    end = float(self.sy[i] + self.sl[i] * (hi - x0))
                    start = float(self.sy[i])
                    best = max(best, start, end)
                    if hi == t_max and x0 <= t_max <= x1:
                        # t_max interior to segment: value included above
                        pass
        return best

    def inf(self, t_max: float = math.inf) -> float:
        """Infimum of the curve over ``[0, t_max]``."""
        return -((-self).sup(t_max))

    # ------------------------------------------------------------------ #
    # comparison / misc
    # ------------------------------------------------------------------ #

    def canonical(self) -> "Curve":
        """Return an equivalent curve with merged collinear pieces."""
        merged = merge_collinear(
            self.bx.tolist(), self.by.tolist(), self.sy.tolist(), self.sl.tolist()
        )
        if len(merged[0]) == len(self.bx):
            return self
        return Curve._trusted(*merged)

    def almost_equal(self, other: "Curve", tol: float = EPS) -> bool:
        """Pointwise equality within ``tol`` (checked exactly via pieces)."""
        diff = self - other
        lo, hi = diff.inf(), diff.sup()
        if math.isinf(lo) or math.isinf(hi):
            return False
        scale = max(
            1.0,
            float(np.max(np.abs(self.by))) if len(self.by) else 1.0,
            float(np.max(np.abs(other.by))) if len(other.by) else 1.0,
        )
        return max(abs(lo), abs(hi)) <= tol * scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        if self is other:
            return True
        a, b = self.canonical(), other.canonical()
        return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in _FIELDS)

    def __hash__(self) -> int:
        c = self.canonical()
        # ``==`` compares values, so -0.0 must hash like 0.0: adding 0.0
        # maps -0.0 to +0.0 under IEEE rounding
        return hash(tuple((getattr(c, n) + 0.0).tobytes() for n in _FIELDS))

    def sample(self, ts: Sequence[float]) -> np.ndarray:
        """Evaluate on a sequence of abscissae (alias of ``__call__``)."""
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
