"""Piece-level machinery for piecewise-linear functions with jumps.

A curve in this library (see :mod:`repro.nc.curve`) is a total function
on ``[0, inf)`` described by an alternating sequence of

* **points** ``(x, y)`` — the exact value at a breakpoint, and
* **open segments** ``(x0, x1, y0, slope)`` — an affine piece on the open
  interval ``(x0, x1)`` whose right-limit at ``x0`` is ``y0``; ``x1`` may
  be ``math.inf``.

This point/segment decomposition is the standard representation used by
exact network-calculus tool-boxes (RTC, Nancy): it captures left *and*
right discontinuities, which matter because e.g. a leaky-bucket arrival
curve satisfies ``alpha(0) = 0`` but ``alpha(0+) = b``.

The central primitive here is :func:`envelope`: the exact pointwise
lower (or upper) envelope of an arbitrary bag of points and segments.
Min-plus convolution and deconvolution both reduce to an envelope of
pairwise piece combinations (see :mod:`repro.nc.minplus`).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

from .tolerance import close

__all__ = [
    "Point",
    "Segment",
    "envelope",
    "lower_envelope_of_lines",
    "upper_envelope_of_lines",
]

class Point(NamedTuple):
    """The exact value ``y`` of a function at the single abscissa ``x``."""

    x: float
    y: float


class Segment(NamedTuple):
    """An affine piece on the *open* interval ``(x0, x1)``.

    ``y0`` is the right-limit of the function at ``x0`` (the segment does
    not include its endpoints); ``x1`` may be ``math.inf``.
    """

    x0: float
    x1: float
    y0: float
    slope: float

    def value_at(self, x: float) -> float:
        """Value of the affine extension at ``x`` (caller checks domain)."""
        return self.y0 + self.slope * (x - self.x0)

    @property
    def left_limit_at_x1(self) -> float:
        """Limit of the segment value as ``x -> x1``  (``inf`` if unbounded)."""
        if math.isinf(self.x1):
            return math.inf if self.slope > 0 else (self.y0 if self.slope == 0 else -math.inf)
        return self.y0 + self.slope * (self.x1 - self.x0)


class _Line(NamedTuple):
    """A full line ``y = m*x + c`` used during envelope computation."""

    m: float
    c: float

    def at(self, x: float) -> float:
        return self.m * x + self.c


#: Tolerant float equality — alias of :func:`repro.nc.tolerance.close`.
_close = close


def lower_envelope_of_lines(
    lines: Iterable[tuple[float, float]],
) -> list[_Line]:
    """Lower envelope (pointwise min) of full lines ``y = m*x + c``.

    Returns hull lines ordered by *decreasing* slope, i.e. in the order
    in which they are active as ``x`` increases from ``-inf`` to ``inf``.
    Duplicate slopes keep only the lowest intercept.
    """
    # Deduplicate by slope, keeping the line with the smallest intercept.
    by_slope: dict[float, float] = {}
    for m, c in lines:
        prev = by_slope.get(m)
        if prev is None or c < prev:
            by_slope[m] = c
    cand = sorted((_Line(m, c) for m, c in by_slope.items()), key=lambda l: -l.m)
    if len(cand) <= 1:
        return cand

    def _x_cross(a: _Line, b: _Line) -> float:
        # abscissa where a and b intersect; slopes are distinct by dedupe
        return (b.c - a.c) / (a.m - b.m)

    hull: list[_Line] = []
    for line in cand:
        while hull:
            if len(hull) == 1:
                # keep hull[0] only if it is ever strictly below `line`
                # (hull[0].m > line.m, so hull[0] is lower for small x): always keep
                break
            # hull[-1] becomes useless if line overtakes it no later than
            # hull[-2] hands over to it.
            x_prev = _x_cross(hull[-2], hull[-1])
            x_new = _x_cross(hull[-1], line)
            if x_new <= x_prev:
                hull.pop()
            else:
                break
        hull.append(line)
    return hull


def upper_envelope_of_lines(
    lines: Iterable[tuple[float, float]],
) -> list[_Line]:
    """Upper envelope (pointwise max) of lines, ordered by increasing-x activity."""
    neg = lower_envelope_of_lines((-m, -c) for m, c in lines)
    return [_Line(-l.m, -l.c) for l in neg]


def _hull_pieces_on(
    hull: list[_Line],
    u: float,
    v: float,
    settle: Callable[[float, float], float] | None = None,
) -> list[tuple[float, float, float, float]]:
    """Clip an ordered line hull to the open interval ``(u, v)``.

    Returns segments ``(x0, x1, y0_right_limit, slope)`` tiling ``(u, v)``.
    ``hull`` must be ordered by activity along increasing ``x`` (as
    produced by the envelope-of-lines helpers); ``v`` may be ``inf``.
    A piece starting at a handover takes the entering line's value
    there, or with ``settle`` (``min`` or ``max``) that of the leaving
    and the entering line's values: both lines are active at the
    handover, and its rounded abscissa may sit off their true crossing.
    """
    if not hull:
        return []
    # Handover abscissas between consecutive hull lines.
    xs: list[float] = []
    for a, b in zip(hull, hull[1:]):
        xs.append((b.c - a.c) / (a.m - b.m))
    # Active piece boundaries restricted to (u, v).
    out: list[tuple[float, float, float, float]] = []
    lo = u
    for i, line in enumerate(hull):
        hi = xs[i] if i < len(xs) else math.inf
        a = max(lo, u)
        b = min(hi, v)
        if b > a:
            y0 = line.at(a)
            if settle is not None and a > u:
                y0 = settle(hull[i - 1].at(a), y0)
            out.append((a, b, y0, line.m))
        lo = hi
        if lo >= v:
            break
    return out


def envelope(
    points: Iterable[Point],
    segments: Iterable[Segment],
    *,
    lower: bool = True,
    fill_holes: bool = False,
    settle_handovers: bool = False,
) -> tuple[list[Point], list[Segment]]:
    """Exact pointwise lower/upper envelope of a bag of pieces.

    Computes ``E(x) = min`` (or ``max``) over all pieces defined at
    ``x``.  Points are defined only at their abscissa; segments only on
    their open interval.  The resulting function is returned as a
    canonical alternating point/segment tiling of
    ``[xmin, inf)`` where ``xmin`` is the smallest abscissa covered.

    Every abscissa in ``[xmin, inf)`` must be covered by at least one
    piece, unless ``fill_holes`` is set, in which case a breakpoint with
    no defined piece takes the min (resp. max) of the adjacent segment
    limits — convolution/deconvolution piece bags are hole-free by
    construction, so this is a defensive option only.

    ``settle_handovers`` values a handover between two hull lines inside
    an elementary interval at the min (resp. max) of both lines there
    instead of at the entering line alone.

    Returns ``(points, segments)`` with ``len(points) == len(segments)``
    and ``segments[i]`` spanning ``(points[i].x, points[i+1].x)`` (the
    last segment is unbounded).
    """
    pts = list(points)
    segs = [s for s in segments if s.x1 > s.x0]
    if not pts and not segs:
        raise ValueError("envelope of an empty piece bag")

    best = min if lower else max

    # ---- grid of elementary interval boundaries -------------------------
    grid_set = {p.x for p in pts}
    for s in segs:
        grid_set.add(s.x0)
        if math.isfinite(s.x1):
            grid_set.add(s.x1)
    grid = sorted(grid_set)
    xmin = grid[0]
    if not any(math.isinf(s.x1) for s in segs):
        raise ValueError("piece bag does not cover out to +inf")

    out_points: list[Point] = []
    out_segments: list[Segment] = []

    # point-candidate map
    pt_at: dict[float, list[float]] = {}
    for p in pts:
        pt_at.setdefault(p.x, []).append(p.y)

    intervals = list(zip(grid, grid[1:])) + [(grid[-1], math.inf)]

    # ---- per elementary interval: envelope of active lines --------------
    env_segments_per_interval: list[list[tuple[float, float, float, float]]] = []
    for u, v in intervals:
        active = [s for s in segs if s.x0 <= u and s.x1 >= v]
        if not active:
            env_segments_per_interval.append([])
            continue
        lines = [(s.slope, s.y0 - s.slope * s.x0) for s in active]
        hull = (
            lower_envelope_of_lines(lines) if lower else upper_envelope_of_lines(lines)
        )
        env_segments_per_interval.append(
            _hull_pieces_on(hull, u, v, best if settle_handovers else None)
        )

    # ---- values at grid points ------------------------------------------
    for gi, x in enumerate(grid):
        candidates = list(pt_at.get(x, ()))
        for s in segs:
            if s.x0 < x < s.x1:
                candidates.append(s.value_at(x))
        if not candidates:
            if not fill_holes:
                raise ValueError(f"piece bag leaves the function undefined at x={x}")
            limits = []
            if gi > 0 and env_segments_per_interval[gi - 1]:
                a, b, y0, m = env_segments_per_interval[gi - 1][-1]
                limits.append(y0 + m * (b - a))
            if env_segments_per_interval[gi]:
                a, b, y0, m = env_segments_per_interval[gi][0]
                limits.append(y0)
            if not limits:
                raise ValueError(f"cannot fill hole at x={x}: no adjacent pieces")
            candidates = [best(limits)]
        y = best(candidates)

        out_points.append(Point(x, y))
        env = env_segments_per_interval[gi]
        if not env:
            if math.isinf(intervals[gi][1]):
                raise ValueError("piece bag does not cover the final ray")
            if not fill_holes:
                raise ValueError(
                    f"piece bag leaves ({intervals[gi][0]}, {intervals[gi][1]}) uncovered"
                )
            # bridge the hole with a constant continuation of the point value
            env = [(intervals[gi][0], intervals[gi][1], y, 0.0)]
        for j, (a, b, y0, m) in enumerate(env):
            if j > 0:
                # interior crossing abscissa: the function is defined there by
                # the active segments, and it is continuous across the seam.
                out_points.append(Point(a, y0))
            out_segments.append(Segment(a, b, y0, m))

    return _canonicalize(out_points, out_segments)


def merge_collinear(
    bx: Sequence[float], by: Sequence[float], sy: Sequence[float], sl: Sequence[float]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Drop every breakpoint the function flows straight through.

    The arguments are a curve's four arrays (see :mod:`repro.nc.curve`).
    Breakpoint ``i`` goes when the merged piece before it reaches
    ``by[i]`` continuously, ``by[i] == sy[i]`` and the slope does not
    change, all under the shared tolerance.  The merged piece keeps its
    own anchor and slope.
    """
    ox, oy, os_, ol = [bx[0]], [by[0]], [sy[0]], [sl[0]]
    for x, y, s, k in zip(bx[1:], by[1:], sy[1:], sl[1:]):
        left = os_[-1] + ol[-1] * (x - ox[-1])
        if _close(left, y) and _close(y, s) and _close(ol[-1], k):
            continue
        ox.append(x)
        oy.append(y)
        os_.append(s)
        ol.append(k)
    return ox, oy, os_, ol


def _canonicalize(
    points: list[Point], segments: list[Segment]
) -> tuple[list[Point], list[Segment]]:
    """Merge collinear/continuous neighbours into a minimal piece sequence."""
    assert len(points) == len(segments), (len(points), len(segments))
    bx, by, sy, sl = merge_collinear(
        [p.x for p in points],
        [p.y for p in points],
        [s.y0 for s in segments],
        [s.slope for s in segments],
    )
    ends = bx[1:] + [math.inf]
    return (
        [Point(x, y) for x, y in zip(bx, by)],
        [Segment(x, x1, y0, k) for x, x1, y0, k in zip(bx, ends, sy, sl)],
    )
