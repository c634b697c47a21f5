"""The curve-algebra kernel: one dispatch layer for every curve operation.

Motivated by Nancy (Zippo & Stea): an exact NC library gets its speed
not from a faster generic envelope but from specializing on the curve
class.  The paper models every stage as a rate-latency curve
``beta_{R,T}``, every maximum service as a constant-rate curve
``lambda_R`` (``T = 0``) and packetization as ``[beta - l]^+``, so
nearly every operation has one of those as its second operand, and
against them convolution, deconvolution and the vertical deviation are
single passes over the other curve's pieces instead of the generic
``O(n·m)`` piece envelope.

Every public operator in :mod:`repro.nc` funnels through two entry
points here:

* :func:`binary_op` — ``(op, f, g) -> result`` for convolution,
  deconvolution, min/max, and the deviation bounds;
* :func:`unary_op` — ``(op, f, *params) -> result`` for
  pseudo-inverses, sub-additive closure, and packetization.

Each call first tries the operation's fast path (see
``_FAST_BINARY``/``_FAST_UNARY``), which returns the exact closed form
or one-pass result for the shapes it recognizes and ``None`` to
decline; otherwise it runs the envelope-based generic supplied by the
calling module.  Fast paths reproduce the generic bit for bit wherever
the generic's own arithmetic is exact (dyadic rationals — the
property-test grid); on general floats both are exact up to rounding.
The kernel keeps no state: no interning, no memo, no counters.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Callable

import numpy as np

from .curve import Curve
from .pieces import merge_collinear
from .tolerance import close

__all__ = ["binary_op", "unary_op", "eval_batch"]


# --------------------------------------------------------------------- #
# shape recognizers (exact comparisons only)
# --------------------------------------------------------------------- #


def _rl_params(c: Curve) -> tuple[float, float] | None:
    """``(rate, latency)`` when ``c`` is a canonical rate-latency curve.

    Covers the degenerate corners: constant-rate (latency 0) and the
    zero curve (rate 0).  Comparisons are exact: a curve that is only
    nearly rate-latency, or not in canonical form, takes the generic
    path.
    """
    n = len(c.bx)
    if n == 1:
        if c.by[0] == 0.0 and c.sy[0] == 0.0 and c.sl[0] >= 0.0:
            return float(c.sl[0]), 0.0
        return None
    if (
        n == 2
        and c.by[0] == 0.0
        and c.by[1] == 0.0
        and c.sy[0] == 0.0
        and c.sy[1] == 0.0
        and c.sl[0] == 0.0
        and c.sl[1] > 0.0
    ):
        return float(c.sl[1]), float(c.bx[1])
    return None


def _make_rate_latency(rate: float, latency: float) -> Curve:
    if latency == 0.0:
        return Curve._trusted([0.0], [0.0], [0.0], [rate])
    return Curve._trusted([0.0, latency], [0.0, 0.0], [0.0, 0.0], [0.0, rate])


def _jump_line_params(c: Curve) -> tuple[float, float] | None:
    """``(burst, rate)`` for single-piece curves through the origin.

    The leaky-bucket family: ``f(0) = 0``, right-limit ``burst >= 0`` at
    ``0+``, then one affine ray of slope ``rate >= 0``.  Constant-rate
    curves are the ``burst = 0`` member.
    """
    if len(c.bx) != 1:
        return None
    if c.by[0] == 0.0 and c.sy[0] >= 0.0 and c.sl[0] >= 0.0:
        return float(c.sy[0]), float(c.sl[0])
    return None


def _single_piece_nondecreasing(c: Curve) -> tuple[float, float, float] | None:
    """``(value0, right_limit0, rate)`` for nondecreasing one-piece curves."""
    if len(c.bx) != 1:
        return None
    if c.by[0] <= c.sy[0] and c.sl[0] >= 0.0:
        return float(c.by[0]), float(c.sy[0]), float(c.sl[0])
    return None


# --------------------------------------------------------------------- #
# one-pass forms against a rate-latency curve
# --------------------------------------------------------------------- #
#
# beta_{R,T} = delta_T (*) lambda_R, so against it
#
#   (f (*) beta)(t) = R*(t-T) + inf_{s <= t-T} f(s) - R*s   (a forward scan)
#   (f (/) beta)(t) = R*(t+T) + sup_{s >= t+T} f(s) - R*s   (a backward scan)
#
# for t >= T resp. t >= 0; the shift by T is exact only for a
# nondecreasing f, so with T > 0 both decline on any other curve.  The
# scans work in the result's abscissae (f's breakpoints moved by +-T),
# evaluate every value from an exact anchor of f, and compute where an
# R-line meets a line of f from the two intercepts, as the envelope
# does.  So where the envelope's arithmetic is exact (the dyadic
# property-test grid) the results agree with it bit for bit.


def _f_lists(f: Curve) -> tuple[list[float], list[float], list[float], list[float]]:
    return f.bx.tolist(), f.by.tolist(), f.sy.tolist(), f.sl.tolist()


def _convolve_rl(f: Curve, rate: float, latency: float) -> Curve | None:
    """``f (*) beta_{rate,latency}`` in one forward pass over ``f``."""
    if latency > 0.0 and not f.is_nondecreasing():
        return None
    bx, by, sy, sl = _f_lists(f)
    n = len(bx)
    xs = [x + latency for x in bx]
    out: list[tuple[float, float, float, float]] = []  # (x, f(x), f(x+), slope)
    if latency > 0.0:
        # before T the infimum of a nondecreasing f over [0, t] is f(0)
        out.append((0.0, by[0], by[0], 0.0))
    left = by[0]  # the result's left-limit at the next breakpoint
    for i in range(n):
        x, s, k = xs[i], sy[i], sl[i]
        if out and x <= out[-1][0]:
            return None  # the shift merged two breakpoints
        a = min(left, by[i])
        nxt = xs[i + 1] if i + 1 < n else math.inf
        on_f = True  # the piece reaching nxt follows f's segment i
        if k >= rate:
            # the R-line through the lowest point so far stays below f
            out.append((x, a, min(a, s), rate))
            on_f = False
        elif a < s:
            # the R-line from a climbs until it meets f's segment
            c_r = a - rate * x
            c_f = s - k * x
            xc = (c_f - c_r) / (rate - k)
            if xc <= x:
                out.append((x, a, s, k))
            else:
                out.append((x, a, a, rate))
                if xc < nxt:
                    yc = k * xc + c_f
                    out.append((xc, yc, yc, k))
                else:
                    on_f = False
        else:
            out.append((x, a, s, k))
        if i + 1 < n:
            left = s + k * (bx[i + 1] - bx[i]) if on_f else out[-1][2] + rate * (nxt - x)
    return Curve._trusted(*merge_collinear(*zip(*out)))


def _deconvolve_rl(f: Curve, rate: float, latency: float) -> Curve | None:
    """``f (/) beta_{rate,latency}`` in one backward pass over ``f``.

    The caller has checked that ``f`` grows no faster than ``rate``.
    """
    if latency > 0.0 and not f.is_nondecreasing():
        return None
    bx, by, sy, sl = _f_lists(f)
    xs = [x - latency for x in bx]
    # pieces right to left as (x, value, right-limit, slope), each with
    # an exact anchor (ax, ay) on its line; on the final ray the result
    # is f itself, as f grows no faster than the R-line
    out = [(xs[-1], max(by[-1], sy[-1]), sy[-1], sl[-1])]
    anchors = [(xs[-1], sy[-1])]
    for i in range(len(bx) - 2, -1, -1):
        xn = xs[i + 1]
        if xn <= 0.0:
            break  # everything further left is clipped away
        x, s, k = xs[i], sy[i], sl[i]
        if x >= xn:
            return None  # the shift merged two breakpoints
        b = out[-1][1]  # the result at xn
        left_f = s + k * (bx[i + 1] - bx[i])
        if k >= rate:
            # the sup sits at the far end of the segment
            slope, anchor = rate, (xn, max(left_f, b))
        elif b > left_f:
            # the R-line back from b falls until it meets f's segment
            c_r = b - rate * xn
            c_f = s - k * x
            xc = (c_f - c_r) / (rate - k)
            if x < xc < xn:
                yc = rate * xc + c_r
                out.append((xc, yc, yc, rate))
                anchors.append((xn, b))
            slope, anchor = (rate, (xn, b)) if xc <= x else (k, (x, s))
        else:
            slope, anchor = k, (x, s)
        y0 = anchor[1] + slope * (x - anchor[0])
        out.append((x, max(by[i], y0), y0, slope))
        anchors.append(anchor)
    out.reverse(), anchors.reverse()
    # clip to t >= 0: drop the pieces that end by 0, start the next at 0
    j = 0
    while j + 1 < len(out) and out[j + 1][0] <= 0.0:
        j += 1
    out = out[j:]
    if out[0][0] < 0.0:
        (ax, ay), slope = anchors[j], out[0][3]
        v0 = ay + slope * (0.0 - ax)
        out[0] = (0.0, v0, v0, slope)
    return Curve._trusted(*merge_collinear(*zip(*out)))


def _vdev_rl(f: Curve, rate: float, latency: float) -> float:
    """``sup_t f(t) - beta_{rate,latency}(t)``: ``f - beta`` is affine
    between f's breakpoints and T, so the sup is one of its values and
    one-sided limits there, or ``inf`` when f outgrows the rate."""
    bx, by, sy, sl = _f_lists(f)
    if sl[-1] > rate:
        return math.inf
    best = -math.inf
    for i, x in enumerate(bx):
        b = rate * (x - latency) if x > latency else 0.0
        best = max(best, by[i] - b, sy[i] - b)
        if i:
            best = max(best, sy[i - 1] + sl[i - 1] * (x - bx[i - 1]) - b)
    if latency > 0.0:
        j = bisect_right(bx, latency) - 1
        if bx[j] != latency:
            best = max(best, sy[j] + sl[j] * (latency - bx[j]))
    return best


# --------------------------------------------------------------------- #
# closed-form fast paths
# --------------------------------------------------------------------- #
#
# Contract: each fast path returns the exact closed form of the
# operation or None to decline.  Bit-for-bit agreement with the generic
# algorithm is property-tested on the dyadic-float curve families where
# the generic's own envelope arithmetic is exact.


def _fast_convolve(f: Curve, g: Curve) -> Curve | None:
    rf, rg = _rl_params(f), _rl_params(g)
    if rf is not None and rg is not None:
        # (R1,T1) (*) (R2,T2) = (min(R1,R2), T1+T2); breakpoint and rate
        # arise in the generic envelope as the same float expressions.
        return _make_rate_latency(min(rf[0], rg[0]), rf[1] + rg[1])
    jf, jg = _jump_line_params(f), _jump_line_params(g)
    if jf is not None and jg is not None:
        # concave one-piece curves through the origin: convolution is the
        # pointwise minimum, and for this shape the generic convolution
        # bag reduces to exactly the minimum's line set (the combined
        # piece has the smaller slope with a dominated intercept).
        return _minimum_of_jump_lines(min(float(f.by[0]), float(g.by[0])), jf, jg)
    if rg is not None:
        return _convolve_rl(f, *rg)
    return None


def _minimum_of_jump_lines(
    v0: float, jf: tuple[float, float], jg: tuple[float, float]
) -> Curve:
    """``min`` of two jump-lines, as the lower envelope computes it:
    the steeper line until the two lines cross, the other after."""
    (b1, r1), (b2, r2) = jf, jg
    if r1 == r2:
        return Curve._trusted([0.0], [v0], [r1 * 0.0 + min(b1, b2)], [r1])
    (m_a, c_a), (m_b, c_b) = ((r1, b1), (r2, b2)) if r1 > r2 else ((r2, b2), (r1, b1))
    x = (c_b - c_a) / (m_a - m_b)
    if not x > 0.0:
        return Curve._trusted([0.0], [v0], [m_b * 0.0 + c_b], [m_b])
    y = m_b * x + c_b
    return Curve._trusted(*merge_collinear([0.0, x], [v0, y], [m_a * 0.0 + c_a, y], [m_a, m_b]))


def _fast_deconvolve(f: Curve, g: Curve) -> Curve | None:
    rl = _rl_params(g)
    if rl is None:
        return None
    rb, t = rl
    if f.sl[-1] > rb:
        return None  # generic raises UnboundedCurveError; keep its message
    sp = _single_piece_nondecreasing(f)
    if sp is None:
        return _deconvolve_rl(f, rb, t)
    v0, s0, ra = sp
    # sup_u f(t+u) - beta(u) peaks at u = T: an affine result (no jump),
    # anchored exactly as the generic straddling piece computes it.
    v = s0 + ra * t
    return Curve._trusted([0.0], [v], [v], [ra])


def _fast_extremum(f: Curve, g: Curve) -> Curve | None:
    return f if f is g else None


def _fast_vdev(f: Curve, g: Curve) -> float | None:
    rl = _rl_params(g)
    if rl is None:
        return None
    rb, t = rl
    jf = _jump_line_params(f)
    if jf is None:
        return _vdev_rl(f, rb, t)
    b, ra = jf
    if ra > rb:
        return math.inf
    # sup_t [alpha - beta] at t = T: the paper's x <= b + R_alpha * T
    return b + ra * t


def _fast_packetize_service(f: Curve, l_max: float) -> Curve | None:
    """``[beta_{R,T} - l]^+`` exactly as ``f.vshift(-l).max0()`` computes it.

    The generic envelope meets the zero line at ``x = (l + R*T) / R``
    and evaluates the shifted ray there as ``R*x + (-l - R*T)``, which
    need not round to 0; the closed form repeats both expressions.
    """
    rl = _rl_params(f)
    if rl is None or close(0.0, rl[0]):
        return None  # a near-zero slope would merge into the flat piece
    rate, latency = rl
    level = l_max + rate * latency
    x = level / rate
    if not x > latency:
        return None  # the knee rounded onto T: the generic shapes it
    y = rate * x - level
    return Curve._trusted([0.0, x], [0.0, y], [0.0, y], [0.0, rate])


def _fast_closure(f: Curve, max_iterations: int) -> Curve | None:
    if f.by[0] == 0.0 and f.is_nondecreasing() and f.is_concave():
        # concave + f(0) = 0 => subadditive => f (*) f = f: the fixpoint
        # iteration converges to its input immediately.
        return f
    return None


_FAST_BINARY: dict[str, Callable[[Curve, Curve], Any]] = {
    "convolve": _fast_convolve,
    "deconvolve": _fast_deconvolve,
    "minimum": _fast_extremum,
    "maximum": _fast_extremum,
    "vertical_deviation": _fast_vdev,
    # NOTE: no horizontal_deviation fast path.  The generic level sweep
    # recovers open-interval right-limits by midpoint extrapolation,
    # whose rounding differs from the closed form T + b/R_beta by an ulp
    # even on dyadic inputs, so the exactness contract cannot be met.
}

_FAST_UNARY: dict[str, Callable[..., Any]] = {
    "subadditive_closure": _fast_closure,
    "packetize_service": _fast_packetize_service,
}


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #


def binary_op(
    op: str,
    f: Curve,
    g: Curve,
    generic: Callable[[Curve, Curve], Any],
) -> Any:
    """Dispatch a two-operand curve operation: fast path, else ``generic``."""
    fast = _FAST_BINARY.get(op)
    result = fast(f, g) if fast is not None else None
    return generic(f, g) if result is None else result


def unary_op(op: str, f: Curve, generic: Callable[..., Any], *params: Any) -> Any:
    """Dispatch a one-operand curve operation with scalar ``params``."""
    fast = _FAST_UNARY.get(op)
    result = fast(f, *params) if fast is not None else None
    return generic(f, *params) if result is None else result


def eval_batch(curve: Curve, xs: Any) -> np.ndarray:
    """Evaluate ``curve`` at a whole vector of abscissae in one call.

    The batched entry point for layers that hold full point lists — the
    sweep runner's grid evaluation, the scenario judge's checks, the
    telemetry conformance replay, and the serve tier's capacity
    sampling.  Always returns a 1-D float array (scalar input becomes a
    length-1 array).
    """
    arr = np.atleast_1d(np.asarray(xs, dtype=float)).ravel()
    return np.asarray(curve(arr), dtype=float)
