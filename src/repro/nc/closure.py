"""Sub-additive closure of a curve.

The sub-additive closure ``f* = min(delta_0, f, f (*) f, f (*) f (*) f, ...)``
is the tightest sub-additive curve below ``f`` with ``f*(0) = 0``; an
arrival constraint ``r <= r (*) f`` is equivalent to ``r <= r (*) f*``.
For concave curves with ``f(0) = 0`` (every leaky bucket and their minima)
the closure is ``f`` itself; for general PWL curves we iterate
self-convolution to a fixpoint, with an optional horizon cut-off for
curves whose closure has unboundedly many pieces.
"""

from __future__ import annotations

import math

from .curve import Curve
from .kernel import unary_op
from .minplus import convolve
from .tolerance import EPS, rel_scale

__all__ = ["subadditive_closure", "is_subadditive"]


def is_subadditive(f: Curve, samples: int = 64) -> bool:
    """Heuristic sub-additivity check: ``f(s+t) <= f(s) + f(t)`` on a grid.

    Exact verification equals checking ``f == f (*) f`` (with ``f(0)=0``),
    which :func:`subadditive_closure` uses; this sampled variant is a
    cheap guard for user input validation.
    """
    import numpy as np

    horizon = float(f.bx[-1]) * 2.0 + 1.0
    ts = np.linspace(0.0, horizon, samples)
    vals = f(ts)
    for i in range(samples):
        for j in range(samples - i):
            if vals[i] + vals[j] < f(float(ts[i] + ts[j])) - EPS * rel_scale(vals[i]):
                return False
    return True


def subadditive_closure(f: Curve, max_iterations: int = 32) -> Curve:
    """Iterated-convolution fixpoint ``f* = min_k f^{(*)k}`` (with ``f*(0)=0``).

    Converges in one step for concave ``f`` with ``f(0) = 0``.  For
    curves needing more than ``max_iterations`` doublings the loop raises
    ``RuntimeError`` — in practice network-calculus models use closures
    of concave or rate-latency-like curves, which converge immediately.
    Kernel-dispatched: concave curves through the origin short-circuit
    to themselves (they are already subadditive).
    """
    return unary_op("subadditive_closure", f, _closure_generic, max_iterations)


def _closure_generic(f: Curve, max_iterations: int) -> Curve:
    if f(0.0) < 0:
        raise ValueError("closure requires f(0) >= 0")
    # force f(0) = 0 (delta_0 term of the closure)
    by = f.by.copy()
    by[0] = 0.0
    current = Curve(f.bx, by, f.sy, f.sl)
    # Closed form: a curve that is exactly 0 on an initial interval [0, T]
    # (T > 0) has closure identically 0 — any t splits into sub-T chunks,
    # each contributing f(chunk) = 0.  Rate-latency curves hit this case;
    # the doubling iteration below would only approach it in the limit.
    if (
        current.sy[0] == 0.0
        and current.sl[0] == 0.0
        and current.is_nondecreasing()
        and len(current.bx) > 1
    ):
        return Curve.zero()
    for _ in range(max_iterations):
        nxt = convolve(current, current).minimum(current)
        if nxt.almost_equal(current, tol=EPS):
            return current
        current = nxt
    raise RuntimeError(
        f"sub-additive closure did not converge in {max_iterations} doublings"
    )
