"""One tolerance policy for the whole curve-algebra layer.

Every exact-PWL toolbox needs *some* float tolerance when merging
collinear pieces, deciding monotonicity, or comparing curves — and
before this module the repo had several: ``_EPS``/``_close`` in
:mod:`repro.nc.pieces`, hardcoded ``1e-12`` monotonicity slack in
:mod:`repro.nc.curve`, and assorted ``1e-9`` literals in the closure
and fitting helpers.  Drifting epsilons are how two layers disagree
about whether two curves are "the same".

Policy:

* :data:`EPS` — the canonicalisation tolerance: two values within
  ``EPS`` (combined absolute/relative) are merged when canonicalising
  piece sequences and when testing continuity/concavity.
* :data:`EPS_STRICT` — the monotonicity tolerance: a much tighter bound
  used where accepting noise would change the *class* of a curve
  (wide-sense increasing or not), not merely its representation.
* :func:`close` — tolerant equality under :data:`EPS` (or an explicit
  override), shared by pieces, curve, kernel, and fitting.

``Curve.__eq__`` and ``Curve.__hash__`` intentionally do **not** use a
tolerance: they compare the exact canonical arrays, so curves that
merely look alike stay distinct.
"""

from __future__ import annotations

import math

__all__ = ["EPS", "EPS_STRICT", "close", "rel_scale"]

#: Canonicalisation / comparison tolerance (combined abs/rel bound).
EPS = 1e-9

#: Monotonicity tolerance — tighter, because misclassifying a curve as
#: nondecreasing admits it into operators whose formulas assume it.
EPS_STRICT = 1e-12


def rel_scale(*values: float) -> float:
    """The scale against which a relative tolerance is applied.

    ``max(1, |v|...)`` — the standard mixed absolute/relative form: for
    small operands the bound is absolute, for large ones relative.
    """
    scale = 1.0
    for v in values:
        a = abs(v)
        if a > scale:
            scale = a
    return scale


def close(a: float, b: float, eps: float = EPS) -> bool:
    """Tolerant float equality with a combined absolute/relative bound."""
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= eps * rel_scale(a, b)
