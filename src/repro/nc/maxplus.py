"""Max-plus counterparts of the min-plus operators.

Network calculus has a dual formulation in the max-plus algebra
(addition replaced by supremum): the paper's §2 introduces both.  The
max-plus operators are obtained from the min-plus ones by the standard
reflection duality ``sup f = -inf(-f)``:

* max-plus convolution
  ``(f (*bar) g)(t) = sup_{0<=s<=t} f(s) + g(t-s) = -((-f) (*) (-g))(t)``
* max-plus deconvolution
  ``(f (/bar) g)(t) = inf_{u>=0} f(t+u) - g(u) = -((-f) (/) (-g))(t)``

Maximum service curves ``gamma`` interact with flows through these
duals; in this library the only consumer is the refined output bound
(which uses min-plus forms directly), so this module primarily serves
API completeness and the property-based algebra tests.
"""

from __future__ import annotations

from .curve import Curve, UnboundedCurveError
from .kernel import binary_op
from .minplus import convolve, deconvolve

__all__ = ["max_convolve", "max_deconvolve"]


def max_convolve(f: Curve, g: Curve) -> Curve:
    """Max-plus convolution ``sup_{0<=s<=t} f(s) + g(t-s)``.

    Kernel-dispatched; the reflected min-plus convolution underneath
    goes through the kernel again.
    """
    return binary_op("max_convolve", f, g, _max_convolve_generic)


def _max_convolve_generic(f: Curve, g: Curve) -> Curve:
    return -(convolve(-f, -g))


def max_deconvolve(f: Curve, g: Curve) -> Curve:
    """Max-plus deconvolution ``inf_{u>=0} f(t+u) - g(u)``.

    Raises :class:`UnboundedCurveError` (as ``-inf`` is unrepresentable)
    when ``g`` grows asymptotically faster than ``f``.
    """
    return binary_op("max_deconvolve", f, g, _max_deconvolve_generic)


def _max_deconvolve_generic(f: Curve, g: Curve) -> Curve:
    try:
        return -(deconvolve(-f, -g))
    except UnboundedCurveError as exc:
        raise UnboundedCurveError(
            "max-plus deconvolution is -inf: subtrahend grows faster"
        ) from exc
