"""Packetization corrections (paper §3, after Van Bemten & Kellerer).

Classical network calculus reasons about fluid, bit-by-bit flows; real
streaming systems move *jobs/packets* of up to ``l_max`` bytes.  Placing
a packetizer ``P^L`` after a node changes the curves as follows:

* the departing flow's arrival curve degrades by one maximum packet:
  ``alpha_P(t) = alpha(t) + l_max * 1_{t>0}``;
* the (minimum) service curve seen through the packetizer loses up to a
  packet of credit: ``beta'(t) = [beta(t) - l_max]^+``;
* the maximum service curve is unchanged: ``gamma'(t) = gamma(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import check_non_negative
from .curve import Curve
from .kernel import unary_op

__all__ = ["packetize_arrival", "packetize_service", "packetize_max_service", "Packetizer"]


def packetize_arrival(alpha: Curve, l_max: float) -> Curve:
    """``alpha(t) + l_max`` for ``t > 0``, unchanged at ``t = 0``.

    The indicator ``1_{t>0}`` keeps the NC convention ``alpha(0) = 0``
    while adding a whole maximum-size packet to the admissible burst.
    """
    check_non_negative("l_max", l_max)
    if l_max == 0:
        return alpha
    return unary_op("packetize_arrival", alpha, _packetize_arrival_generic, l_max)


def _packetize_arrival_generic(alpha: Curve, l_max: float) -> Curve:
    shifted = alpha.vshift(l_max)
    # restore the exact value at t = 0 (the vertical shift must not move it)
    return Curve._trusted(shifted.bx, (alpha.by[0], *shifted.by[1:]), shifted.sy, shifted.sl)


def packetize_service(beta: Curve, l_max: float) -> Curve:
    """``beta'(t) = [beta(t) - l_max]^+`` — the packetised service curve."""
    check_non_negative("l_max", l_max)
    if l_max == 0:
        return beta
    return unary_op("packetize_service", beta, _packetize_service_generic, l_max)


def _packetize_service_generic(beta: Curve, l_max: float) -> Curve:
    return beta.vshift(-l_max).max0()


def packetize_max_service(gamma: Curve, l_max: float) -> Curve:
    """``gamma'(t) = gamma(t)`` — packetizers do not improve best-case service.

    Provided (as the identity) so call-sites can treat the three curve
    corrections uniformly; ``l_max`` is validated for interface parity.
    """
    check_non_negative("l_max", l_max)
    return gamma


@dataclass(frozen=True)
class Packetizer:
    """An ``l_max``-packetizer applied to a node's three curves at once."""

    l_max: float

    def __post_init__(self) -> None:
        check_non_negative("l_max", self.l_max)

    def arrival(self, alpha: Curve) -> Curve:
        """Packetised arrival curve of the flow leaving this packetizer."""
        return packetize_arrival(alpha, self.l_max)

    def service(self, beta: Curve) -> Curve:
        """Packetised minimum service curve."""
        return packetize_service(beta, self.l_max)

    def max_service(self, gamma: Curve) -> Curve:
        """Packetised maximum service curve (identity)."""
        return packetize_max_service(gamma, self.l_max)
