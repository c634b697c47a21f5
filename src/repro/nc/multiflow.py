"""Multi-flow analysis: residual service under multiplexing.

The paper analyses a single flow per pipeline, but its platforms share
elements — several kernels over one PCIe link, several streams through
one NIC.  Network calculus handles sharing through *residual service
curves*: what is left of a server's guarantee for one flow after the
competing (cross) traffic is accounted for.

Implemented results (Le Boudec & Thiran ch. 6; Bouillard et al.):

* **Blind (arbitrary) multiplexing**:
  ``beta_1 = [beta - alpha_2]^+`` is a service curve for flow 1 when
  nothing is known about the scheduler (the safe default);
* **FIFO multiplexing** (family over the parameter ``theta``):
  ``beta_1^theta(t) = [beta(t) - alpha_2(t - theta)]^+ * 1_{t > theta}``
  — every ``theta >= 0`` gives a valid curve; :func:`fifo_residual`
  picks a good one and :func:`fifo_residual_delay_bound` optimises the
  resulting delay bound over a ``theta`` grid;
* **Static priority**: the high-priority flow sees
  ``[beta - alpha_low]^+`` only if the low flow can preempt… for
  non-preemptive priority the high flow loses at most one low-priority
  packet: ``[beta - l_max_low]^+`` (:func:`priority_residual`);
* **Aggregate view**: the union of flows is
  ``alpha_1 + alpha_2``-constrained (:func:`aggregate_arrival`).
"""

from __future__ import annotations

import math

from .._validation import check_non_negative
from .bounds import delay_bound
from .curve import Curve
from .packetizer import packetize_service

__all__ = [
    "aggregate_arrival",
    "blind_residual",
    "fifo_residual",
    "fifo_residual_delay_bound",
    "priority_residual",
]


def aggregate_arrival(*alphas: Curve) -> Curve:
    """Arrival curve of the aggregate of independent flows (their sum)."""
    if not alphas:
        raise ValueError("need at least one flow")
    out = alphas[0]
    for a in alphas[1:]:
        out = out + a
    return out


def blind_residual(beta: Curve, alpha_cross: Curve) -> Curve:
    """Residual service under arbitrary multiplexing: ``[beta - alpha_2]^+``.

    Valid for any work-conserving scheduler; the safe (most
    conservative) choice when the arbitration policy is unknown — e.g.
    a PCIe arbiter between two DMA engines.
    """
    return (beta - alpha_cross).max0()


def fifo_residual(beta: Curve, alpha_cross: Curve, theta: float) -> Curve:
    """One member of the FIFO residual-service family.

    ``beta_theta(t) = [beta(t) - alpha_cross(t - theta)]^+`` for
    ``t > theta`` (zero before) — valid for every ``theta >= 0`` when
    the server is FIFO across both flows.
    """
    check_non_negative("theta", theta)
    shifted_cross = alpha_cross.hshift(theta) if theta > 0 else alpha_cross
    residual = (beta - shifted_cross).max0()
    if theta == 0:
        return residual
    # apply the indicator 1_{t > theta}: zero until theta, unconstrained
    # after (a steep finite ramp stands in for +inf; it only needs to
    # dominate the residual, whose rate it exceeds by many orders)
    gate_rate = 1e6 * max(1.0, residual.final_slope, float(residual.sup(theta * 2 + 1.0)))
    gate = Curve([0.0, theta], [0.0, 0.0], [0.0, 0.0], [0.0, gate_rate])
    return residual.minimum(gate)


def fifo_residual_delay_bound(
    alpha: Curve,
    beta: Curve,
    alpha_cross: Curve,
    *,
    theta_grid: int = 33,
    theta_max: float | None = None,
) -> tuple[float, float]:
    """Best FIFO delay bound over a ``theta`` grid.

    Returns ``(delay_bound, best_theta)``; the bound is the minimum over
    the sampled family members (every member is valid, so the min is
    too).  ``theta_max`` defaults to twice the blind-multiplexing delay
    bound, which always contains the optimum for rate-latency/leaky-
    bucket shapes.
    """
    if theta_grid < 2:
        raise ValueError("theta_grid must be >= 2")
    d_blind = delay_bound(alpha, blind_residual(beta, alpha_cross))
    if math.isinf(d_blind):
        if theta_max is None:
            return math.inf, 0.0
    if theta_max is None:
        theta_max = 2.0 * d_blind
    # numpy.linspace(0.0, theta_max, theta_grid) bit for bit: NumPy takes
    # i*step + 0.0 ((i/div)*delta + 0.0 when step underflows to 0), then
    # sets the last point to theta_max
    div, delta = theta_grid - 1, float(theta_max) - 0.0
    step = delta / div
    thetas = [(i * step if step else (i / div) * delta) + 0.0 for i in range(div)]
    best_d, best_theta = math.inf, 0.0
    for theta in (*thetas, float(theta_max)):
        d = delay_bound(alpha, fifo_residual(beta, alpha_cross, theta))
        if d < best_d:
            best_d, best_theta = d, theta
    return best_d, best_theta


def priority_residual(beta: Curve, l_max_low: float) -> Curve:
    """High-priority residual under non-preemptive static priority.

    The high-priority flow waits at most one in-flight low-priority
    packet of ``l_max_low`` bytes: ``[beta - l_max_low]^+``.
    """
    check_non_negative("l_max_low", l_max_low)
    return packetize_service(beta, l_max_low)
