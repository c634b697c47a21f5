"""Named constructors for the standard network-calculus curve shapes.

These are the curves used in the paper:

* :func:`leaky_bucket` — the affine arrival curve
  ``alpha(t) = R*t + b`` for ``t > 0``, ``alpha(0) = 0``;
* :func:`rate_latency` — the service curve
  ``beta(t) = R * (t - T)`` for ``t > T``, else 0;
* :func:`constant_rate` and :func:`pure_delay` — the two degenerate
  rate-latency corners;
* :func:`token_bucket_stair` / :func:`staircase` — packetised
  (per-``l`` granular) curve variants;
* :func:`burst_delay` — the impulse curve ``delta_T`` (0 until ``T``,
  ``+inf``-like afterwards, here capped by a very large rate is *not*
  used — instead we expose it as a rate-latency helper, see note).
"""

from __future__ import annotations

import math

from .._validation import check_non_negative, check_positive
from .curve import Curve

__all__ = [
    "leaky_bucket",
    "rate_latency",
    "constant_rate",
    "pure_delay",
    "affine",
    "staircase",
    "token_bucket_stair",
    "piecewise_concave",
]


def leaky_bucket(rate: float, burst: float) -> Curve:
    """Leaky-bucket arrival curve ``alpha(t) = rate*t + burst`` for ``t > 0``.

    ``alpha(0) = 0`` by the network-calculus convention, so the curve has
    an upward jump of ``burst`` at the origin.  ``rate`` is the sustained
    arrival rate ``R_alpha``; ``burst`` is the instantaneously-arrivable
    volume ``b``.
    """
    check_non_negative("rate", rate)
    check_non_negative("burst", burst)
    return Curve([0.0], [0.0], [burst], [rate])


def rate_latency(rate: float, latency: float) -> Curve:
    """Rate-latency service curve ``beta(t) = rate * max(0, t - latency)``.

    ``rate`` is the guaranteed service rate ``R_beta``; ``latency`` is the
    worst-case initial delay ``T`` before service begins.
    """
    check_non_negative("rate", rate)
    check_non_negative("latency", latency)
    if latency == 0.0:
        return constant_rate(rate)
    return Curve([0.0, latency], [0.0, 0.0], [0.0, 0.0], [0.0, rate])


def constant_rate(rate: float) -> Curve:
    """Constant-rate service curve ``beta(t) = rate * t`` (zero latency)."""
    check_non_negative("rate", rate)
    return Curve([0.0], [0.0], [0.0], [rate])


def pure_delay(latency: float, rate: float = math.inf) -> Curve:
    """A pure-delay element approximated as a steep rate-latency curve.

    The exact delay element ``delta_T`` jumps to ``+inf`` at ``T``; since
    curves here are finite-valued, callers must supply a large finite
    ``rate`` (default rejects ``inf``) — in pipeline models the natural
    choice is a rate far above every other stage, which leaves all
    derived bounds unchanged.
    """
    check_non_negative("latency", latency)
    if math.isinf(rate):
        raise ValueError(
            "pure_delay needs a finite dominating rate; pick one well above "
            "every other rate in the model"
        )
    return rate_latency(rate, latency)


def affine(rate: float, offset: float) -> Curve:
    """Continuous affine curve ``f(t) = offset + rate*t`` (no jump at 0)."""
    check_non_negative("rate", rate)
    return Curve.affine(rate, offset)


def staircase(step: float, interval: float, *, offset: float = 0.0, n_steps: int = 64) -> Curve:
    """Staircase arrival curve: ``f(0) = 0`` and
    ``f(t) = offset + step * (floor(t/interval) + 1)`` for ``t > 0``,
    truncated after ``n_steps`` steps into the affine asymptote
    ``offset + step*(t/interval + 1)``.

    Models per-packet (granularity-``step``) cumulative flows: at time 0
    one packet is available, another every ``interval`` seconds.  The
    truncation keeps the representation finite; bounds computed against
    typical service curves are unaffected once the deviation extrema
    occur before the truncation point, which holds whenever
    ``n_steps * interval`` exceeds the system's latency horizon.
    """
    check_positive("step", step)
    check_positive("interval", interval)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    bx = [0.0]
    by = [0.0]  # NC convention: no data has arrived at t = 0 exactly
    sy = [offset + step]
    sl = [0.0]
    for k in range(1, n_steps):
        bx.append(k * interval)
        by.append(offset + step * (k + 1))
        sy.append(offset + step * (k + 1))
        sl.append(0.0)
    # affine continuation with the staircase's average slope
    t_cut = n_steps * interval
    bx.append(t_cut)
    v = offset + step * (n_steps + 1)
    by.append(v)
    sy.append(v)
    sl.append(step / interval)
    return Curve(bx, by, sy, sl)


def token_bucket_stair(rate: float, burst: float, packet: float, *, n_steps: int = 64) -> Curve:
    """Packetised leaky bucket: min(leaky bucket, packet staircase).

    The continuous leaky bucket ``rate*t + burst`` admits fractional
    packets; intersecting with a staircase of ``packet``-sized steps
    yields the tighter arrival curve for an ``l_max``-packetised flow.
    """
    lb = leaky_bucket(rate, burst + packet)
    st = staircase(packet, packet / rate if rate > 0 else 1.0, offset=burst, n_steps=n_steps)
    return lb.minimum(st)


def piecewise_concave(rates_bursts: list[tuple[float, float]]) -> Curve:
    """Minimum of several leaky buckets — the general concave arrival curve.

    ``rates_bursts`` is a list of ``(rate, burst)`` pairs; the result is
    ``min_i (R_i t + b_i)`` with the NC jump convention at 0.
    """
    if not rates_bursts:
        raise ValueError("need at least one (rate, burst) pair")
    out = leaky_bucket(*rates_bursts[0])
    for rb in rates_bursts[1:]:
        out = out.minimum(leaky_bucket(*rb))
    return out
