"""Admission control as network calculus, applied to the server itself.

The reproduction's whole point is that NC bounds *real* systems — so
the serving layer eats its own cooking.  Two curves govern admission:

* the **arrival envelope** ``alpha(t) = R*t + b`` — a leaky bucket over
  *requests* (not bytes), enforced by :class:`TokenBucket`.  Requests
  beyond the envelope are rejected (429-style), never queued, so the
  offered load that reaches the workers is ``alpha``-constrained by
  construction;
* the **service curve** ``beta(t) = R_beta * (t - T)`` — a rate-latency
  model of the worker pool, with ``R_beta = workers / E[service time]``
  from calibrated (and continuously re-observed) per-request service
  times and ``T`` the dispatch latency.

With both curves affine, the classic closed forms apply exactly
(:func:`repro.nc.bounds.affine_delay_bound`): every *admitted* request
is bounded by ``d <= T + b / R_beta`` whenever ``R <= R_beta``.  The
controller therefore has a complete self-model: given a delay SLO it
can derive the largest admissible envelope
(:meth:`AdmissionController.for_slo`), and it rejects load whenever the
currently-configured envelope would violate the SLO under the
currently-calibrated service curve — the ``/capacity`` response exposes
the whole computation.

This module is also the one place an admission outcome is counted and
reported.  A verdict carries no side count: the host that answers a 429
counts it in its metrics registry with :func:`count_rejection`, and
:func:`capacity_report` builds the ``/capacity`` body for a shard with
or without an envelope.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Callable

from .._validation import check_non_negative, check_positive
from ..nc.bounds import affine_backlog_bound, affine_delay_bound

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "TokenBucket",
    "SelfModel",
    "AdmissionController",
    "capacity_report",
    "count_rejection",
]


class TokenBucket:
    """Leaky-bucket admission: a request consumes a token or is rejected.

    A bucket with sustained ``rate`` tokens/s and capacity ``burst``
    admits exactly the traffic bounded by the arrival curve
    ``alpha(t) = rate * t + burst`` — the NC leaky bucket — because the
    cumulative admits over any window of width ``t`` cannot exceed the
    refill plus the capacity.  The clock is injectable so tests are
    deterministic.
    """

    def __init__(
        self, rate: float, burst: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.rate = check_positive("rate", rate)
        self.burst = check_positive("burst", burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    def level(self) -> float:
        """Tokens currently available (after refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        """Consume ``n`` tokens if available; never blocks."""
        check_positive("n", n)
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def time_until(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (0 if now)."""
        check_positive("n", n)
        self._refill()
        deficit = n - self._tokens
        return max(0.0, deficit / self.rate)

    def reconfigure(self, rate: float, burst: float) -> None:
        """Change the envelope in place (tokens are clamped to the new burst).

        Refills at the *old* rate first so no accrued credit is lost or
        forged across the switch.
        """
        self._refill()
        self.rate = check_positive("rate", rate)
        self.burst = check_positive("burst", burst)
        self._tokens = min(self._tokens, self.burst)


class SelfModel:
    """The server's rate-latency service curve, from observed service times.

    ``workers`` parallel executors each finishing a request in mean
    time ``E[s]`` sustain ``R_beta = workers / E[s]`` requests/s; the
    dispatch latency ``T`` (queue hand-off + IPC) is the rate-latency
    offset.  Observations accumulate as running statistics, so the
    model tracks the *actual* served mix, not just the calibration
    workload.
    """

    def __init__(self, workers: int, *, dispatch_latency: float = 0.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.dispatch_latency = check_non_negative("dispatch_latency", dispatch_latency)
        self.count = 0
        self.mean_service_s = math.nan
        self.max_service_s = 0.0

    def observe(self, service_s: float) -> None:
        """Fold one per-request service time into the running model."""
        service_s = check_non_negative("service_s", service_s)
        self.count += 1
        if self.count == 1:
            self.mean_service_s = service_s
        else:
            self.mean_service_s += (service_s - self.mean_service_s) / self.count
        if service_s > self.max_service_s:
            self.max_service_s = service_s

    @property
    def calibrated(self) -> bool:
        """True once at least one service time has been observed."""
        return self.count > 0 and self.mean_service_s > 0.0

    @property
    def service_rate(self) -> float:
        """``R_beta`` in requests/s (``inf`` until calibrated-nonzero)."""
        if not self.calibrated:
            return math.inf
        return self.workers / self.mean_service_s

    def delay_bound(self, bucket: TokenBucket) -> float:
        """NC delay bound for ``bucket``-admitted traffic through this server.

        The affine closed form ``T + b / R_beta`` (``inf`` when the
        admitted rate exceeds the service rate — the unstable regime).
        """
        if not self.calibrated:
            return math.inf
        return affine_delay_bound(
            bucket.rate, bucket.burst, self.service_rate, self.dispatch_latency
        )

    def backlog_bound(self, bucket: TokenBucket) -> float:
        """NC backlog bound ``b + R * T`` in requests (``inf`` if unstable)."""
        if not self.calibrated:
            return math.inf
        return affine_backlog_bound(
            bucket.rate, bucket.burst, self.service_rate, self.dispatch_latency
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering for the ``/capacity`` response."""
        return {
            "workers": self.workers,
            "dispatch_latency_s": self.dispatch_latency,
            "observations": self.count,
            "mean_service_s": None if not self.count else self.mean_service_s,
            "max_service_s": None if not self.count else self.max_service_s,
            "service_rate_rps": None if not self.calibrated else self.service_rate,
        }


class AdmissionController:
    """Token-bucket admission gated by the server's own NC delay bound.

    A request is admitted iff

    1. the self-model's delay bound for the configured envelope does
       not exceed the SLO (when an SLO is configured).  An envelope
       derived by :meth:`for_slo` is *self-retightening*: when served
       requests turn out slower than the calibration mix (``R_beta``
       drops and the bound crosses the SLO), the controller re-solves
       ``b = (slo - T) * R_beta`` against the updated model and shrinks
       the bucket in place rather than rejecting forever.  Only a
       manually-pinned envelope (or an SLO no envelope can meet, e.g.
       ``slo <= T``) rejects with ``rejected_slo``.  A bound exactly
       *at* the SLO is admissible (the bound is a worst case,
       ``d <= slo`` is the contract); and
    2. a token is available — otherwise the instantaneous offered load
       exceeds ``alpha`` and the request is rejected with
       ``rejected_rate`` plus a ``retry_after_s`` hint.

    Rejection, not queueing: NC bounds hold for the admitted flow
    precisely because the excess never enters the system.
    """

    def __init__(
        self,
        bucket: TokenBucket,
        model: SelfModel,
        *,
        slo_s: "float | None" = None,
        auto_rate_fraction: "float | None" = None,
    ) -> None:
        self.bucket = bucket
        self.model = model
        self.slo_s = None if slo_s is None else check_positive("slo_s", slo_s)
        #: when set (by :meth:`for_slo`), the envelope tracks the model:
        #: a drifting service rate retightens the bucket instead of
        #: tripping ``rejected_slo``.
        self.auto_rate_fraction = auto_rate_fraction

    @classmethod
    def for_slo(
        cls,
        model: SelfModel,
        slo_s: float,
        *,
        rate_fraction: float = 0.9,
        clock: Callable[[], float] = time.monotonic,
    ) -> "AdmissionController":
        """Derive the largest SLO-safe envelope from the self-model.

        Inverting ``d <= T + b / R_beta <= slo`` gives the burst budget
        ``b = (slo - T) * R_beta``; the sustained rate is set to
        ``rate_fraction * R_beta`` (strictly below ``R_beta`` keeps the
        system stable with margin).  This is the \"self-applied\" NC
        design loop: measure beta, solve for alpha.
        """
        check_positive("slo_s", slo_s)
        if not 0.0 < rate_fraction <= 1.0:
            raise ValueError(f"rate_fraction must be in (0, 1], got {rate_fraction}")
        if not model.calibrated:
            raise ValueError("cannot derive an envelope from an uncalibrated model")
        if slo_s <= model.dispatch_latency:
            raise ValueError(
                f"slo {slo_s} s is not achievable: dispatch latency alone is "
                f"{model.dispatch_latency} s"
            )
        rate, burst = _solve_envelope(model, slo_s, rate_fraction)
        return cls(
            TokenBucket(rate, burst, clock=clock),
            model,
            slo_s=slo_s,
            auto_rate_fraction=rate_fraction,
        )

    def retighten(self) -> bool:
        """Re-solve the envelope against the current self-model (auto mode).

        Returns True if the bucket was reconfigured.  No-op for pinned
        envelopes, uncalibrated models, or an SLO below the dispatch
        latency (no envelope can meet it).
        """
        if self.auto_rate_fraction is None or self.slo_s is None:
            return False
        if not self.model.calibrated or self.slo_s <= self.model.dispatch_latency:
            return False
        self.bucket.reconfigure(
            *_solve_envelope(self.model, self.slo_s, self.auto_rate_fraction)
        )
        return True

    def delay_bound(self) -> float:
        """Current self-computed delay bound for admitted traffic."""
        return self.model.delay_bound(self.bucket)

    def slo_ok(self) -> bool:
        """Whether the configured envelope currently meets the SLO.

        A bound exactly at the SLO passes; the comparison allows one
        part in 10^9 of slack because :meth:`for_slo` *constructs* that
        boundary case (``b = (slo - T) * R_beta`` makes the bound equal
        the SLO up to floating-point rounding, which must not flip the
        verdict).
        """
        if self.slo_s is None:
            return True
        return self.delay_bound() <= self.slo_s * (1.0 + 1e-9)

    def admit(self) -> "tuple[bool, str | None, float]":
        """``(admitted, reject_code, retry_after_s)`` for one request."""
        if not self.slo_ok() and not (self.retighten() and self.slo_ok()):
            return False, "rejected_slo", self.bucket.time_until()
        if not self.bucket.try_acquire():
            return False, "rejected_rate", self.bucket.time_until()
        return True, None, 0.0


def _solve_envelope(
    model: SelfModel, slo_s: float, rate_fraction: float
) -> "tuple[float, float]":
    """``(rate, burst)`` of the largest envelope whose bound meets ``slo_s``
    (at least one request of burst; needs a calibrated model, ``slo_s > T``)."""
    burst = max(1.0, (slo_s - model.dispatch_latency) * model.service_rate)
    return rate_fraction * model.service_rate, burst


def capacity_report(
    model: SelfModel, admission: "AdmissionController | None"
) -> dict[str, Any]:
    """The ``/capacity`` body: the shard's NC self-model.

    One key set whether an envelope is configured or not; an open-door
    shard (``admission`` None) reports null for the envelope and for
    every bound it implies.  An auto envelope is synced to the current
    model first, so the report describes what the *next* request will
    experience — not an envelope the model has since drifted away from.
    """
    report: dict[str, Any] = {
        "arrival_curve": None,
        "service_curve": {"kind": "rate_latency", **model.to_dict()},
        "delay_bound_s": None,
        "stable": None,
        "backlog_bound_requests": None,
        "slo_s": None,
        "slo_ok": True,
    }
    if admission is None:
        return report
    if not admission.slo_ok():
        admission.retighten()
    bucket = admission.bucket
    bound, backlog = model.delay_bound(bucket), model.backlog_bound(bucket)
    report.update(
        arrival_curve={
            "kind": "leaky_bucket",
            "rate_rps": bucket.rate,
            "burst_requests": bucket.burst,
            "tokens_available": bucket.level(),
        },
        delay_bound_s=None if math.isinf(bound) else bound,
        stable=bucket.rate <= model.service_rate,
        backlog_bound_requests=None if math.isinf(backlog) else backlog,
        slo_s=admission.slo_s,
        slo_ok=admission.slo_ok(),
    )
    return report


def count_rejection(
    metrics: "MetricsRegistry", prefix: str, code: str, tenant: "str | None" = None
) -> None:
    """Count one 429 in the answering host's registry, its only count.

    ``<prefix>.rejected`` totals every rejection (the drain line reads
    it), ``<prefix>.<code>`` counts it by reason, and a registered
    tenant's request also counts under ``<prefix>.tenant.<tenant>.rejected``.
    Only the router knows which tenants are registered, so only it
    passes ``tenant``.
    """
    metrics.counter(f"{prefix}.rejected").inc()
    metrics.counter(f"{prefix}.{code}").inc()
    if tenant is not None:
        metrics.counter(f"{prefix}.tenant.{tenant}.rejected").inc()
