"""Per-tenant admission: the paper's flow aggregation applied to tenants.

Each tenant declares a leaky bucket ``alpha_i(t) = R_i t + b_i`` —
exactly the paper's per-flow arrival curve — and the router enforces it
with a token bucket per tenant (:class:`repro.serve.admission.
TokenBucket`; the enforcement *is* the curve).  Against the cluster's
aggregate service curve beta, two bounds follow:

* the **aggregate** bound ``delay_bound(sum_i alpha_i, beta)`` — the
  paper's §3 move of summing arrival curves across flows sharing one
  server, which for affine curves collapses to the closed form
  ``T + (sum_i b_i) / R_beta`` (the property the tests pin against the
  single-server admission controller);
* a **live per-tenant** bound from FIFO residual service
  (:func:`repro.nc.multiflow.fifo_residual_delay_bound`): tenant *i*'s
  delay through beta with the *other* tenants ``sum_{j != i} alpha_j``
  as FIFO cross-traffic.  This is the number a 429 response quotes and
  the bound the scale benchmark checks observed p99 against.

Admission is per tenant and rejection-based (never queueing): a
request is rejected 429 when its tenant's own bucket is empty
(``rejected_rate`` — the tenant exceeded its declared ``(R_i, b_i)``),
or when the tenant declared an SLO its live residual bound cannot meet
(``rejected_slo``).  Unknown tenants are rejected outright
(``unknown_tenant``) — capacity is reserved by registration, not
first-come-first-served.

Durable state: given a path, the registry keeps its table in that file,
one NDJSON record per tenant in registration order::

    {"burst": 20.0, "rate": 50.0, "seq": 1, "slo_s": null, "tenant": "acme"}

It loads the file once, and a registration that adds a tenant or changes
an envelope rewrites it through :func:`repro._fsutil.atomic_write_text`
with ``durable=True`` *before* the registry changes in memory, so a
registration that returned (and that the router acknowledged) survives a
process or host crash; one that changes nothing writes nothing.  The
loader reads lines last-wins in file order, so it also reads the op log
older routers appended (whose lines carry an ``op`` key as well); ``seq``
numbers the lines only because those routers sort by it on load.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Callable

from .._fsutil import atomic_write_text
from ..nc.bounds import delay_bound
from ..nc.builders import leaky_bucket
from ..nc.curve import Curve
from ..nc.multiflow import aggregate_arrival, fifo_residual_delay_bound
from ..serve.admission import TokenBucket

__all__ = ["Tenant", "TenantRegistry"]


class Tenant:
    """One tenant's declared envelope and the bucket that enforces it."""

    def __init__(
        self,
        name: str,
        rate: float,
        burst: float,
        *,
        slo_s: "float | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.rate = float(rate)
        self.burst = float(burst)
        self.slo_s = slo_s
        self.bucket = TokenBucket(self.rate, self.burst, clock=clock)

    @property
    def envelope(self) -> "tuple[float, float, float | None]":
        """The declared ``(rate, burst, slo_s)``: what the table keeps."""
        return self.rate, self.burst, self.slo_s

    def reconfigure(self, rate: float, burst: float, *, slo_s: "float | None" = None) -> None:
        """Re-registration updates the envelope in place (credit preserved)."""
        self.rate = float(rate)
        self.burst = float(burst)
        self.slo_s = slo_s
        self.bucket.reconfigure(self.rate, self.burst)

    def arrival_curve(self) -> Curve:
        """``alpha_i(t) = R_i t + b_i`` as an NC curve."""
        return leaky_bucket(self.rate, self.burst)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "rate_rps": self.rate,
            "burst_requests": self.burst,
            "slo_s": self.slo_s,
            "tokens_available": self.bucket.level(),
        }


class TenantRegistry:
    """The router's tenant table plus the aggregate/residual NC math.

    ``path`` makes the table durable (see the module docstring); without
    it the table lives in memory only.  The clock is injectable (shared
    by every tenant bucket) so the property tests can drive token refill
    deterministically.
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self._tenants: dict[str, Tenant] = {}
        self.path = None if path is None else Path(path)
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(
        self, name: str, rate: float, burst: float, *, slo_s: "float | None" = None
    ) -> Tenant:
        """Register (or re-register, updating the envelope in place).

        With a path, the table is on disk before the envelope changes
        here; a registration that changes nothing writes nothing.
        """
        envelope = _envelope(name, rate, burst, slo_s)
        tenant = self._tenants.get(name)
        if tenant is not None and tenant.envelope == envelope:
            return tenant
        if self.path is not None:
            table = {t.name: t.envelope for t in self._tenants.values()}
            table[name] = envelope
            self._write(table)
        return self._put(name, envelope)

    def _put(self, name: str, envelope: "tuple[float, float, float | None]") -> Tenant:
        """Set ``name``'s envelope in memory (bucket credit preserved)."""
        rate, burst, slo_s = envelope
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = Tenant(name, rate, burst, slo_s=slo_s, clock=self._clock)
            self._tenants[name] = tenant
        else:
            tenant.reconfigure(rate, burst, slo_s=slo_s)
        return tenant

    def _write(self, table: "dict[str, tuple[float, float, float | None]]") -> None:
        lines = [
            json.dumps(
                {"seq": seq, "tenant": name, "rate": rate, "burst": burst, "slo_s": slo_s},
                sort_keys=True,
            ) + "\n"
            for seq, (name, (rate, burst, slo_s)) in enumerate(table.items(), start=1)
        ]
        atomic_write_text(self.path, "".join(lines), durable=True)

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                name = record["tenant"]
                envelope = _envelope(name, record["rate"], record["burst"], record["slo_s"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"tenant table {self.path}: line {lineno} is not a tenant "
                    f"record ({type(exc).__name__}: {exc}); the file is written "
                    "atomically, so it was edited or truncated by hand"
                ) from exc
            self._put(name, envelope)

    def get(self, name: str) -> "Tenant | None":
        return self._tenants.get(name)

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def admit(
        self, name: "str | None", *, beta: "Curve | None" = None
    ) -> "tuple[bool, str | None, float]":
        """``(admitted, reject_code, retry_after_s)`` for one request.

        With no tenants registered the cluster is an open door
        (single-server parity: admission only binds once envelopes are
        declared).  Once any tenant is registered, identity is
        mandatory.
        """
        if not self._tenants:
            return True, None, 0.0
        if name is None:
            return False, "tenant_required", 0.0
        tenant = self._tenants.get(name)
        if tenant is None:
            return False, "unknown_tenant", 0.0
        if tenant.slo_s is not None and beta is not None:
            bound = self.tenant_delay_bound(name, beta)
            if bound > tenant.slo_s * (1.0 + 1e-9):
                return False, "rejected_slo", tenant.bucket.time_until()
        if not tenant.bucket.try_acquire():
            return False, "rejected_rate", tenant.bucket.time_until()
        return True, None, 0.0

    # ------------------------------------------------------------------ #
    # NC bounds
    # ------------------------------------------------------------------ #

    def aggregate_curve(self) -> "Curve | None":
        """``sum_i alpha_i`` — None when no tenant is registered."""
        if not self._tenants:
            return None
        return aggregate_arrival(*(t.arrival_curve() for t in self._tenants.values()))

    def aggregate_delay_bound(self, beta: Curve) -> float:
        """``delay_bound(sum_i alpha_i, beta)`` — the paper's §3 aggregate.

        For affine tenants against a rate-latency beta this equals the
        single-server closed form ``T + (sum b_i) / R_beta`` exactly
        (the N=1 equivalence the property tests assert); ``inf`` in the
        unstable regime ``sum R_i > R_beta``.
        """
        alpha = self.aggregate_curve()
        if alpha is None:
            return 0.0
        try:
            return delay_bound(alpha, beta)
        except ValueError:
            return math.inf

    def tenant_delay_bound(self, name: str, beta: Curve) -> float:
        """Tenant ``name``'s live bound under FIFO residual service.

        The other tenants are FIFO cross-traffic; with no cross-traffic
        this degenerates to the plain ``delay_bound(alpha_i, beta)``.
        """
        tenant = self._tenants[name]
        others = [t.arrival_curve() for t in self._tenants.values() if t.name != name]
        try:
            if not others:
                return delay_bound(tenant.arrival_curve(), beta)
            bound, _theta = fifo_residual_delay_bound(
                tenant.arrival_curve(), beta, aggregate_arrival(*others)
            )
            return bound
        except ValueError:
            return math.inf

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def report(self, *, beta: "Curve | None" = None) -> dict[str, Any]:
        """The ``tenants`` op response body (and part of ``/capacity``)."""
        tenants = []
        for tenant in self._tenants.values():
            doc = tenant.to_dict()
            if beta is not None:
                bound = self.tenant_delay_bound(tenant.name, beta)
                doc["delay_bound_s"] = None if math.isinf(bound) else bound
            tenants.append(doc)
        out: dict[str, Any] = {
            "tenants": tenants,
            "aggregate": None,
        }
        if self._tenants:
            agg: dict[str, Any] = {
                "rate_rps": sum(t.rate for t in self._tenants.values()),
                "burst_requests": sum(t.burst for t in self._tenants.values()),
            }
            if beta is not None:
                bound = self.aggregate_delay_bound(beta)
                agg["delay_bound_s"] = None if math.isinf(bound) else bound
                agg["stable"] = not math.isinf(bound)
            out["aggregate"] = agg
        return out


def _envelope(
    name: str, rate: float, burst: float, slo_s: "float | None"
) -> "tuple[float, float, float | None]":
    """A validated ``(rate, burst, slo_s)`` in the types the table keeps."""
    if rate <= 0 or burst <= 0:
        raise ValueError(f"tenant {name!r}: rate and burst must be > 0")
    return float(rate), float(burst), None if slo_s is None else float(slo_s)
