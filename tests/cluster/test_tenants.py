"""Tenant registry admission math: aggregation, residuals, exact buckets.

The two properties the ISSUE pins down:

* the router's aggregated ``sum alpha_i`` vs beta delay bound equals
  the single-server admission bound (the affine closed form
  ``T + b / R_beta`` used by ``serve.admission``) whenever the cluster
  degenerates to one server;
* per-tenant rejection kicks in *exactly* when a tenant exceeds its
  declared ``(R_i, b_i)`` — enforced with an injected clock so token
  refill is deterministic.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.tenants import TenantRegistry
from repro.nc import affine_delay_bound, delay_bound, leaky_bucket, rate_latency
from repro.nc.multiflow import aggregate_arrival, fifo_residual_delay_bound
from repro.nc.tolerance import close

_settings = settings(max_examples=60, deadline=None)

rates = st.floats(min_value=0.1, max_value=50.0)
bursts = st.floats(min_value=0.5, max_value=100.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestAggregateEqualsSingleServer:
    @_settings
    @given(
        st.lists(st.tuples(rates, bursts), min_size=1, max_size=5),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_sum_alpha_bound_is_the_affine_closed_form(self, tenants, latency):
        """Curve-algebra aggregate == serve.admission's affine formula.

        The N=1 equivalence: a router in front of one shard must quote
        the same delay bound the shard's own AdmissionController quotes
        for the summed envelope.
        """
        registry = TenantRegistry(clock=FakeClock())
        for i, (rate, burst) in enumerate(tenants):
            registry.register(f"t{i}", rate, burst)
        total_rate = sum(r for r, _ in tenants)
        total_burst = sum(b for _, b in tenants)
        service_rate = 2.0 * total_rate  # strictly stable
        beta = rate_latency(service_rate, latency)
        via_curves = registry.aggregate_delay_bound(beta)
        via_affine = affine_delay_bound(total_rate, total_burst, service_rate, latency)
        assert close(via_curves, via_affine)
        assert close(via_curves, latency + total_burst / service_rate)

    @_settings
    @given(st.lists(st.tuples(rates, bursts), min_size=1, max_size=4))
    def test_unstable_aggregate_is_unbounded(self, tenants):
        registry = TenantRegistry(clock=FakeClock())
        for i, (rate, burst) in enumerate(tenants):
            registry.register(f"t{i}", rate, burst)
        total_rate = sum(r for r, _ in tenants)
        beta = rate_latency(0.5 * total_rate, 0.0)  # sum R_i > R_beta
        assert math.isinf(registry.aggregate_delay_bound(beta))


class TestPerTenantResidualBound:
    def test_single_tenant_degenerates_to_plain_bound(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("only", 10.0, 5.0)
        beta = rate_latency(40.0, 0.01)
        assert close(
            registry.tenant_delay_bound("only", beta),
            delay_bound(leaky_bucket(10.0, 5.0), beta),
        )

    def test_multi_tenant_bound_matches_fifo_residual(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("a", 10.0, 5.0)
        registry.register("b", 8.0, 3.0)
        registry.register("c", 6.0, 2.0)
        beta = rate_latency(60.0, 0.01)
        expected, _theta = fifo_residual_delay_bound(
            leaky_bucket(10.0, 5.0),
            beta,
            aggregate_arrival(leaky_bucket(8.0, 3.0), leaky_bucket(6.0, 2.0)),
        )
        assert close(registry.tenant_delay_bound("a", beta), expected)

    def test_cross_traffic_never_improves_the_bound(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("a", 10.0, 5.0)
        beta = rate_latency(60.0, 0.01)
        alone = registry.tenant_delay_bound("a", beta)
        registry.register("b", 30.0, 20.0)
        crowded = registry.tenant_delay_bound("a", beta)
        assert crowded >= alone


class TestExactBucketRejection:
    @_settings
    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=1, max_value=30),
    )
    def test_burst_admits_exactly_floor_b_requests(self, rate, burst):
        """With the clock frozen, exactly ``floor(b)`` requests pass.

        This is the declared envelope enforced literally: the token
        bucket starts full at ``b`` and refills nothing while the clock
        stands still, so admission flips from yes to no at request
        ``floor(b) + 1`` — never earlier, never later.
        """
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        registry.register("t", rate, float(burst))
        verdicts = [registry.admit("t")[0] for _ in range(burst + 5)]
        assert verdicts == [True] * burst + [False] * 5
        # the admits took the whole bucket, the rejections nothing
        assert registry.get("t").bucket.level() == 0.0

    @_settings
    @given(
        st.floats(min_value=1.0, max_value=20.0),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_refill_readmits_exactly_rate_times_dt(self, rate, burst, k):
        """After draining, advancing the clock by k/R readmits exactly k."""
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        registry.register("t", rate, float(burst))
        for _ in range(burst):
            assert registry.admit("t")[0]
        assert not registry.admit("t")[0]
        k = min(k, burst)  # refill is clamped at the bucket capacity
        clock.advance(k / rate * (1.0 + 1e-9))
        verdicts = [registry.admit("t")[0] for _ in range(k + 3)]
        assert verdicts == [True] * k + [False] * 3

    def test_rejection_reports_retry_after(self):
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        registry.register("t", 2.0, 1.0)
        assert registry.admit("t")[0]
        ok, code, retry_after = registry.admit("t")
        assert not ok and code == "rejected_rate"
        assert retry_after == pytest.approx(0.5)  # 1 token at 2 tokens/s

    def test_slo_rejection_when_residual_bound_misses(self):
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        # bound for the lone tenant is T + b/R_beta = 0.01 + 5/40 = 0.135 s
        registry.register("strict", 10.0, 5.0, slo_s=0.05)
        beta = rate_latency(40.0, 0.01)
        ok, code, _retry = registry.admit("strict", beta=beta)
        assert not ok and code == "rejected_slo"
        assert registry.get("strict").bucket.level() == 5.0  # no token taken


class TestRegistryShape:
    def test_open_door_until_first_registration(self):
        registry = TenantRegistry(clock=FakeClock())
        assert registry.admit(None) == (True, None, 0.0)
        assert registry.admit("anyone") == (True, None, 0.0)

    def test_identity_mandatory_once_tenants_exist(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("t", 1.0, 1.0)
        ok, code, _ = registry.admit(None)
        assert not ok and code == "tenant_required"
        ok, code, _ = registry.admit("stranger")
        assert not ok and code == "unknown_tenant"

    def test_reregistration_updates_in_place(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("t", 1.0, 1.0)
        registry.register("t", 5.0, 10.0, slo_s=1.0)
        assert len(registry) == 1
        tenant = registry.get("t")
        assert tenant.rate == 5.0 and tenant.burst == 10.0 and tenant.slo_s == 1.0

    def test_bad_envelope_rejected(self):
        registry = TenantRegistry(clock=FakeClock())
        with pytest.raises(ValueError, match="rate and burst"):
            registry.register("t", 0.0, 1.0)

    def test_report_carries_bounds(self):
        registry = TenantRegistry(clock=FakeClock())
        registry.register("a", 10.0, 5.0)
        registry.register("b", 5.0, 2.0)
        beta = rate_latency(60.0, 0.01)
        report = registry.report(beta=beta)
        assert {doc["name"] for doc in report["tenants"]} == {"a", "b"}
        assert all(doc["delay_bound_s"] > 0 for doc in report["tenants"])
        agg = report["aggregate"]
        assert agg["rate_rps"] == 15.0 and agg["burst_requests"] == 7.0
        assert agg["stable"] and close(agg["delay_bound_s"], 0.01 + 7.0 / 60.0)
