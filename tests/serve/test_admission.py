"""Admission control: token bucket, NC self-model, SLO-derived envelopes."""

import math

import pytest

from repro.nc.bounds import affine_delay_bound
from repro.serve.admission import (
    AdmissionController,
    SelfModel,
    TokenBucket,
    capacity_report,
)


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestTokenBucket:
    def test_burst_then_reject(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.1)  # exactly one token accrues
        assert bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.level() == pytest.approx(2.0)

    def test_time_until(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1.0, clock=clock)
        assert bucket.time_until() == 0.0
        bucket.try_acquire()
        assert bucket.time_until() == pytest.approx(0.25)

    def test_reconfigure_clamps_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=100.0, clock=clock)
        bucket.reconfigure(5.0, 2.0)
        assert bucket.rate == 5.0
        assert bucket.level() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestSelfModel:
    def test_uncalibrated(self):
        model = SelfModel(workers=2)
        assert not model.calibrated
        assert model.service_rate == math.inf
        assert model.delay_bound(TokenBucket(1.0, 1.0, clock=FakeClock())) == math.inf

    def test_running_mean_and_max(self):
        model = SelfModel(workers=1)
        for s in (0.1, 0.2, 0.3):
            model.observe(s)
        assert model.count == 3
        assert model.mean_service_s == pytest.approx(0.2)
        assert model.max_service_s == pytest.approx(0.3)

    def test_service_rate_scales_with_workers(self):
        m1 = SelfModel(workers=1)
        m4 = SelfModel(workers=4)
        for m in (m1, m4):
            m.observe(0.01)
        assert m1.service_rate == pytest.approx(100.0)
        assert m4.service_rate == pytest.approx(400.0)

    def test_delay_bound_matches_affine_closed_form(self):
        model = SelfModel(workers=2, dispatch_latency=0.005)
        model.observe(0.01)  # R_beta = 200/s
        bucket = TokenBucket(rate=100.0, burst=10.0, clock=FakeClock())
        expected = affine_delay_bound(100.0, 10.0, 200.0, 0.005)
        assert model.delay_bound(bucket) == pytest.approx(expected)
        assert model.delay_bound(bucket) == pytest.approx(0.005 + 10.0 / 200.0)

    def test_unstable_bound_is_inf(self):
        model = SelfModel(workers=1)
        model.observe(1.0)  # R_beta = 1/s
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=FakeClock())
        assert model.delay_bound(bucket) == math.inf
        assert model.backlog_bound(bucket) == math.inf


class TestAdmissionController:
    def _calibrated(self, workers=2, service=0.01, dispatch=0.001):
        model = SelfModel(workers=workers, dispatch_latency=dispatch)
        model.observe(service)
        return model

    def test_for_slo_derives_envelope(self):
        model = self._calibrated()  # R_beta = 200/s, T = 1 ms
        ctrl = AdmissionController.for_slo(model, 0.1, clock=FakeClock())
        assert ctrl.bucket.rate == pytest.approx(0.9 * 200.0)
        assert ctrl.bucket.burst == pytest.approx((0.1 - 0.001) * 200.0)

    def test_slo_exactly_at_bound_admits(self):
        # for_slo constructs bound == slo; the boundary case must admit
        model = self._calibrated()
        ctrl = AdmissionController.for_slo(model, 0.1, clock=FakeClock())
        assert ctrl.delay_bound() == pytest.approx(0.1)
        burst = ctrl.bucket.burst
        admitted, code, _ = ctrl.admit()
        assert admitted and code is None
        assert ctrl.bucket.level() == pytest.approx(burst - 1.0)

    def test_rate_rejection_with_retry_hint(self):
        clock = FakeClock()
        model = self._calibrated()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        ctrl = AdmissionController(bucket, model)
        assert ctrl.admit()[0]
        admitted, code, retry = ctrl.admit()
        assert not admitted
        assert code == "rejected_rate"
        assert retry == pytest.approx(0.1)
        assert ctrl.bucket.level() == 0.0  # a rejection takes no token

    def test_pinned_envelope_rejects_on_slo_violation(self):
        # a manually-configured envelope too fat for the SLO: reject, no
        # retightening (the operator pinned it)
        model = self._calibrated()  # bound = T + b/R_beta
        bucket = TokenBucket(rate=10.0, burst=1000.0, clock=FakeClock())
        ctrl = AdmissionController(bucket, model, slo_s=0.1)
        assert ctrl.delay_bound() > 0.1
        admitted, code, _ = ctrl.admit()
        assert not admitted
        assert code == "rejected_slo"
        # pinned: not retightened, and the rejection took no token
        assert (bucket.rate, bucket.burst, bucket.level()) == (10.0, 1000.0, 1000.0)

    def test_auto_envelope_retightens_on_drift(self):
        # served requests slower than calibration -> R_beta drops, the
        # bound crosses the SLO -> the envelope shrinks instead of
        # rejecting forever
        model = self._calibrated(service=0.01)
        ctrl = AdmissionController.for_slo(model, 0.1, clock=FakeClock())
        burst_before = ctrl.bucket.burst
        for _ in range(50):
            model.observe(0.05)  # 5x slower than calibrated
        assert not ctrl.slo_ok()
        admitted, code, _ = ctrl.admit()
        assert admitted and code is None
        # re-solved against the drifted model: R_beta = workers / mean
        r_beta = 2 / ((0.01 + 50 * 0.05) / 51)
        assert ctrl.bucket.rate == pytest.approx(0.9 * r_beta)
        assert ctrl.bucket.burst == pytest.approx((0.1 - 0.001) * r_beta)
        assert ctrl.bucket.burst < burst_before
        assert ctrl.delay_bound() <= 0.1 * (1 + 1e-9)

    def test_for_slo_validation(self):
        with pytest.raises(ValueError, match="uncalibrated"):
            AdmissionController.for_slo(SelfModel(workers=1), 0.1)
        model = self._calibrated(dispatch=0.2)
        with pytest.raises(ValueError, match="not achievable"):
            AdmissionController.for_slo(model, 0.1)
        with pytest.raises(ValueError, match="rate_fraction"):
            AdmissionController.for_slo(self._calibrated(), 0.1, rate_fraction=1.5)

    def test_capacity_report_shape(self):
        model = self._calibrated()
        ctrl = AdmissionController.for_slo(model, 0.1, clock=FakeClock())
        ctrl.admit()
        report = capacity_report(model, ctrl)
        assert report["arrival_curve"]["kind"] == "leaky_bucket"
        assert report["service_curve"]["kind"] == "rate_latency"
        assert report["stable"] is True
        assert report["slo_ok"] is True
        assert report["delay_bound_s"] == pytest.approx(0.1)
        assert report["backlog_bound_requests"] > 0
        # an open door reports the same keys, null where no envelope is
        door = capacity_report(model, None)
        assert set(door) == set(report)
        assert door["service_curve"] == report["service_curve"]
        assert [door[k] for k in ("arrival_curve", "delay_bound_s", "stable",
                                  "backlog_bound_requests", "slo_s")] == [None] * 5

    def test_capacity_report_of_an_uncalibrated_envelope(self):
        # a --rate shard started without calibration answers /capacity
        # before its first request: no bound yet, but a report
        model = SelfModel(workers=1)
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=FakeClock())
        report = capacity_report(model, AdmissionController(bucket, model))
        assert report["arrival_curve"]["rate_rps"] == 1.0
        assert report["delay_bound_s"] is None
        assert report["service_curve"]["service_rate_rps"] is None
