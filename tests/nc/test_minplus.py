"""Closed-form and oracle tests for min-plus convolution/deconvolution."""

import math
import re

import numpy as np
import pytest

from repro.nc import (
    Curve,
    Point,
    Segment,
    UnboundedCurveError,
    constant_rate,
    convolve,
    convolve_many,
    deconvolve,
    envelope,
    leaky_bucket,
    rate_latency,
    self_convolve,
)
from .conftest import (
    assert_matches_exact,
    critical_times,
    diff_kinks,
    exact_convolve,
    exact_deconvolve,
    sum_kinks,
)


class TestConvolutionClosedForms:
    def test_rate_latency_pair(self):
        # (R1,T1) (*) (R2,T2) = (min(R1,R2), T1+T2)
        c = convolve(rate_latency(100.0, 0.5), rate_latency(200.0, 0.25))
        assert c == rate_latency(100.0, 0.75)

    def test_leaky_buckets_give_minimum(self):
        a, b = leaky_bucket(10.0, 5.0), leaky_bucket(20.0, 2.0)
        assert convolve(a, b) == a.minimum(b)

    def test_constant_rates(self):
        assert convolve(constant_rate(3.0), constant_rate(5.0)) == constant_rate(3.0)

    def test_zero_absorbs(self):
        z = Curve.zero()
        assert convolve(z, leaky_bucket(5.0, 2.0)) == z

    def test_commutative_example(self):
        a = leaky_bucket(3.0, 1.0)
        b = rate_latency(2.0, 0.5)
        assert convolve(a, b) == convolve(b, a)

    def test_leaky_bucket_through_rate_latency(self):
        # alpha (*) beta: 0 until T, then min-plus ramp
        a = leaky_bucket(2.0, 4.0)
        b = rate_latency(10.0, 1.0)
        c = convolve(a, b)
        assert c(0.5) == 0.0
        assert c(1.0) == 0.0
        # just after T the service ramp (slope 10) climbs to alpha
        assert c(1.1) == pytest.approx(1.0)
        # once beta catches alpha, alpha dominates: alpha(t-?)...
        assert c.final_slope == 2.0

    def test_convolve_many_and_self(self):
        b = rate_latency(5.0, 0.1)
        assert convolve_many([b, b, b]).almost_equal(rate_latency(5.0, 0.3))
        assert self_convolve(b, 3).almost_equal(rate_latency(5.0, 0.3))
        assert self_convolve(b, 1) == b
        with pytest.raises(ValueError):
            convolve_many([])
        with pytest.raises(ValueError):
            self_convolve(b, 0)

    def test_staircase_smoothing(self):
        # packet stair convolved with a fast rate keeps the stair's average
        from repro.nc import staircase

        st = staircase(1.0, 1.0, n_steps=8)
        r = constant_rate(10.0)
        c = convolve(st, r)
        assert c(0.0) == 0.0
        assert c.final_slope == pytest.approx(1.0)
        assert_matches_exact(c, exact_convolve(st, r), sum_kinks(st, r))


class TestConvolutionOracle:
    @pytest.mark.parametrize(
        "f,g",
        [
            (leaky_bucket(2.0, 3.0), rate_latency(5.0, 1.0)),
            (rate_latency(1.0, 2.0), rate_latency(3.0, 0.5)),
            (leaky_bucket(4.0, 1.0), leaky_bucket(1.0, 4.0)),
            (
                Curve([0.0, 1.0, 2.0], [0.0, 1.0, 5.0], [0.0, 2.0, 5.0], [1.0, 3.0, 0.5]),
                Curve([0.0, 0.5], [0.0, 0.0], [0.0, 1.0], [0.0, 2.0]),
            ),
        ],
    )
    def test_matches_brute_force(self, f, g):
        assert_matches_exact(convolve(f, g), exact_convolve(f, g), sum_kinks(f, g))

    def test_result_nondecreasing(self):
        f = Curve([0.0, 1.0], [0.0, 2.0], [1.0, 2.0], [0.5, 4.0])
        g = leaky_bucket(3.0, 0.5)
        assert convolve(f, g).is_nondecreasing()


class TestDeconvolution:
    def test_output_burst_formula(self):
        # alpha (/) beta for leaky bucket/rate latency: burst b + R_a*T, rate R_a
        a = leaky_bucket(100.0, 8.0)
        b = rate_latency(150.0, 0.01)
        o = deconvolve(a, b)
        assert o.right_limit(0.0) == pytest.approx(9.0)
        assert o.final_slope == pytest.approx(100.0)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedCurveError, match="long-run slope"):
            deconvolve(leaky_bucket(200.0, 1.0), rate_latency(100.0, 0.1))

    def test_equal_rates_allowed(self):
        o = deconvolve(leaky_bucket(100.0, 4.0), rate_latency(100.0, 0.05))
        assert o.final_slope == pytest.approx(100.0)
        assert o.right_limit(0.0) == pytest.approx(4.0 + 100.0 * 0.05)

    def test_value_at_zero_is_vertical_deviation(self):
        from repro.nc import vertical_deviation

        a = leaky_bucket(10.0, 2.0)
        b = rate_latency(30.0, 0.2)
        o = deconvolve(a, b)
        assert o(0.0) == pytest.approx(vertical_deviation(a, b))

    @pytest.mark.parametrize(
        "f,g",
        [
            (leaky_bucket(2.0, 3.0), rate_latency(5.0, 1.0)),
            (leaky_bucket(5.0, 1.0), rate_latency(5.0, 0.75)),
            (
                Curve([0.0, 1.0], [0.0, 1.0], [0.5, 2.0], [0.5, 1.0]),
                Curve([0.0, 2.0], [0.0, 1.0], [0.0, 1.0], [0.5, 3.0]),
            ),
            (rate_latency(2.0, 0.5), rate_latency(2.0, 1.5)),
        ],
    )
    def test_matches_brute_force(self, f, g):
        assert_matches_exact(deconvolve(f, g), exact_deconvolve(f, g), diff_kinks(f, g))

    def test_deconvolve_by_zero_latency_is_shifted(self):
        # f (/) constant_rate(R) with f = leaky bucket of same rate
        a = leaky_bucket(5.0, 2.0)
        o = deconvolve(a, constant_rate(5.0))
        # sup_u [5(t+u)+2 - 5u] = 5t + 2 for any u>0
        assert o.final_slope == pytest.approx(5.0)
        assert o(1.0) == pytest.approx(7.0)


class TestDuality:
    """f (/) g <= h  iff  f <= h (*) g (on sampled grids)."""

    @pytest.mark.parametrize(
        "f,g",
        [
            (leaky_bucket(3.0, 2.0), rate_latency(4.0, 0.5)),
            (leaky_bucket(1.0, 1.0), constant_rate(2.0)),
        ],
    )
    def test_deconv_then_conv_dominates(self, f, g):
        # f <= (f (/) g) (*) g  — fundamental duality inequality
        h = convolve(deconvolve(f, g), g)
        ts = critical_times(f, g)
        assert np.all(h(ts) >= f(ts) - 1e-9)

    def test_conv_then_deconv_is_dominated(self):
        # (f (*) g) (/) g <= f  (duality, Le Boudec & Thiran rule 14)
        f = leaky_bucket(3.0, 2.0)
        g = rate_latency(4.0, 0.5)
        h = deconvolve(convolve(f, g), g)
        ts = critical_times(f, g)
        assert np.all(h(ts) <= f(ts) + 1e-9)


def test_envelope_error_messages():
    with pytest.raises(ValueError, match="empty piece bag"):
        envelope([], [])
    with pytest.raises(ValueError, match="cover out to"):
        envelope([Point(0.0, 0.0)], [Segment(0.0, 1.0, 0.0, 1.0)])
    # a breakpoint no piece defines, and an open interval no segment covers
    holey = (
        [Point(0.0, 0.0)],
        [Segment(0.0, 1.0, 0.0, 1.0), Segment(1.0, math.inf, 2.0, 0.5)],
    )
    with pytest.raises(ValueError, match=re.escape("undefined at x=1.0")):
        envelope(*holey)
    uncovered = (
        [Point(0.0, 0.0), Point(0.5, 1.0)],
        [Segment(1.0, math.inf, 1.0, 1.0)],
    )
    with pytest.raises(ValueError, match=re.escape("leaves (0.0, 0.5) uncovered")):
        envelope(*uncovered)
