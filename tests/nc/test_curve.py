"""Unit tests for the PWL curve representation."""

import math

import numpy as np
import pytest

from repro.nc import Curve
from repro.nc.builders import constant_rate, leaky_bucket, rate_latency


class TestConstruction:
    def test_zero(self):
        z = Curve.zero()
        assert z(0.0) == 0.0
        assert z(123.0) == 0.0

    def test_constant(self):
        c = Curve.constant(5.0)
        assert c(0.0) == 5.0
        assert c(9.0) == 5.0

    def test_affine(self):
        f = Curve.affine(2.0, 1.0)
        assert f(0.0) == 1.0
        assert f(3.0) == 7.0

    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ValueError, match="t=0"):
            Curve([1.0], [0.0], [0.0], [1.0])

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Curve([0.0, 1.0, 1.0], [0, 0, 0], [0, 0, 0], [0, 0, 0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Curve([0.0], [math.nan], [0.0], [1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Curve([0.0, 1.0], [0.0], [0.0], [1.0])

    def test_immutable(self):
        f = Curve.zero()
        with pytest.raises(AttributeError):
            f.bx = np.array([0.0])
        with pytest.raises(ValueError):
            f.by[0] = 3.0  # read-only array

    def test_from_breakpoints(self):
        f = Curve.from_breakpoints([0.0, 1.0, 3.0], [0.0, 2.0, 2.0], 1.0)
        assert f(0.5) == 1.0
        assert f(1.0) == 2.0
        assert f(2.0) == 2.0
        assert f(4.0) == 3.0

    def test_from_breakpoints_validates(self):
        with pytest.raises(ValueError):
            Curve.from_breakpoints([0.0, 1.0, 0.5], [0, 1, 2], 0.0)
        with pytest.raises(ValueError):
            Curve.from_breakpoints([1.0], [0.0], 0.0)


class TestEvaluation:
    def test_jump_at_origin(self):
        lb = leaky_bucket(10.0, 4.0)
        assert lb(0.0) == 0.0
        assert lb(1e-12) == pytest.approx(4.0)
        assert lb.right_limit(0.0) == 4.0
        assert lb(2.0) == 24.0

    def test_vectorized_eval_matches_scalar(self):
        f = rate_latency(7.0, 0.5)
        ts = np.array([0.0, 0.25, 0.5, 0.75, 2.0])
        vals = f(ts)
        assert vals.shape == ts.shape
        for t, v in zip(ts, vals):
            assert f(float(t)) == v

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t >= 0"):
            Curve.zero()(-1.0)

    def test_left_limit_at_jump(self):
        # jump of 2 at t=1
        f = Curve([0.0, 1.0], [0.0, 3.0], [0.0, 3.0], [1.0, 1.0])
        assert f.left_limit(1.0) == 1.0
        assert f(1.0) == 3.0
        assert f.right_limit(1.0) == 3.0

    def test_left_limit_requires_positive_t(self):
        with pytest.raises(ValueError):
            Curve.zero().left_limit(0.0)


class TestAlgebra:
    def test_add_curves(self):
        f = leaky_bucket(10.0, 1.0) + rate_latency(5.0, 0.5)
        assert f(0.0) == 0.0
        assert f(1.0) == pytest.approx(11.0 + 2.5)

    def test_add_scalar(self):
        f = constant_rate(3.0) + 2.0
        assert f(1.0) == 5.0

    def test_sub(self):
        d = leaky_bucket(10.0, 1.0) - constant_rate(10.0)
        assert d(5.0) == pytest.approx(1.0)

    def test_neg_and_scale(self):
        f = constant_rate(4.0)
        assert (-f)(2.0) == -8.0
        assert (2.5 * f)(2.0) == 20.0
        assert (f * -1.0)(2.0) == -8.0

    def test_vshift_hshift(self):
        f = constant_rate(2.0).vshift(1.0)
        assert f(0.0) == 1.0
        g = constant_rate(2.0).hshift(1.0)
        assert g(0.5) == 0.0
        assert g(1.0) == 0.0
        assert g(2.0) == 2.0

    def test_hshift_rejects_negative(self):
        with pytest.raises(ValueError):
            constant_rate(1.0).hshift(-0.1)

    def test_xscale(self):
        f = constant_rate(6.0).xscale(2.0)
        assert f(2.0) == 6.0  # f(t/2)*... g(t) = 6*(t/2)
        with pytest.raises(ValueError):
            constant_rate(1.0).xscale(0.0)

    def test_max0(self):
        f = (constant_rate(2.0) - 3.0).max0()
        assert f(0.0) == 0.0
        assert f(1.0) == 0.0
        assert f(2.0) == 1.0
        assert f(3.0) == 3.0


class TestMinMax:
    def test_minimum_of_leaky_buckets_crosses(self):
        a = leaky_bucket(1.0, 4.0)
        b = leaky_bucket(3.0, 1.0)
        m = a.minimum(b)
        # cross at t=1.5
        assert m(1.0) == 4.0  # b lower: 3*1+1=4 == a: 5 -> b
        assert m(1.5) == pytest.approx(5.5)
        assert m(3.0) == 7.0  # a lower: 7 vs 10
        assert m(0.0) == 0.0

    def test_maximum(self):
        a = constant_rate(1.0)
        b = rate_latency(3.0, 1.0)
        m = a.maximum(b)
        assert m(0.5) == 0.5
        assert m(1.5) == pytest.approx(1.5)  # 3*(0.5)=1.5 == t
        assert m(3.0) == 6.0

    def test_min_with_jumps(self):
        a = leaky_bucket(0.0, 5.0)  # 0 at 0, then 5
        b = constant_rate(2.0)
        m = a.minimum(b)
        assert m(0.0) == 0.0
        assert m(1.0) == 2.0
        assert m(4.0) == 5.0


class TestExtrema:
    def test_sup_with_final_positive_slope(self):
        assert constant_rate(1.0).sup() == math.inf
        assert constant_rate(1.0).sup(t_max=4.0) == 4.0

    def test_sup_bounded(self):
        f = leaky_bucket(0.0, 3.0)
        assert f.sup() == 3.0
        assert f.inf() == 0.0

    def test_sup_negative_slope(self):
        f = Curve([0.0], [5.0], [5.0], [-1.0])
        assert f.sup() == 5.0
        assert f.inf() == -math.inf
        assert f.inf(t_max=2.0) == 3.0

    def test_sup_horizon_on_breakpoint(self):
        f = Curve([0.0, 1.0], [0.0, 10.0], [0.0, 10.0], [1.0, 0.0])
        assert f.sup(t_max=1.0) == 10.0
        assert f.sup(t_max=0.5) == pytest.approx(0.5)


class TestPredicates:
    def test_is_nondecreasing(self):
        assert leaky_bucket(2.0, 3.0).is_nondecreasing()
        assert not Curve([0.0], [0.0], [0.0], [-1.0]).is_nondecreasing()
        # downward jump
        f = Curve([0.0, 1.0], [0.0, 0.5], [0.0, 0.5], [1.0, 1.0])
        assert not f.is_nondecreasing()

    def test_is_continuous(self):
        assert rate_latency(1.0, 1.0).is_continuous()
        assert not leaky_bucket(1.0, 1.0).is_continuous()

    def test_concave_convex(self):
        assert rate_latency(2.0, 1.0).is_convex()
        assert not rate_latency(2.0, 1.0).is_concave()
        f = Curve.from_breakpoints([0.0, 1.0], [0.0, 3.0], 1.0)
        assert f.is_concave()
        assert constant_rate(1.0).is_concave() and constant_rate(1.0).is_convex()


class TestCanonicalEquality:
    def test_redundant_breakpoint_merged(self):
        f = Curve([0.0, 1.0], [0.0, 2.0], [0.0, 2.0], [2.0, 2.0]).canonical()
        assert f.n_breakpoints == 1
        assert f == constant_rate(2.0)

    def test_eq_and_hash(self):
        a = leaky_bucket(1.0, 2.0)
        b = leaky_bucket(1.0, 2.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != leaky_bucket(1.0, 2.5)
        assert a.__eq__(42) is NotImplemented

    def test_signed_zeros_hash_alike(self):
        # == compares values, so -0.0 and 0.0 arrays must hash alike
        z, nz = Curve.zero(), -Curve.zero()
        assert z == nz
        assert hash(z) == hash(nz)
        assert len({z, nz}) == 1

    def test_almost_equal(self):
        a = leaky_bucket(1.0, 2.0)
        b = leaky_bucket(1.0, 2.0 + 1e-12)
        assert a.almost_equal(b)
        assert not a.almost_equal(leaky_bucket(1.0, 2.1))

    def test_repr(self):
        assert "slope" in repr(constant_rate(2.0))
        assert "breakpoints" in repr(rate_latency(2.0, 1.0))


class TestPieces:
    def test_round_trip_through_pieces(self):
        f = Curve([0.0, 0.5, 2.0], [0.0, 1.0, 4.0], [0.5, 1.0, 4.0], [1.0, 2.0, 0.0])
        pts, segs = f.pieces()
        g = Curve.from_pieces(pts, segs)
        assert g == f

    def test_from_pieces_validation(self):
        from repro.nc import Point, Segment

        with pytest.raises(ValueError):
            Curve.from_pieces([], [])
        with pytest.raises(ValueError):
            Curve.from_pieces([Point(1.0, 0.0)], [Segment(1.0, math.inf, 0.0, 1.0)])
        with pytest.raises(ValueError):
            Curve.from_pieces([Point(0.0, 0.0)], [Segment(0.0, 5.0, 0.0, 1.0)])

    def test_sample(self):
        f = constant_rate(2.0)
        out = f.sample([0.0, 1.0, 2.0])
        assert list(out) == [0.0, 2.0, 4.0]
