"""Property-based tests of the min-plus algebra on random PWL curves.

The oracle is the exact rational reference in ``conftest``: production
results are compared against it on the dyadic grid curves (where the
float arithmetic itself is exact) and on arbitrary floats drawn from
``{0} ∪ [1e-3, 1e3]``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nc import (
    EPS,
    Curve,
    UnboundedCurveError,
    backlog_bound,
    convolve,
    deconvolve,
    delay_bound,
    leaky_bucket,
    max_convolve,
    rate_latency,
    staircase,
    vertical_deviation,
)
from .conftest import (
    assert_matches_exact,
    critical_times,
    delay_slack,
    diff_kinks,
    exact_convolve,
    exact_deconvolve,
    exact_max_convolve,
    exact_maximum,
    exact_minimum,
    exact_vertical_deviation,
    float_curves,
    nondecreasing_curves,
    sum_kinks,
)

_settings = settings(max_examples=60, deadline=None)

_families = pytest.mark.parametrize(
    "curves", [nondecreasing_curves, float_curves], ids=["dyadic", "float"]
)


def _check_convolve(f, g):
    assert_matches_exact(convolve(f, g), exact_convolve(f, g), sum_kinks(f, g))


def _check_deconvolve(f, g):
    exact = exact_deconvolve(f, g)
    if exact(Fraction(0)) == math.inf:
        with pytest.raises(UnboundedCurveError):
            deconvolve(f, g)
        return
    assert_matches_exact(deconvolve(f, g), exact, diff_kinks(f, g))


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_convolution_matches_oracle(f, g):
    _check_convolve(f, g)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_convolution_commutative(f, g):
    assert convolve(f, g).almost_equal(convolve(g, f), tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(nondecreasing_curves(3), nondecreasing_curves(3), nondecreasing_curves(3))
def test_convolution_associative(f, g, h):
    a = convolve(convolve(f, g), h)
    b = convolve(f, convolve(g, h))
    assert a.almost_equal(b, tol=1e-9)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_convolution_nondecreasing_and_below_sum_shape(f, g):
    c = convolve(f, g)
    assert c.is_nondecreasing()
    ts = critical_times(f, g)
    # c(t) <= f(0) + g(t) and c(t) <= f(t) + g(0)
    assert np.all(c(ts) <= f(ts) + g(0.0) + 1e-9)
    assert np.all(c(ts) <= g(ts) + f(0.0) + 1e-9)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_deconvolution_matches_oracle(f, g):
    _check_deconvolve(f, g)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_duality_f_below_deconv_conv(f, g):
    """f <= (f (/) g) (*) g."""
    if f.final_slope > g.final_slope:
        return
    h = convolve(deconvolve(f, g), g)
    ts = critical_times(f, g)
    assert np.all(h(ts) >= f(ts) - 1e-9)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_deconv_at_zero_is_vertical_deviation(f, g):
    if f.final_slope > g.final_slope:
        return
    o = deconvolve(f, g)
    v = vertical_deviation(f, g)
    assert math.isfinite(v)
    assert o(0.0) == pytest.approx(v, rel=1e-9, abs=1e-9)


@_settings
@given(nondecreasing_curves(), nondecreasing_curves())
def test_max_convolution_against_oracle(f, g):
    assert_matches_exact(max_convolve(f, g), exact_max_convolve(f, g), sum_kinks(f, g))


@_settings
@given(nondecreasing_curves())
def test_convolution_with_zero_is_initial_value(f):
    """f (*) 0 = f(0) for nondecreasing f (inf over the whole prefix)."""
    z = Curve.zero()
    assert convolve(f, z).almost_equal(Curve.constant(float(f.by[0])), tol=1e-9)


# --------------------------------------------------------------------- #
# exact reference on both curve families
# --------------------------------------------------------------------- #


@_settings
@given(float_curves(), float_curves())
def test_float_convolution_and_deconvolution_match_exact(f, g):
    _check_convolve(f, g)
    _check_deconvolve(f, g)


@_families
@_settings
@given(data=st.data())
def test_min_max_match_exact(curves, data):
    f, g = data.draw(curves()), data.draw(curves())
    kinks = [float(x) for x in (*f.bx, *g.bx)]
    assert_matches_exact(f.minimum(g), exact_minimum(f, g), kinks)
    assert_matches_exact(f.maximum(g), exact_maximum(f, g), kinks)


def _check_bounds(f, g):
    """Backlog and delay bounds are sound and tight against the exact deviations."""
    exact_v = exact_vertical_deviation(f, g)
    v = vertical_deviation(f, g)
    if exact_v == math.inf:
        assert v == math.inf
    else:
        scale = max(1, abs(exact_v))
        assert abs(Fraction(v) - exact_v) <= Fraction(EPS) * scale, (v, float(exact_v))
        assert Fraction(backlog_bound(f, g)) >= exact_v - Fraction(EPS) * scale

    d = delay_bound(f, g)
    if math.isinf(d):
        # infinite only when no finite delay passes the check
        assert delay_slack(f, g, 1e15) < 0
        return
    # d passes within EPS, in time and in value: float breakpoint sums
    # round, and a float curve's stored breakpoint value may sit an ulp
    # below its incoming ray
    scale = max(1.0, *np.abs(f.by), *np.abs(f.sy), *np.abs(g.by), *np.abs(g.sy))
    slack = delay_slack(f, g, d + EPS * max(1.0, d))
    assert slack >= -EPS * scale, (d, float(slack))
    # and tight: a visibly smaller delay fails the check
    margin = 1e-6 * max(1.0, d)
    if d > margin:
        assert delay_slack(f, g, d - margin) < 0, d


@_families
@_settings
@given(data=st.data())
def test_bounds_sound_against_exact(curves, data):
    _check_bounds(data.draw(curves()), data.draw(curves()))


@pytest.mark.parametrize(
    "f,g",
    [
        # the delay peaks at a right-limit in level space: a continuous
        # flow against a service that jumps after a flat start
        (Curve([0.0], [0.0], [0.0], [1.0]), Curve([0.0, 2.0], [0.0, 0.0], [0.0, 4.0], [0.0, 1.0])),
        (leaky_bucket(2.0, 3.0), rate_latency(5.0, 1.0)),
        (staircase(1.0, 1.0, n_steps=4), rate_latency(2.0, 0.5)),
        (rate_latency(3.0, 1.0), leaky_bucket(1.0, 2.0)),
    ],
)
def test_bounds_exact_on_jump_shapes(f, g):
    _check_bounds(f, g)
