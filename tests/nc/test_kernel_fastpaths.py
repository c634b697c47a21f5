"""Exactness guarantees of the curve-algebra kernel's fast paths.

The kernel's contracts, each property-tested here:

* closed forms are exact — on dyadic-rational inputs (where the
  generic envelope's own float arithmetic is exact) they reproduce the
  generic algorithm bit-for-bit, and on arbitrary floats they agree
  with it pointwise up to envelope rounding;
* the one-pass forms against a rate-latency or constant-rate curve
  match the exact rational reference on both curve families, jumps
  included, raise ``UnboundedCurveError`` exactly when the exact result
  is unbounded, and equal the generic bit-for-bit on the dyadic grid;
* packetizing a rate-latency curve is bit-identical to the generic
  ``[beta - l]^+`` on arbitrary floats;
* tandem analysis folds the arrival curve through the chain once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nc import (
    EPS,
    Curve,
    Tandem,
    TandemNode,
    UnboundedCurveError,
    backlog_bound,
    constant_rate,
    convolve,
    deconvolve,
    delay_bound,
    eval_batch,
    leaky_bucket,
    lower_pseudo_inverse,
    output_arrival_curve,
    packetize_service,
    rate_latency,
    staircase,
    subadditive_closure,
    token_bucket_stair,
    vertical_deviation,
)
from repro.nc.closure import _closure_generic
from repro.nc.curve import _maximum_generic, _minimum_generic
from repro.nc.minplus import _convolve_generic, _deconvolve_generic
from repro.nc.pseudoinverse import _lower_pinv_generic

from .conftest import (
    assert_matches_exact,
    diff_kinks,
    exact_convolve,
    exact_deconvolve,
    exact_vertical_deviation,
    float_curves,
    nondecreasing_curves,
    sum_kinks,
)

_settings = settings(max_examples=60, deadline=None)

# dyadic grid floats: every sum/difference/product the generic envelope
# performs on them is exact, so fast paths must match it bit-for-bit
_dyadic_rates = st.integers(min_value=1, max_value=1024).map(lambda k: k / 8.0)
_dyadic_lat = st.integers(min_value=0, max_value=512).map(lambda k: k / 8.0)
_dyadic_bursts = st.integers(min_value=0, max_value=1024).map(lambda k: k / 8.0)

# arbitrary floats: fast paths must agree with the generic pointwise
# (the generic itself carries ulp-level envelope rounding here)
_any_rates = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
_any_lat = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)
_any_bursts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def assert_same_arrays(a: Curve, b: Curve) -> None:
    assert np.array_equal(a.bx, b.bx), (a.bx, b.bx)
    assert np.array_equal(a.by, b.by), (a.by, b.by)
    assert np.array_equal(a.sy, b.sy), (a.sy, b.sy)
    assert np.array_equal(a.sl, b.sl), (a.sl, b.sl)


def assert_same_values(a: Curve, b: Curve, xs) -> None:
    va, vb = a(xs), b(xs)
    # envelope rounding is relative to the slope*x products involved,
    # not the local value, so scale the tolerance by the largest finite
    # magnitude over the compared window
    scale = max(1.0, float(np.max(np.abs(vb))))
    assert np.all(np.abs(va - vb) <= 1e-9 * scale), (va, vb)


class TestFastPathBitIdentity:
    """On dyadic inputs every fast path equals the generic bit-for-bit."""

    @_settings
    @given(_dyadic_rates, _dyadic_lat, _dyadic_rates, _dyadic_lat)
    def test_rate_latency_convolution(self, r1, t1, r2, t2):
        f, g = rate_latency(r1, t1), rate_latency(r2, t2)
        assert_same_arrays(convolve(f, g), _convolve_generic(f, g))

    @_settings
    @given(_dyadic_rates, _dyadic_bursts, _dyadic_rates, _dyadic_bursts)
    def test_leaky_bucket_convolution(self, r1, b1, r2, b2):
        f, g = leaky_bucket(r1, b1), leaky_bucket(r2, b2)
        assert_same_arrays(convolve(f, g), _convolve_generic(f, g))

    @_settings
    @given(_dyadic_rates, _dyadic_bursts, _dyadic_rates, _dyadic_lat)
    def test_leaky_bucket_deconvolve_rate_latency(self, ra, b, rb, t):
        a, s = leaky_bucket(ra, b), rate_latency(rb, t)
        if ra > rb:
            return  # unbounded: the error path is covered below
        assert_same_arrays(deconvolve(a, s), _deconvolve_generic(a, s))

    @_settings
    @given(_dyadic_rates, _dyadic_bursts, _dyadic_rates, _dyadic_lat)
    def test_vertical_deviation(self, ra, b, rb, t):
        a, s = leaky_bucket(ra, b), rate_latency(rb, t)
        generic = (a - s).sup(math.inf)
        assert vertical_deviation(a, s) == generic

    @_settings
    @given(_dyadic_rates, _dyadic_bursts)
    def test_subadditive_closure_concave(self, r, b):
        f = leaky_bucket(r, b)
        assert_same_arrays(subadditive_closure(f), _closure_generic(f, 32))

    @_settings
    @given(nondecreasing_curves(), nondecreasing_curves())
    def test_grid_curves_min_max(self, f, g):
        assert_same_arrays(f.minimum(g), _minimum_generic(f, g))
        assert_same_arrays(f.maximum(g), _maximum_generic(f, g))

    @_settings
    @given(nondecreasing_curves(), nondecreasing_curves())
    def test_grid_curves_convolve_deconvolve(self, f, g):
        assert_same_arrays(convolve(f, g), _convolve_generic(f, g))
        if float(f.sl[-1]) <= float(g.sl[-1]):
            assert_same_arrays(deconvolve(f, g), _deconvolve_generic(f, g))

    @_settings
    @given(nondecreasing_curves())
    def test_grid_pseudo_inverse(self, f):
        if float(f.sl[-1]) <= 0.0:
            return  # bounded curves raise identically either way
        assert_same_arrays(lower_pseudo_inverse(f), _lower_pinv_generic(f))


class TestFastPathSemanticAgreement:
    """On arbitrary floats the closed forms agree with the generic
    pointwise; the generic may differ by ulp-wide envelope slivers."""

    @_settings
    @given(_any_rates, _any_lat, _any_rates, _any_lat)
    def test_rate_latency_convolution(self, r1, t1, r2, t2):
        f, g = rate_latency(r1, t1), rate_latency(r2, t2)
        fast, generic = convolve(f, g), _convolve_generic(f, g)
        xs = np.unique(np.concatenate([fast.bx, generic.bx, generic.bx + 1.0]))
        assert_same_values(fast, generic, xs)

    @_settings
    @given(_any_rates, _any_bursts, _any_rates, _any_lat)
    def test_leaky_bucket_deconvolve_rate_latency(self, ra, b, rb, t):
        a, s = leaky_bucket(ra, b), rate_latency(rb, t)
        if ra > rb:
            return
        fast, generic = deconvolve(a, s), _deconvolve_generic(a, s)
        xs = np.unique(np.concatenate([fast.bx, generic.bx, generic.bx + 1.0]))
        assert_same_values(fast, generic, xs)


# --------------------------------------------------------------------- #
# one-pass forms against rate-latency and constant-rate curves
# --------------------------------------------------------------------- #


def _service(rate: float, latency: float) -> Curve:
    """beta_{R,T}; T = 0 gives the constant-rate curve, R = 0 the zero curve."""
    return rate_latency(rate, latency) if rate > 0 else constant_rate(0.0)


_dyadic_service = st.builds(
    _service,
    st.integers(min_value=0, max_value=32).map(lambda k: k / 4.0),
    st.one_of(st.just(0.0), _dyadic_lat),
)
_float_service = st.builds(
    _service,
    st.one_of(st.just(0.0), _any_rates),
    st.one_of(st.just(0.0), _any_lat),
)


def _check_against_exact(f: Curve, g: Curve) -> None:
    assert_matches_exact(convolve(f, g), exact_convolve(f, g), sum_kinks(f, g))
    exact = exact_deconvolve(f, g)
    if exact(Fraction(0)) == math.inf:
        with pytest.raises(UnboundedCurveError):
            deconvolve(f, g)
    else:
        assert_matches_exact(deconvolve(f, g), exact, diff_kinks(f, g))
    exact_v = exact_vertical_deviation(f, g)
    v = vertical_deviation(f, g)
    if exact_v == math.inf:
        assert v == math.inf
    else:
        scale = max(1, abs(exact_v))
        assert abs(Fraction(v) - exact_v) <= Fraction(EPS) * scale, (v, float(exact_v))


class TestRateLatencyForms:
    @_settings
    @given(nondecreasing_curves(6), _dyadic_service)
    def test_dyadic_bit_identical_to_generic(self, f, g):
        assert_same_arrays(convolve(f, g), _convolve_generic(f, g))
        if f.final_slope <= g.final_slope:
            assert_same_arrays(deconvolve(f, g), _deconvolve_generic(f, g))

    @_settings
    @given(nondecreasing_curves(6), _dyadic_service)
    def test_dyadic_against_exact(self, f, g):
        _check_against_exact(f, g)

    @_settings
    @given(float_curves(6), _float_service)
    def test_float_against_exact(self, f, g):
        _check_against_exact(f, g)

    @pytest.mark.parametrize(
        "f",
        [
            staircase(8.0, 0.25, n_steps=12),
            token_bucket_stair(100.0, 64.0, 8.0, n_steps=16),
            # jumps at interior breakpoints and a flat run
            Curve([0.0, 1.0, 2.5], [0.0, 3.0, 4.0], [2.0, 3.5, 6.0], [1.0, 0.0, 2.0]),
        ],
        ids=["staircase", "token-bucket-stair", "jumps"],
    )
    @pytest.mark.parametrize("g", [constant_rate(3.0), rate_latency(3.0, 0.75)], ids=["lambda", "beta"])
    def test_jump_shapes_against_exact(self, f, g):
        _check_against_exact(f, g)

    @pytest.mark.parametrize("g", [constant_rate(2.0), rate_latency(2.0, 0.5)], ids=["lambda", "beta"])
    def test_decreasing_curve_against_exact(self, g):
        # not in the NC class: a downward jump and a falling piece.  The
        # constant-rate scans take any curve; against a latency the
        # shift is unsound, so the generic answers.
        f = Curve([0.0, 1.0, 2.0], [1.0, 0.5, 3.0], [4.0, 2.0, 3.0], [-1.0, 1.0, 1.0])
        _check_against_exact(f, g)

    @pytest.mark.parametrize(
        "f, rate",
        [
            (Curve([0.0, 1.0, 129.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]), 510748.0),
            (Curve([0.0, 257.0], [0.0, 0.0], [0.0, 2.75], [0.0, 0.0]), 41415.0),
            (Curve([0.0, 185.0], [0.0, 0.185], [0.0, 0.685], [0.001, 0.0]), 38082.0),
        ],
        ids=["flat", "flat-far", "sloped"],
    )
    def test_steep_rate_handover_against_exact(self, f, rate):
        # the R-line back from f's jump meets f's flatter piece at an
        # abscissa that rounds left of the true crossing, where the
        # R-line is rate*ulp below f: the ⊘ must not dip there
        _check_against_exact(f, constant_rate(rate))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e9),
        st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)),
        st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_packetized_rate_latency_bit_identical(self, rate, latency, l_max):
        beta = rate_latency(rate, latency)
        assert_same_arrays(packetize_service(beta, l_max), beta.vshift(-l_max).max0())


def test_zero_service_convolution_is_one_piece():
    # a 2-breakpoint f on [0, 0.125] with final slope 0.25 (itself
    # rate-latency) against the zero curve: the rate-latency closed form
    # used to keep a collinear zero piece at 0.125 that the generic
    # envelope merges
    f = Curve([0.0, 0.125], [0.0, 0.0], [0.0, 0.0], [0.0, 0.25])
    zero = _service(0.0, 0.0)
    for a, b in ((f, zero), (zero, f), (rate_latency(2.0, 0.5), zero)):
        got = convolve(a, b)
        assert_same_arrays(got, _convolve_generic(a, b))
        assert got.bx.tolist() == [0.0] and got.sl.tolist() == [0.0]


def test_unbounded_deconvolution_raises_on_every_call():
    for f in (leaky_bucket(10.0, 1.0), Curve.from_breakpoints([0.0, 1.0], [0.0, 4.0], 10.0)):
        for g in (rate_latency(5.0, 0.1), constant_rate(5.0)):
            for _ in range(2):
                with pytest.raises(UnboundedCurveError, match="exceeds the denominator"):
                    deconvolve(f, g)
            assert vertical_deviation(f, g) == math.inf


def test_eval_batch_values():
    c = token_bucket_stair(1000.0, 64.0, 8.0, n_steps=16)
    xs = np.array([0.0, 1e-4, 0.05, 0.5])
    got = eval_batch(c, xs)
    assert got.shape == (4,)
    assert np.array_equal(got, np.asarray(c(xs), dtype=float))
    assert eval_batch(c, 0.25).shape == (1,)


# --------------------------------------------------------------------- #
# tandem propagation
# --------------------------------------------------------------------- #


@st.composite
def stable_tandems(draw) -> Tandem:
    """A leaky-bucket flow through 1-5 packetized rate-latency nodes, each
    at least as fast as the flow, with constant-rate maximum service."""
    rate = draw(_any_rates)
    alpha = leaky_bucket(rate, draw(_any_bursts))
    nodes = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        r_min = rate * draw(st.floats(min_value=1.0, max_value=4.0))
        beta = packetize_service(rate_latency(r_min, draw(_any_lat)), draw(_any_bursts) + 1.0)
        gamma = constant_rate(r_min * draw(st.floats(min_value=1.0, max_value=3.0)))
        nodes.append(TandemNode(beta, gamma, f"n{i}"))
    return Tandem(alpha, nodes)


def _outcome(thunk):
    """``("ok", value)`` or ``("unbounded", message)``."""
    try:
        return "ok", thunk()
    except UnboundedCurveError as exc:
        return "unbounded", str(exc)


def _same_outcome(got, want) -> None:
    assert got[0] == want[0], (got, want)
    if got[0] == "unbounded":
        assert got[1] == want[1]
    elif isinstance(want[1], Curve):
        assert_same_arrays(got[1], want[1])
    else:
        assert got[1] == want[1]


class TestTandemFold:
    @_settings
    @given(stable_tandems())
    def test_per_node_results_equal_a_direct_fold(self, tandem):
        """Each query equals a direct fold of its own, down to the
        ``UnboundedCurveError`` either side raises (a node's output curve
        can come out unbounded through the ⊗ slope edge below)."""
        nodes = tandem.nodes

        def arrival(i):
            a = tandem.alpha
            for node in nodes[:i]:
                a = output_arrival_curve(a, node.beta, node.gamma)
            return a

        def delay_sum():
            total = 0.0
            for i, node in enumerate(nodes):
                d = delay_bound(arrival(i), node.beta)
                if math.isinf(d):
                    return math.inf
                total += d
            return total

        _same_outcome(
            _outcome(tandem.per_node_backlog_bounds),
            _outcome(lambda: [backlog_bound(arrival(i), n.beta) for i, n in enumerate(nodes)]),
        )
        _same_outcome(_outcome(tandem.sum_of_per_node_delay_bounds), _outcome(delay_sum))
        _same_outcome(_outcome(tandem.output_envelope), _outcome(lambda: arrival(len(nodes))))
        for i in range(len(nodes)):
            _same_outcome(_outcome(lambda: tandem.arrival_at(i)), _outcome(lambda: arrival(i)))

    @pytest.mark.xfail(
        strict=True,
        reason="⊗ of two jump-lines whose rates differ by one ulp keeps the "
        "larger rate as its final slope, so a later ⊘ at the smaller rate "
        "is called unbounded",
    )
    def test_convolution_long_run_slope_is_the_smaller_rate(self):
        lam = constant_rate(1.0000000000000002)
        out = convolve(leaky_bucket(1.0, 1.0), lam)
        assert out.final_slope == 1.0
        # the tandem consequence: a flow at rate 1 leaving a node whose
        # maximum service is that lam, into a node that serves at rate 1
        deconvolve(out, rate_latency(1.0, 0.5))

    def test_unstable_node_stops_the_fold(self):
        # node 0 is slower than the flow: its delay is infinite, and the
        # sum returns before deriving the (unbounded) curve that leaves it
        tandem = Tandem(
            leaky_bucket(10.0, 1.0),
            [TandemNode(rate_latency(5.0, 0.1)), TandemNode(rate_latency(20.0, 0.1))],
        )
        assert tandem.sum_of_per_node_delay_bounds() == math.inf
        with pytest.raises(UnboundedCurveError):
            tandem.per_node_backlog_bounds()
