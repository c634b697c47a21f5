"""Exactness and identity guarantees of the curve-algebra kernel.

The kernel's contracts, each property-tested here:

* fast paths are exact closed forms — on dyadic-rational inputs (where
  the generic envelope's own float arithmetic is exact) they reproduce
  the generic algorithm bit-for-bit, and on arbitrary floats they agree
  with it pointwise up to envelope rounding;
* enabling/disabling the kernel only adds or removes caching — analysis
  results are byte-identical on, off, cold, and warm;
* memo hits return the very object the cold path produced, errors are
  never swallowed or cached, and the tables stay bounded.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.blast import blast_pipeline
from repro.apps.bump_in_the_wire import bitw_pipeline
from repro.nc import (
    Curve,
    UnboundedCurveError,
    backlog_bound,
    constant_rate,
    convolve,
    deconvolve,
    delay_bound,
    digest_of,
    eval_batch,
    interned,
    kernel_disabled,
    kernel_enabled,
    leaky_bucket,
    lower_pseudo_inverse,
    memo_stats,
    rate_latency,
    reset_kernel,
    set_kernel_enabled,
    subadditive_closure,
    token_bucket_stair,
    vertical_deviation,
)
from repro.nc.closure import _closure_generic
from repro.nc.curve import _maximum_generic, _minimum_generic
from repro.nc.minplus import _convolve_generic, _deconvolve_generic
from repro.nc.pseudoinverse import _lower_pinv_generic
from repro.streaming import analyze

from .conftest import nondecreasing_curves

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


@pytest.fixture(autouse=True)
def _fresh_kernel():
    reset_kernel()
    yield
    reset_kernel()
    set_kernel_enabled(True)


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


class TestOnOffByteIdentity:
    """Disabling the kernel removes caching only — results are identical."""

    @_settings
    @given(_any_rates, _any_bursts, _any_rates, _any_lat)
    def test_ops_identical_on_off(self, ra, b, rb, t):
        a, s = leaky_bucket(ra, b), rate_latency(rb, t)
        reset_kernel()
        on_conv = convolve(a, s)
        on_vdev = vertical_deviation(a, s)
        on_hdev = delay_bound(a, s)
        with kernel_disabled():
            assert_same_arrays(convolve(a, s), on_conv)
            assert vertical_deviation(a, s) == on_vdev
            off_hdev = delay_bound(a, s)
            assert off_hdev == on_hdev or (math.isinf(off_hdev) and math.isinf(on_hdev))

    def test_errors_not_swallowed_or_cached(self):
        a, s = leaky_bucket(10.0, 1.0), rate_latency(5.0, 0.1)  # unstable
        for _ in range(2):  # second call must raise again, not hit a memo
            with pytest.raises(UnboundedCurveError):
                deconvolve(a, s)
        with kernel_disabled():
            with pytest.raises(UnboundedCurveError):
                deconvolve(a, s)


class TestMemoAndInterning:
    def test_warm_hit_returns_same_object(self):
        a, s = leaky_bucket(100.0, 8.0), rate_latency(150.0, 0.01)
        cold = convolve(a, s)
        warm = convolve(a, s)
        assert warm is cold
        assert memo_stats()["hits"] >= 1

    def test_builders_intern_to_one_object(self):
        assert leaky_bucket(10.0, 2.0) is leaky_bucket(10.0, 2.0)
        assert rate_latency(5.0, 0.5) is rate_latency(5.0, 0.5)
        assert constant_rate(3.0) is constant_rate(3.0)

    def test_digest_stable_and_discriminating(self):
        a = leaky_bucket(10.0, 2.0)
        assert digest_of(a) == digest_of(leaky_bucket(10.0, 2.0))
        assert digest_of(a) != digest_of(leaky_bucket(10.0, 3.0))

    def test_structural_equality_via_digest(self):
        a = leaky_bucket(10.0, 2.0)
        b = leaky_bucket(10.0, 2.0)
        assert a == b and hash(a) == hash(b)

    def test_disabled_kernel_interning_is_identity(self):
        with kernel_disabled():
            assert not kernel_enabled()
            c = Curve([0.0], [0.0], [1.0], [2.0])
            assert interned(c) is c
        assert kernel_enabled()

    def test_memo_bounded_with_evictions(self, monkeypatch):
        from repro.nc import kernel

        monkeypatch.setattr(kernel, "_MEMO_MAX", 8)
        reset_kernel()
        for i in range(1, 30):
            # staircase operands dodge the fast paths, forcing memo writes
            deconvolve(leaky_bucket(float(i), 1.0), rate_latency(float(i) * 2.0, 0.25))
            delay_bound(leaky_bucket(float(i), 1.0), rate_latency(float(i) * 2.0, 0.25))
        stats = memo_stats()
        assert stats["size"] <= 8
        assert stats["evictions"] > 0

    def test_stats_shape(self):
        stats = memo_stats()
        for key in (
            "enabled",
            "size",
            "max_size",
            "hits",
            "misses",
            "hit_rate",
            "evictions",
            "fast_path_hits",
            "interned_curves",
        ):
            assert key in stats

    def test_eval_batch_counts_and_values(self):
        c = token_bucket_stair(1000.0, 64.0, 8.0, n_steps=16)
        xs = np.array([0.0, 1e-4, 0.05, 0.5])
        got = eval_batch(c, xs)
        assert got.shape == (4,)
        assert np.array_equal(got, np.asarray(c(xs), dtype=float))
        assert eval_batch(c, 0.25).shape == (1,)
        stats = memo_stats()
        assert stats["eval_batch_calls"] == 2
        assert stats["eval_batch_points"] == 5


class TestEndToEndByteIdentity:
    @pytest.mark.parametrize("make", [blast_pipeline, bitw_pipeline])
    def test_analysis_identical_on_off_warm(self, make):
        pipe = make()
        with kernel_disabled():
            off = analyze(pipe).summary()
        reset_kernel()
        cold = analyze(pipe).summary()
        warm = analyze(pipe).summary()
        assert off == cold == warm

    @pytest.mark.parametrize("make", [blast_pipeline, bitw_pipeline])
    def test_bounds_identical_on_off(self, make):
        from repro.streaming import build_model

        pipe = make()
        with kernel_disabled():
            m = build_model(pipe)
            off = (delay_bound(m.alpha, m.beta_system), backlog_bound(m.alpha, m.beta_system))
        reset_kernel()
        m = build_model(pipe)
        on = (delay_bound(m.alpha, m.beta_system), backlog_bound(m.alpha, m.beta_system))
        assert off == on
