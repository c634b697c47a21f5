"""The arrival check replays every window of the record in one pass.

A brute-force oracle evaluates ``alpha`` at the lag of every window
``t_i < t_j`` (the O(n^2) statement of the check); the one-pass replay
must give the same verdict and worst excess, and list only windows the
oracle calls violations.  The report's virtual delays, computed once
and vectorized, must equal the scalar loop they replace bit for bit.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps.blast import blast_simulation
from repro.apps.bump_in_the_wire import bitw_simulation
from repro.des.monitor import CumulativeFlow
from repro.des.report import SimulationReport
from repro.nc import eval_batch
from repro.nc.builders import (
    leaky_bucket,
    piecewise_concave,
    rate_latency,
    token_bucket_stair,
)
from repro.nc.curve import Curve
from repro.sweep.runner import evaluate_point
from repro.streaming import pipeline_to_dict
from repro.telemetry import check_arrivals
from repro.units import MiB

RTOL = 1e-3
#: the right-limit nudge the check evaluates alpha with
NUDGE = 1e-12


def _record(times, cum):
    """The one part of a simulation report the arrival check reads."""
    return types.SimpleNamespace(
        arrivals=CumulativeFlow.from_samples(list(times), list(cum))
    )


def _oracle(at, ac, alpha, l_max):
    """Every window, brute force: ``(ok, worst_observed, violations,
    smallest distance of any window from the rule's threshold)``, where
    violations are ``(time, observed, bound)`` triples as the check
    reports them."""
    env0 = eval_batch(alpha, at + NUDGE) + l_max
    i, j = np.triu_indices(len(at), k=1)
    env = eval_batch(alpha, at[j] - at[i] + NUDGE) + l_max
    inc = ac[j] - ac[i]
    over0 = ac - env0 - RTOL * np.maximum(1.0, env0)
    over = inc - env - RTOL * np.maximum(1.0, env)
    violations = set(zip(at[over0 > 0], ac[over0 > 0], env0[over0 > 0]))
    violations |= set(zip(at[j][over > 0], inc[over > 0], env[over > 0]))
    worst = max(np.max(ac - env0), np.max(inc - env, initial=-np.inf)) + l_max
    closest = np.min(np.abs(np.concatenate([over0, over])))
    return not violations, worst, violations, closest


@st.composite
def replays(draw):
    """A step record of up to 600 steps, an arrival curve and a packet
    size.  Some records carry a planted window: a burst far over the
    envelope, or one step just under or over the rule's threshold."""
    pieces = draw(st.lists(
        st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 50.0)), min_size=1, max_size=3
    ))
    alpha = leaky_bucket(*pieces[0]) if len(pieces) == 1 else piecewise_concave(pieces)
    l_max = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0, 4.0]))
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.uniform(0.01, 1.0, n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    plant = draw(st.sampled_from(["none", "burst", "edge"]))
    rate = min(r for r, _ in pieces)
    if plant == "edge":
        # under the sustained rate, so only the planted step can violate
        steps = rng.uniform(0.0, 1.0, n - 1) * gaps * rate
    else:
        # a little over it, so windows come close to the envelope, plus
        # a few packet-sized bursts
        steps = rng.uniform(0.0, 1.2, n - 1) * gaps * rate
        steps[rng.random(n - 1) < 0.05] += l_max
    j = draw(st.integers(1, n - 1))
    env = float(alpha(gaps[j - 1] + NUDGE)) + l_max
    if plant == "burst":
        steps[j - 1] += 2.0 * env + 1.0
    elif plant == "edge":
        # below one byte the rule's slack is rtol, not rtol * env
        steps[j - 1] = env + draw(st.sampled_from([0.5, 2.0])) * RTOL * max(1.0, env)
    return times, np.concatenate([[0.0], np.cumsum(steps)]), alpha, l_max


class TestAgainstEveryWindow:
    @settings(max_examples=150, deadline=None)
    @given(replays())
    def test_one_pass_matches_brute_force(self, case):
        at, ac, alpha, l_max = case
        assume(ac[-1] > 0)
        ok, worst, violations, closest = _oracle(at, ac, alpha, l_max)
        # a window within rounding of the threshold may go either way
        assume(closest > 1e-9 * max(1.0, ac[-1]))
        result = check_arrivals(_record(at, ac), alpha, l_max, rtol=RTOL)
        assert result.ok == ok
        assert len(result.violations) <= 8
        for v in result.violations:
            assert (v.time, v.observed, v.bound) in violations, v
        assert math.isclose(
            result.worst_observed, worst, rel_tol=1e-9, abs_tol=1e-9 * max(1.0, ac[-1])
        )
        n = len(at)
        assert result.n_observations == n + n * (n - 1) // 2

    def test_violation_between_the_old_samples_is_found(self):
        # 600 steps of 1,000 B at 1 ms against alpha = 1e6*t + 10,000 B;
        # the step after m is skipped and made up one step later with
        # 10,500 B more.  Only windows that start at m see more than
        # alpha + l_max, and m is none of the 256 indices that a
        # decimation to 256 samples keeps.
        n, m, l_max = 600, 301, 1000.0
        kept = set(np.linspace(0, n - 1, 256).astype(int).tolist())
        assert m not in kept
        steps = np.full(n - 1, 1000.0)
        steps[m - 1] = 0.0
        steps[m] = 2000.0 + 10_500.0
        times = np.arange(n) * 1e-3
        cum = np.concatenate([[0.0], np.cumsum(steps)])
        alpha = leaky_bucket(1e6, 10_000.0)
        result = check_arrivals(_record(times, cum), alpha, l_max)
        assert not result.ok
        ok, _, violations, _ = _oracle(times, cum, alpha, l_max)
        assert not ok and {v.time for v in result.violations} <= {t for t, _, _ in violations}
        assert result.violations[0].time == pytest.approx(times[m + 1])

    @pytest.mark.parametrize("excess, ok", [(0.5e-3, True), (2e-3, False)])
    def test_below_one_byte_the_slack_is_rtol(self, excess, ok):
        # alpha + l_max = 0.1*lag + 0.2 B.  The one-second window from
        # t=1 may carry 0.3 B plus rtol = 1e-3 B, not plus rtol * 0.3 B;
        # the 21-second window from t=1 carries 2e-3 B over its 2.3 B,
        # within its slack of rtol * 2.3 B
        times = np.array([0.0, 1.0, 2.0, 22.0])
        cum = np.array([0.0, 0.09, 0.39 + excess, 2.392])
        result = check_arrivals(_record(times, cum), leaky_bucket(0.1, 0.0), 0.2)
        assert result.ok == ok == _oracle(times, cum, leaky_bucket(0.1, 0.0), 0.2)[0]

    def test_near_misses_below_one_byte_do_not_hide_a_violation(self):
        # eleven one-second windows carry 0.3005 B against 0.3 B, within
        # the rtol = 1e-3 B slack below one byte; then a 5 B burst.  A
        # check that took the slack as rtol * 0.3 B would list the near
        # misses first, up to its cap, and miss the burst.
        times, cum = [], []
        for k in range(11):
            times += [10.0 * k, 10.0 * k + 1.0]
            cum += [0.3005 * k, 0.3005 * (k + 1)]
        times.append(111.0)
        cum.append(cum[-1] + 5.0)
        alpha, l_max = leaky_bucket(0.1, 0.0), 0.2
        result = check_arrivals(_record(times, cum), alpha, l_max)
        assert not result.ok
        assert [v.time for v in result.violations] == [111.0]

    def test_a_record_past_the_old_cap_counts_every_window(self):
        times = np.arange(2049) * 1e-3
        cum = np.arange(2049) * 500.0
        result = check_arrivals(_record(times, cum), leaky_bucket(1e6, 0.0), 500.0)
        assert result.ok
        assert result.n_observations == 2049 + 2049 * 2048 // 2


class TestAlphaShape:
    @pytest.mark.parametrize(
        "alpha",
        [
            rate_latency(1e6, 1e-3),
            token_bucket_stair(1e6, 1e4, 1e3, n_steps=8),
            Curve.from_breakpoints([0.0, 1.0], [0.0, 5.0], final_slope=-1.0),
        ],
        ids=["convex", "staircase", "decreasing"],
    )
    def test_a_non_concave_alpha_raises(self, alpha):
        record = _record([0.0, 1e-3, 2e-3], [0.0, 1e3, 2e3])
        with pytest.raises(ValueError, match="concave"):
            check_arrivals(record, alpha, 1e3)

    def test_a_burst_at_the_origin_is_allowed(self):
        alpha = piecewise_concave([(1e6, 1e4), (2e6, 0.0)])
        record = _record([0.0, 1e-3, 2e-3], [0.0, 1e3, 2e3])
        assert check_arrivals(record, alpha, 1e3).ok


def _scalar_virtual_delays(sim, levels, skip):
    """The per-level loop the vectorized samples replaced."""
    at, ac = sim.arrivals.arrays()
    dt, dc = sim.departures.arrays()
    y0 = max(sim.output_bytes / levels, sim.output_bytes * skip)
    ys = np.linspace(y0, sim.output_bytes, levels)
    ai = np.clip(np.searchsorted(ac, ys - 1e-9, side="left"), 0, len(at) - 1)
    di = np.clip(np.searchsorted(dc, ys - 1e-9, side="left"), 0, len(dt) - 1)
    return [max(0.0, float(t_out - t_in)) for t_in, t_out in zip(at[ai], dt[di])]


@pytest.fixture(scope="module", params=["blast", "bitw"])
def paper_run(request):
    if request.param == "blast":
        return blast_simulation(workload=32 * MiB)
    return bitw_simulation(workload=4 * MiB)


class TestVirtualDelays:
    @pytest.mark.parametrize("levels, skip", [(512, 0.0), (512, 0.15), (97, 0.5)])
    def test_vectorized_equals_the_scalar_loop_bit_for_bit(self, paper_run, levels, skip):
        got = paper_run.observed_virtual_delays(levels, skip).as_array()
        want = np.array(_scalar_virtual_delays(paper_run, levels, skip))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_samples_are_computed_once_and_read_only(self, paper_run):
        delays, times = paper_run.virtual_delay_samples(512, 0.15)
        assert paper_run.virtual_delay_samples(512, 0.15)[0] is delays
        assert not delays.flags.writeable and not times.flags.writeable

    def test_a_simulated_point_computes_its_delays_once(self, monkeypatch):
        from repro.apps.blast import blast_pipeline

        calls = []
        sample = SimulationReport._sample_virtual_delays

        def counted(self, *args):
            calls.append(args)
            return sample(self, *args)

        monkeypatch.setattr(SimulationReport, "_sample_virtual_delays", counted)
        options = {"simulate": True, "packetized": False,
                   "workload": 4 * MiB, "base_seed": 1}
        # a stable point: the des block and the full conformance check both run
        out = evaluate_point(
            pipeline_to_dict(blast_pipeline()), {"source_rate_scale": 0.3}, options, 7
        )
        assert "error" not in out, out
        assert out["conformance"]["checks"]["delay.end_to_end"]["n_observations"] == 512
        assert calls == [(512, 0.15)]
