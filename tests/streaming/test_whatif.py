"""What-if analysis edge cases: factor validation, empty inputs, ladders."""

import pytest

from repro.apps.blast import blast_pipeline
from repro.streaming import analyze
from repro.streaming.pipeline import Pipeline, Source
from repro.streaming.whatif import (
    bottleneck_ladder,
    compare,
    downgrade_stage,
    upgrade_grid,
    upgrade_stage,
)


@pytest.fixture()
def pipe():
    return blast_pipeline()


class TestStageScaling:
    def test_upgrade_scales_all_three_rates(self, pipe):
        up = upgrade_stage(pipe, "network", 2.0)
        base = pipe.stages[pipe.stage_index("network")]
        changed = up.stages[up.stage_index("network")]
        assert changed.avg_rate == pytest.approx(2.0 * base.avg_rate)
        assert changed.rate_min == pytest.approx(2.0 * base.rate_min)
        assert changed.rate_max == pytest.approx(2.0 * base.rate_max)

    def test_downgrade_is_inverse_of_upgrade(self, pipe):
        down = downgrade_stage(pipe, "network", 4.0)
        restored = upgrade_stage(down, "network", 4.0)
        base = pipe.stages[pipe.stage_index("network")]
        back = restored.stages[restored.stage_index("network")]
        assert back.avg_rate == pytest.approx(base.avg_rate)

    @pytest.mark.parametrize("factor", [0.0, -1.0])
    def test_non_positive_factor_rejected(self, pipe, factor):
        with pytest.raises(ValueError, match="factor"):
            upgrade_stage(pipe, "network", factor)
        with pytest.raises(ValueError, match="factor"):
            downgrade_stage(pipe, "network", factor)

    def test_unknown_stage_raises(self, pipe):
        with pytest.raises(KeyError, match="no stage named"):
            upgrade_stage(pipe, "warp_drive", 2.0)

    def test_upgrade_is_the_sweep_scale_axis(self, pipe):
        """One stage-scaling function: the what-if upgrade and the sweep's
        ``scale:<stage>`` axis give the same pipeline document, measured
        per-job times included (the DES draws its job times from them)."""
        from repro.streaming import pipeline_to_dict
        from repro.sweep import Axis, SweepPoint, SweepSpec

        spec = SweepSpec.from_pipeline(pipe, [Axis("scale:ungapped_ext", (2.0,))])
        swept = spec.apply_point(SweepPoint(0, {"scale:ungapped_ext": 2.0})).pipeline
        upgraded = upgrade_stage(pipe, "ungapped_ext", 2.0)
        assert pipeline_to_dict(upgraded) == pipeline_to_dict(swept)
        base = pipe.stages[pipe.stage_index("ungapped_ext")]
        fast = upgraded.stages[upgraded.stage_index("ungapped_ext")]
        assert fast.exec_time_min == pytest.approx(base.exec_time_min / 2)
        assert fast.exec_time_max == pytest.approx(base.exec_time_max / 2)

    def test_other_stages_untouched(self, pipe):
        up = upgrade_stage(pipe, "network", 2.0)
        for name in ("fa2bit", "ungapped_ext"):
            assert (
                up.stages[up.stage_index(name)].avg_rate
                == pipe.stages[pipe.stage_index(name)].avg_rate
            )


class TestEmptyInputs:
    def test_pipeline_requires_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline("p", Source(rate=1.0), [])

    def test_upgrade_grid_requires_stages(self, pipe):
        with pytest.raises(ValueError, match="at least one stage"):
            upgrade_grid(pipe, [], [1.0, 2.0])

    def test_ladder_requires_steps(self, pipe):
        with pytest.raises(ValueError, match="steps"):
            bottleneck_ladder(pipe, steps=0)


class TestCompare:
    def test_upgrading_bottleneck_never_hurts(self, pipe):
        bottleneck = analyze(pipe).bottleneck
        report = compare(pipe, upgrade_stage(pipe, bottleneck, 2.0))
        assert report.throughput_gain >= 0.0
        assert report.delay_change <= 1e-12

    def test_no_change_is_identity(self, pipe):
        report = compare(pipe, pipe, change="noop")
        assert report.throughput_gain == pytest.approx(0.0)
        assert report.delay_change == pytest.approx(0.0)
        assert not report.moved_bottleneck
        assert "noop" in report.summary()


class TestBottleneckLadder:
    def test_each_step_upgrades_current_bottleneck(self, pipe):
        reports = bottleneck_ladder(pipe, steps=3)
        assert len(reports) == 3
        for report in reports:
            assert f"upgrade {report.baseline.bottleneck} " in report.change

    def test_guaranteed_throughput_never_regresses(self, pipe):
        reports = bottleneck_ladder(pipe, steps=3)
        lows = [r.baseline.throughput_lower_bound for r in reports]
        lows.append(reports[-1].candidate.throughput_lower_bound)
        assert lows == sorted(lows)


class TestUpgradeGrid:
    def test_grid_covers_every_combination(self, pipe):
        result = upgrade_grid(pipe, ["network", "ungapped_ext"], [1.0, 2.0])
        assert result.n_points == 4
        assert not result.errors

    def test_identity_point_matches_direct_analysis(self, pipe):
        result = upgrade_grid(pipe, ["network"], [1.0, 2.0])
        identity = next(
            r for r in result.results if r.params["scale:network"] == 1.0
        )
        direct = analyze(pipe)
        assert identity.nc["throughput_lower_bound"] == pytest.approx(
            direct.throughput_lower_bound
        )
