"""Tests for sweep grid specs: axis parsing, enumeration, application."""

import pytest

from repro.apps.blast import blast_pipeline
from repro.sweep import Axis, SweepPoint, SweepSpec, parse_grid_arg
from repro.units import MiB


class TestAxisParsing:
    def test_comma_list(self):
        ax = parse_grid_arg("scale:network=0.5,1,2")
        assert ax.name == "scale:network"
        assert ax.values == (0.5, 1.0, 2.0)

    def test_linear_range(self):
        ax = parse_grid_arg("workload_mib=16:64:4")
        assert ax.values == pytest.approx((16.0, 32.0, 48.0, 64.0))

    def test_log_range(self):
        ax = parse_grid_arg("scale:network=1:8:4:log")
        assert ax.values == pytest.approx((1.0, 2.0, 4.0, 8.0))

    def test_scenario_values(self):
        ax = parse_grid_arg("scenario=worst,avg,best")
        assert ax.values == ("worst", "avg", "best")

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            parse_grid_arg("scenario=typical")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            parse_grid_arg("bogus=1,2")

    def test_stage_axis_needs_stage(self):
        with pytest.raises(ValueError, match="stage name"):
            Axis("scale", (1.0,))

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="name=values"):
            parse_grid_arg("scale:network")

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            parse_grid_arg("scale:network=0,1")


class TestEnumeration:
    def test_row_major_order_and_count(self):
        spec = SweepSpec.from_pipeline(
            blast_pipeline(),
            [Axis("scale:network", (1.0, 2.0)), Axis("scale:fa2bit", (1.0, 3.0))],
        )
        pts = list(spec.points())
        assert spec.n_points == len(pts) == 4
        assert [p.index for p in pts] == [0, 1, 2, 3]
        # last axis varies fastest
        assert pts[0].params == {"scale:network": 1.0, "scale:fa2bit": 1.0}
        assert pts[1].params == {"scale:network": 1.0, "scale:fa2bit": 3.0}
        assert pts[2].params == {"scale:network": 2.0, "scale:fa2bit": 1.0}

    def test_empty_grid_is_single_base_point(self):
        spec = SweepSpec.from_pipeline(blast_pipeline(), [])
        pts = list(spec.points())
        assert len(pts) == 1 and pts[0].params == {}

    def test_unknown_stage_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="no stage named"):
            SweepSpec.from_pipeline(blast_pipeline(), [Axis("scale:nope", (1.0,))])

    @pytest.mark.parametrize("base,error", [
        ({"name": "x", "source": {"rate": 1.0}},
         "pipeline document missing key 'stages'"),
        ({"name": "x", "source": {"rate": 1.0}, "stages": ["abc"]},
         "stage entry must be an object, got str"),
        ({"name": "x", "source": {"rate": 1.0}, "stages": [{"avg_rate": 1.0}]},
         "stage entry missing ['name']"),
    ], ids=["no-stages", "stage-not-object", "stage-without-name"])
    def test_malformed_base_gets_the_parsers_error(self, base, error):
        # a stage axis reads the base's stage names before any parse
        with pytest.raises(ValueError) as info:
            SweepSpec(base=base, axes=(Axis("scale:a", (1.0, 2.0)),))
        assert str(info.value) == error

    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec.from_pipeline(
                blast_pipeline(),
                [Axis("scale:network", (1.0,)), Axis("scale:network", (2.0,))],
            )


class TestApplication:
    def test_scale_stage_rates_and_exec_times(self):
        pipe = blast_pipeline()
        spec = SweepSpec.from_pipeline(pipe, [Axis("scale:ungapped_ext", (2.0,))])
        applied = spec.apply_point(SweepPoint(0, {"scale:ungapped_ext": 2.0}))
        orig = pipe.stages[pipe.stage_index("ungapped_ext")]
        scaled = applied.pipeline.stages[applied.pipeline.stage_index("ungapped_ext")]
        assert scaled.avg_rate == pytest.approx(orig.avg_rate * 2)
        assert scaled.rate_min == pytest.approx(orig.rate_min * 2)
        # measured per-job execution-time overrides follow the upgrade
        assert scaled.exec_time_min == pytest.approx(orig.exec_time_min / 2)

    def test_source_and_workload_and_queue(self):
        pipe = blast_pipeline()
        spec = SweepSpec.from_pipeline(pipe, [])
        applied = spec.apply_point(
            SweepPoint(
                0,
                {
                    "source_rate_scale": 0.5,
                    "source_burst_mib": 2.0,
                    "workload_mib": 8.0,
                    "queue_mib:network": 1.0,
                    "scenario": "worst",
                },
            )
        )
        assert applied.pipeline.source.rate == pytest.approx(pipe.source.rate * 0.5)
        assert applied.pipeline.source.burst == pytest.approx(2 * MiB)
        assert applied.workload == pytest.approx(8 * MiB)
        assert applied.queue_bytes == {"network": 1 * MiB}
        assert applied.scenario == "worst"

    def test_job_scale(self):
        pipe = blast_pipeline()
        spec = SweepSpec.from_pipeline(pipe, [])
        applied = spec.apply_point(SweepPoint(0, {"job_scale:compose": 0.5}))
        orig = pipe.stages[pipe.stage_index("compose")]
        new = applied.pipeline.stages[applied.pipeline.stage_index("compose")]
        assert new.job_bytes == pytest.approx(orig.job_bytes * 0.5)

    def test_label_is_sorted_and_compact(self):
        p = SweepPoint(3, {"scale:b": 2.0, "scale:a": 1.5})
        assert p.label() == "scale:a=1.5 scale:b=2"
