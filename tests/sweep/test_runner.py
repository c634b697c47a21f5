"""Tests for sweep execution: serial/parallel/cached identity, fallback,
per-point seeds, artifact store."""

import json
import math

import pytest

from repro.apps.blast import blast_pipeline
from repro.streaming import analyze, upgrade_grid
from repro.sweep import (
    Axis,
    ResultCache,
    SweepSpec,
    point_key,
    point_seed,
    run_sweep,
    write_artifacts,
)
from repro.sweep import runner as runner_mod
from repro.units import MiB

from .test_cache import full_payload_key


def _spec(simulate=False, workload=None):
    return SweepSpec.from_pipeline(
        blast_pipeline(),
        [Axis("scale:ungapped_ext", (1.0, 2.0)), Axis("scale:network", (0.5, 1.0))],
        simulate=simulate,
        workload=workload,
    )


def _killer_payload(payload):
    """Pool entry point that hard-kills the worker on one param combo.

    Module level so it pickles; ``os._exit`` (not an exception) so the
    worker process dies without cleanup, which is what the OOM killer
    or a segfault looks like from the parent's side.
    """
    import os

    model, params, options, seed = payload
    if params.get("scale:network") == 0.5:
        os._exit(1)
    from repro.sweep.runner import evaluate_point

    return evaluate_point(model, params, options, seed)


class TestSeeds:
    def test_seed_depends_on_params_not_index(self):
        s1 = point_seed(42, {"scale:a": 1.0})
        s2 = point_seed(42, {"scale:a": 1.0})
        assert s1 == s2
        assert point_seed(42, {"scale:a": 2.0}) != s1
        assert point_seed(43, {"scale:a": 1.0}) != s1

    def test_seed_survives_axis_reordering(self):
        assert point_seed(1, {"a": 1.0, "b": 2.0}) == point_seed(1, {"b": 2.0, "a": 1.0})


class TestRunSweep:
    def test_serial_matches_direct_analysis(self):
        spec = _spec()
        result = run_sweep(spec, jobs=1)
        assert result.mode == "serial"
        assert len(result.results) == 4
        # the base-scale point must agree with analyzing the pipeline directly
        base = next(
            r
            for r in result.results
            if r.params == {"scale:ungapped_ext": 1.0, "scale:network": 1.0}
        )
        direct = analyze(blast_pipeline(), packetized=False)
        assert base.nc["throughput_lower_bound"] == pytest.approx(
            direct.throughput_lower_bound
        )
        assert base.nc["delay_bound"] == pytest.approx(direct.delay_bound)
        assert base.nc["bottleneck"] == direct.bottleneck

    def test_parallel_identical_to_serial(self):
        spec = _spec()
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert parallel.mode in ("parallel", "parallel-degraded")
        assert serial.comparable() == parallel.comparable()

    def test_cache_skips_recomputation_and_is_identical(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path)
        cold = run_sweep(spec, jobs=1, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == 4
        warm = run_sweep(spec, jobs=1, cache=cache)
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert cold.comparable() == warm.comparable()

    def test_spec_change_invalidates_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), jobs=1, cache=cache)
        bumped = SweepSpec.from_pipeline(
            blast_pipeline(),
            [Axis("scale:ungapped_ext", (1.0, 2.0)), Axis("scale:network", (0.5, 1.0))],
            packetized=True,  # different evaluation options => different keys
        )
        again = run_sweep(bumped, jobs=1, cache=cache)
        assert again.cache_hits == 0

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        spec = _spec()

        def boom(*args, **kwargs):
            raise OSError("no pool for you")

        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        result = run_sweep(spec, jobs=4)
        assert result.mode == "parallel-degraded"
        assert len(result.results) == 4
        assert not result.errors
        assert result.comparable() == run_sweep(spec, jobs=1).comparable()

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method(allow_none=True) not in (None, "fork"),
        reason="worker-death injection relies on the fork start method",
    )
    def test_worker_death_marks_point_failed_and_continues(self):
        spec = _spec()
        import repro.sweep.runner as runner_mod

        orig = runner_mod._evaluate_payload
        try:
            runner_mod._evaluate_payload = _killer_payload
            result = runner_mod.run_sweep(spec, jobs=2)
        finally:
            runner_mod._evaluate_payload = orig
        # pool mode collapsed, but the sweep itself survived
        assert result.mode == "parallel-degraded"
        assert len(result.results) == 4
        # the casualties are exactly the two points that kill a worker
        # (scale:network=0.5); neither ran in-process, where the killer
        # entry point is not installed and would have evaluated normally
        broken = [r for r in result.results if r.error and "BrokenProcessPool" in r.error]
        assert [r.params["scale:network"] for r in broken] == [0.5, 0.5]
        # every other point came back with a real result
        healthy = [r for r in result.results if r.error is None]
        assert [r.params["scale:network"] for r in healthy] == [1.0, 1.0]
        assert all(r.nc for r in healthy)

    def test_point_error_is_isolated(self, monkeypatch):
        spec = _spec()
        real = runner_mod.evaluate_point

        def flaky(model, params, options, seed):
            if params.get("scale:network") == 0.5:
                return {"error": "RuntimeError: injected", "elapsed": 0.0}
            return real(model, params, options, seed)

        monkeypatch.setattr(runner_mod, "evaluate_point", flaky)
        result = run_sweep(spec, jobs=1)
        assert len(result.errors) == 2
        ok = [r for r in result.results if r.error is None]
        assert len(ok) == 2 and all(r.nc is not None for r in ok)

    def test_simulate_points_carry_des_metrics(self):
        spec = _spec(simulate=True, workload=2 * MiB)
        result = run_sweep(spec, jobs=1)
        r = result.results[0]
        assert r.des is not None
        assert r.des["throughput"] > 0
        assert r.des["virtual_delay_max"] >= r.des["virtual_delay_min"] >= 0
        # DES throughput respects the NC upper bound (cross-validation)
        assert r.des["throughput"] <= r.nc["throughput_upper_bound"] * 1.01

    def test_des_seed_determinism_across_runs(self):
        spec = _spec(simulate=True, workload=2 * MiB)
        a = run_sweep(spec, jobs=1)
        b = run_sweep(spec, jobs=1)
        assert a.comparable() == b.comparable()


class _HitEverything:
    """A cache stand-in that answers every key, so a sweep evaluates
    nothing and only derives its keys."""

    def get(self, key):
        return {"nc": None, "elapsed": 0.0}


def _paper_grids():
    """Both paper apps' what-if grids, plain and packetized, as a
    benchmark sweep runs them (1,176 points)."""
    from repro.apps.bump_in_the_wire import bitw_pipeline

    blast_axes = [
        Axis("scale:ungapped_ext", (0.8, 1.25, 1.75, 2.25)),
        Axis("scale:small_ext", (0.8, 1.4, 2.0)),
        Axis("scale:network", (0.5, 1.0, 1.5, 2.0)),
        Axis("source_rate_scale", (0.5, 1.0)),
        Axis("source_burst_mib", (2.0, 8.0, 16.0, 24.0, 32.0)),
    ]
    bitw_axes = [
        Axis("scenario", ("worst", "avg", "best")),
        Axis("scale:compress", (0.5, 1.0, 1.5, 2.0)),
        Axis("scale:encrypt", (0.5, 1.0, 2.0)),
        Axis("scale:network", (0.5, 1.0, 2.0)),
    ]
    return [
        SweepSpec.from_pipeline(pipe, axes, packetized=packetized)
        for pipe, axes in ((blast_pipeline(), blast_axes), (bitw_pipeline(), bitw_axes))
        for packetized in (False, True)
    ]


class TestKeys:
    """``run_sweep`` renders the model once per sweep; its keys must stay
    the ones :func:`point_key` derives, which serve and scenarios share."""

    def _assert_keys(self, spec):
        result = run_sweep(spec, cache=_HitEverything())
        model, options = dict(spec.base), runner_mod._options_dict(spec)
        want = [point_key(model, p.params, options) for p in spec.points()]
        assert [r.key for r in result.results] == want
        assert want == [full_payload_key(model, p.params, options) for p in spec.points()]
        assert len(set(want)) == len(want)

    def test_paper_grids(self):
        specs = _paper_grids()
        assert sum(s.n_points for s in specs) == 1176
        for spec in specs:
            self._assert_keys(spec)

    def test_non_ascii_names_and_infinite_values(self):
        model = {
            "name": "Ünïcode – 流水线",
            "source": {"rate": math.inf, "burst": 1.0},
            "stages": [{"name": "étape", "avg_rate": math.inf, "min_rate": 1e-300}],
        }
        spec = SweepSpec(
            base=model,
            axes=(Axis("scale:étape", (0.5, 1.0, 2.0)), Axis("scenario", ("worst", "best"))),
            workload=1e300,
        )
        self._assert_keys(spec)


class TestWhatifGrid:
    def test_upgrade_grid_drives_sweep(self):
        grid = upgrade_grid(blast_pipeline(), ["ungapped_ext"], [1.0, 2.0])
        assert grid.n_points == 2
        lbs = [r.nc["throughput_lower_bound"] for r in grid.results]
        assert lbs[1] > lbs[0]

    def test_upgrade_grid_needs_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            upgrade_grid(blast_pipeline(), [], [1.0])


class TestStore:
    def test_artifacts_written(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path / "cache")
        result = run_sweep(spec, jobs=1, cache=cache)
        paths = write_artifacts(result, spec, tmp_path / "out")

        rows = json.loads(paths["results.json"].read_text())
        assert len(rows) == 4
        assert rows[0]["nc"]["throughput_lower_bound"] > 0

        csv_lines = paths["results.csv"].read_text().splitlines()
        assert len(csv_lines) == 5  # header + 4 points
        assert "nc:throughput_lower_bound" in csv_lines[0]
        assert "param:scale:ungapped_ext" in csv_lines[0]

        manifest = json.loads(paths["manifest.json"].read_text())
        assert manifest["pipeline"] == "BLAST"
        assert manifest["n_points"] == 4
        assert manifest["cache_misses"] == 4
        assert manifest["mode"] == "serial"
        assert len(manifest["point_timings"]) == 4
        assert {a["name"] for a in manifest["axes"]} == {
            "scale:ungapped_ext",
            "scale:network",
        }

    def test_manifest_reports_cache_hits_on_warm_run(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, jobs=1, cache=cache)
        warm = run_sweep(spec, jobs=1, cache=cache)
        paths = write_artifacts(warm, spec, tmp_path / "out")
        manifest = json.loads(paths["manifest.json"].read_text())
        assert manifest["cache_hits"] == 4 and manifest["cache_misses"] == 0
        assert manifest["compute_time"] == 0.0


class TestTelemetryInSweep:
    """Simulated sweep points carry metric summaries and a conformance
    verdict; analysis-only points carry neither."""

    def test_simulate_points_carry_metrics_and_conformance(self):
        spec = _spec(simulate=True, workload=2 * MiB)
        result = run_sweep(spec, jobs=1)
        for r in result.results:
            assert r.metrics is not None
            assert set(r.metrics) == {"job_latency", "stage_service"}
            assert r.metrics["stage_service"]  # one row per stage
            for row in r.metrics["stage_service"].values():
                assert row["count"] > 0 and row["max_s"] >= row["mean_s"]
            assert r.conformance is not None
            assert r.conformance_ok is True, r.conformance

    def test_unstable_points_check_arrivals_only(self):
        """blast is unstable (R_alpha > R_beta): the sweep's
        envelope-saturating runs exceed the transient estimates by
        design, so only the always-sound arrival check applies."""
        spec = _spec(simulate=True, workload=2 * MiB)
        r = run_sweep(spec, jobs=1).results[0]
        assert r.conformance["estimate"] is True
        assert set(r.conformance["checks"]) == {"arrival.source"}

    def test_analysis_only_points_are_unchecked(self):
        result = run_sweep(_spec(), jobs=1)
        assert all(r.metrics is None for r in result.results)
        assert all(r.conformance is None for r in result.results)
        assert all(r.conformance_ok is None for r in result.results)
        assert result.conformance_counts == (0, 0, 4)

    def test_summary_reports_hit_rate_and_conformance(self, tmp_path):
        spec = _spec(simulate=True, workload=2 * MiB)
        cache = ResultCache(tmp_path)
        run_sweep(spec, jobs=1, cache=cache)
        warm = run_sweep(spec, jobs=1, cache=cache)
        text = warm.summary()
        assert "4 hits / 0 misses" in text  # CI greps this substring
        assert "(100% hit-rate)" in text
        assert "conformance" in text and "4 pass / 0 fail" in text

    def test_conformance_survives_cache_round_trip(self, tmp_path):
        spec = _spec(simulate=True, workload=2 * MiB)
        cache = ResultCache(tmp_path)
        cold = run_sweep(spec, jobs=1, cache=cache)
        warm = run_sweep(spec, jobs=1, cache=cache)
        assert warm.cache_hits == len(warm.results)
        for a, b in zip(cold.results, warm.results):
            assert a.conformance == b.conformance
            assert a.metrics == b.metrics

    def test_artifacts_carry_conformance(self, tmp_path):
        spec = _spec(simulate=True, workload=2 * MiB)
        result = run_sweep(spec, jobs=1)
        paths = write_artifacts(result, spec, tmp_path / "out")

        header = paths["results.csv"].read_text().splitlines()[0]
        for col in ("conf:ok", "conf:estimate", "conf:n_violations"):
            assert col in header

        manifest = json.loads(paths["manifest.json"].read_text())
        assert manifest["conformance"] == {
            "passed": 4, "failed": 0, "unchecked": 0,
        }

        rows = json.loads(paths["results.json"].read_text())
        assert rows[0]["conformance"]["ok"] is True
