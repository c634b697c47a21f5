"""Runner, judge, report, and CLI tests for the scenario harness."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.scenarios import (
    Expectations,
    ScenarioSpec,
    catalog_to_json,
    evaluate_scenario,
    judge_scenario,
    load_catalog_json,
    quick_catalog,
    render_catalog_markdown,
    render_scenario_markdown,
    run_catalog,
    write_reports,
)
from repro.sweep import ResultCache
from repro.units import KiB, MiB


def _killer_payload(payload):
    """Pool entry point that hard-kills the worker on the ``victim`` model.

    Module level so it pickles; ``os._exit`` so the worker dies the way
    an OOM kill or a segfault looks from the parent.  It only ever
    kills a pool worker: run in the test process it evaluates normally.
    """
    import multiprocessing
    import os

    from repro.sweep.runner import evaluate_point

    model, params, options, seed = payload
    if model["name"] == "victim" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return evaluate_point(model, params, options, seed)


def _single_stage_spec(name="unit", **expect):
    """A tiny, fast scenario with exact hand-derived closed forms."""
    r_a, b, r_s, t, j = 100 * MiB, 1 * MiB, 200 * MiB, 2e-3, 256 * KiB
    return ScenarioSpec(
        name=name,
        family="custom",
        pipeline={
            "name": name,
            "source": {"rate": r_a, "burst": b, "packet_bytes": 64 * KiB},
            "stages": [{
                "name": "node", "avg_rate": r_s, "min_rate": r_s,
                "max_rate": r_s, "latency": t, "job_bytes": j,
            }],
        },
        workload=4 * MiB,
        expect=Expectations(**(expect or {
            "stable": True,
            "conformance": True,
            "delay_bound": t + b / r_s,
            "backlog_bound": b + r_a * t,
        })),
    )


class TestEvaluateAndJudge:
    def test_passing_scenario(self):
        result = evaluate_scenario(_single_stage_spec())
        assert result.ok, [c.describe() for c in result.failures]
        assert {c.name for c in result.checks} == {
            "stable", "conformance", "delay_bound", "backlog_bound",
        }
        assert result.nc["stable"] is True
        assert result.conformance["ok"] is True

    def test_wrong_closed_form_fails_with_named_check(self):
        spec = _single_stage_spec(name="wrong", stable=True, delay_bound=123.456)
        result = evaluate_scenario(spec)
        assert not result.ok
        assert [c.name for c in result.failures] == ["delay_bound"]
        assert "delay_bound" in result.failures[0].describe()

    def test_rtol_loosens_the_comparison(self):
        exact = 2e-3 + (1 * MiB) / (200 * MiB)
        strict = _single_stage_spec(
            name="strict", stable=True, delay_bound=exact * 1.0001)
        loose = dataclasses.replace(
            strict, expect=dataclasses.replace(strict.expect, rtol=1e-3))
        assert not evaluate_scenario(strict).ok
        assert evaluate_scenario(loose).ok

    def test_expected_instability_can_pass(self):
        spec = _single_stage_spec(name="unstable", stable=False)
        spec = dataclasses.replace(
            spec,
            pipeline={**dict(spec.pipeline),
                      "source": {"rate": 300 * MiB, "burst": 0.0,
                                 "packet_bytes": 64 * KiB}},
        )
        result = evaluate_scenario(spec)
        assert result.nc["stable"] is False
        assert result.ok

    def test_judge_surfaces_evaluation_errors(self):
        spec = _single_stage_spec()
        result = judge_scenario(
            spec, {"error": "RuntimeError: boom", "elapsed": 0.0},
            key="k", cached=False)
        assert not result.ok
        assert result.error == "RuntimeError: boom"
        assert result.checks == ()


class TestRunCatalog:
    def test_quick_subset_passes_and_caches(self, tmp_path):
        specs = quick_catalog(per_family=1)
        cache = ResultCache(tmp_path / "cache")
        cold = run_catalog(specs, cache=cache)
        assert cold.ok, cold.summary()
        assert cold.cache_misses == len(specs) and cold.cache_hits == 0

        warm = run_catalog(specs, cache=cache)
        assert warm.ok
        assert warm.cache_hits == len(specs) and warm.cache_misses == 0
        for a, b in zip(cold.results, warm.results):
            assert [c.to_dict() for c in a.checks] == [c.to_dict() for c in b.checks]
            assert b.cached

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method(allow_none=True) not in (None, "fork"),
        reason="worker-death injection relies on the fork start method",
    )
    def test_worker_death_marks_scenario_failed_and_continues(self, monkeypatch, tmp_path):
        import repro.sweep.runner as sweep_runner

        monkeypatch.setattr(sweep_runner, "_evaluate_payload", _killer_payload)
        # the victim goes first here; the next test puts it between two
        # siblings that break with the pool too
        names = ["victim", "second", "third"]
        specs = [_single_stage_spec(name=n) for n in names]
        cache = ResultCache(tmp_path / "cache")
        result = run_catalog(specs, jobs=2, cache=cache)
        # pool mode collapsed, but the catalog itself survived
        assert result.mode == "parallel-degraded"
        assert [r.spec.name for r in result.results] == names
        # exactly one casualty, not rerun in-process: the scenario the
        # worker died on
        broken = [r for r in result.results if r.error and "BrokenProcessPool" in r.error]
        assert [r.spec.name for r in broken] == ["victim"]
        # every sibling was evaluated (in the pool or serially) and passed
        assert [r.spec.name for r in result.results if r.ok] == ["second", "third"]
        # the casualty is not cached: a later run evaluates it again
        assert len(cache) == 2

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method(allow_none=True) not in (None, "fork"),
        reason="worker-death injection relies on the fork start method",
    )
    def test_worker_death_is_charged_to_the_scenario_that_killed_it(self, monkeypatch):
        import repro.sweep.runner as sweep_runner

        monkeypatch.setattr(sweep_runner, "_evaluate_payload", _killer_payload)
        # "first" is still running (or queued) when "victim" kills its
        # worker, so "first" breaks with the pool too; only a rerun on a
        # one-worker pool tells the two apart
        names = ["first", "victim", "last"]
        result = run_catalog([_single_stage_spec(name=n) for n in names], jobs=2)
        assert result.mode == "parallel-degraded"
        broken = [r.spec.name for r in result.results
                  if r.error and "BrokenProcessPool" in r.error]
        assert broken == ["victim"]
        assert [r.spec.name for r in result.results if r.ok] == ["first", "last"]

    def test_duplicate_names_rejected(self):
        spec = _single_stage_spec()
        with pytest.raises(ValueError, match="duplicate"):
            run_catalog([spec, spec])

    def test_failure_is_counted_not_raised(self):
        good = _single_stage_spec(name="good", stable=True)
        bad = _single_stage_spec(name="bad", stable=True, delay_bound=1e9)
        result = run_catalog([good, bad])
        assert not result.ok
        assert [r.spec.name for r in result.failures] == ["bad"]
        assert result.family_counts() == {"custom": (1, 1)}
        assert "FAIL bad" in result.summary()


class TestReports:
    def test_report_roundtrip(self, tmp_path):
        result = run_catalog([_single_stage_spec()])
        json_path = write_reports(result, tmp_path / "out")
        data = load_catalog_json(json_path)
        assert data["summary"]["scenarios"] == 1
        assert data["summary"]["failed"] == 0
        assert (tmp_path / "out" / "catalog.md").exists()
        assert (tmp_path / "out" / "scenarios" / "unit.md").exists()

        md = render_catalog_markdown(data)
        assert "1 pass / 0 fail" in md
        page = render_scenario_markdown(data["scenarios"][0])
        assert "PASS" in page and "delay" in page

    def test_schema_tag_checked(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ValueError, match="schema"):
            load_catalog_json(path)

    def test_json_document_is_json_able(self):
        result = run_catalog([_single_stage_spec()])
        json.dumps(catalog_to_json(result))  # must not raise


class TestCli:
    def test_list(self, capsys):
        assert main(["scenarios", "list", "--family", "classic"]) == 0
        out = capsys.readouterr().out
        assert "classic-single-rl" in out and "scenarios:" in out

    def test_run_by_name_writes_artifacts(self, tmp_path, capsys):
        status = main([
            "scenarios", "run", "--name", "classic-single-rl",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "1 pass / 0 fail" in out
        assert (tmp_path / "out" / "catalog.json").exists()

        # report re-renders from the JSON without re-running
        assert main(["scenarios", "report", str(tmp_path / "out")]) == 0
        assert "scenario catalog report" in capsys.readouterr().out

    def test_run_exits_nonzero_on_violation(self, tmp_path, capsys):
        scenario = tmp_path / "bad.toml"
        scenario.write_text("""
name = "cli-bad"
workload_mib = 2.0
[source]
rate = 100e6
[[stages]]
name = "node"
avg_rate = 200e6
job_bytes = 65536
[expect]
stable = true
conformance = true
delay_bound = 42.0
""")
        status = main(["scenarios", "run", "--name", "classic-single-rl",
                       "--file", str(scenario)])
        out = capsys.readouterr().out
        assert status == 1
        assert "FAIL cli-bad" in out and "delay_bound" in out

    def test_run_rejects_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenarios", "run", "--name", "no-such-scenario"])

    def test_run_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = \n")
        with pytest.raises(SystemExit, match="invalid scenario file"):
            main(["scenarios", "run", "--name", "classic-single-rl",
                  "--file", str(path)])
