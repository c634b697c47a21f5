"""Tests for visualization, CSV export, figure builders, and the CLI."""

import numpy as np
import pytest

from repro.units import MiB
from repro.viz import ascii_plot, figure1, figure4, figure10, series_to_csv, write_series_csv


class TestAsciiPlot:
    def test_basic_render(self):
        out = ascii_plot(
            {"line": ([0, 1, 2], [0, 1, 4])},
            width=20,
            height=6,
            title="t",
            xlabel="x",
            ylabel="y",
        )
        assert "t" in out
        assert "* line" in out
        assert "x: [0, 2] x" in out

    def test_multiple_series_get_distinct_markers(self):
        out = ascii_plot({"a": ([0, 1], [0, 1]), "b": ([0, 1], [1, 0])}, width=20, height=5)
        assert "* a" in out and "o b" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot({}, width=20, height=5)
        with pytest.raises(ValueError):
            ascii_plot({"a": ([0], [0])}, width=5, height=2)

    def test_flat_series_ok(self):
        out = ascii_plot({"flat": ([0, 1], [3, 3])}, width=20, height=5)
        assert "flat" in out


class TestCsv:
    def test_long_format(self):
        csv = series_to_csv({"s": ([0.0, 1.0], [2.0, 3.0])})
        lines = csv.strip().splitlines()
        assert lines[0] == "series,x,y"
        assert lines[1].startswith("s,0.0,")
        assert len(lines) == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            series_to_csv({"s": ([0.0], [1.0, 2.0])})

    def test_write(self, tmp_path):
        p = write_series_csv({"s": ([0.0], [1.0])}, tmp_path / "out.csv")
        assert p.read_text().startswith("series,x,y")

    def test_rows_wide_format(self):
        from repro.viz.csvout import rows_to_csv

        text = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b,c"  # union of keys, first-appearance order
        assert lines[1] == "1,2.5,"
        assert lines[2] == "3,,x"

    def test_rows_empty_rejected(self):
        from repro.viz.csvout import rows_to_csv

        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_write_rows(self, tmp_path):
        from repro.viz.csvout import write_rows_csv

        p = write_rows_csv([{"k": 1}], tmp_path / "rows.csv")
        assert p.read_text().startswith("k")


class TestFigures:
    def test_figure1_annotations(self):
        fig = figure1()
        assert fig.annotations["virtual_delay_d"] == pytest.approx(0.05 + 8 / 150)
        assert fig.annotations["backlog_x"] == pytest.approx(8 + 100 * 0.05)
        assert set(fig.series) == {"alpha", "beta", "gamma", "alpha*"}
        text = fig.ascii(width=40, height=8)
        assert "annotations:" in text

    def test_figure4_sandwich(self):
        fig = figure4(workload=64 * MiB)
        sim_t, sim_y = fig.series["simulation"]
        a = np.interp(sim_t, *fig.series["alpha(t)"])
        b = np.interp(sim_t, *fig.series["beta'(t)"])
        assert np.all(sim_y <= a * 1.001 + 0.1)
        assert np.all(sim_y >= b * 0.999 - 0.1)

    def test_figure10_sandwich(self):
        fig = figure10(workload=1 * MiB)
        sim_t, sim_y = fig.series["simulation"]
        a = np.interp(sim_t, *fig.series["alpha(t)"])
        b = np.interp(sim_t, *fig.series["beta'(t)"])
        assert np.all(sim_y <= a * 1.001 + 0.01)
        assert np.all(sim_y >= b * 0.999 - 0.01)

    def test_figure_csv_round_trip(self, tmp_path):
        fig = figure1()
        path = fig.write_csv(tmp_path / "fig1.csv")
        assert path.exists()
        assert "alpha" in path.read_text()


class TestCli:
    def test_analyze(self, capsys):
        from repro.cli import main

        assert main(["analyze", "bitw"]) == 0
        out = capsys.readouterr().out
        assert "network calculus analysis" in out
        assert "313 MiB/s" in out

    def test_simulate(self, capsys):
        from repro.cli import main

        assert main(["simulate", "bitw", "--workload-mib", "1"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "observed virtual delay" in out

    def test_reproduce_table(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "paper" in out

    def test_reproduce_figure_with_csv(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["reproduce", "fig1", "--csv-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert (tmp_path / "fig1.csv").exists()

    def test_buffers(self, capsys):
        from repro.cli import main

        assert main(["buffers", "bitw"]) == 0
        assert "buffer plan" in capsys.readouterr().out

    def test_bad_command(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_version(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestCliModelFiles:
    def test_export_and_analyze_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bitw.json"
        assert main(["export", "bitw", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["analyze", "file", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bump-in-the-wire" in out

    def test_simulate_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bitw.json"
        main(["export", "bitw", str(path)])
        capsys.readouterr()
        assert main(["simulate", "file", "--file", str(path), "--workload-mib", "0.5"]) == 0
        assert "throughput" in capsys.readouterr().out

    def test_file_requires_path(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["analyze", "file"])

    def test_export_analyze_round_trip_matches_builtin(self, capsys, tmp_path):
        """`repro export` -> `repro analyze file` reproduces the built-in
        analysis bounds (the JSON document loses nothing the model uses).

        The built-in command additionally reports finite-workload bounds
        (it passes a default workload), so compare the headline lines
        every mode prints rather than the whole report.
        """
        from repro.cli import main

        def headline(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith(("throughput", "virtual delay", "backlog", "  "))
            ]

        main(["analyze", "bitw"])
        direct = capsys.readouterr().out
        path = tmp_path / "bitw.json"
        main(["export", "bitw", str(path)])
        capsys.readouterr()
        main(["analyze", "file", "--file", str(path)])
        via_file = capsys.readouterr().out
        assert headline(via_file) == headline(direct)
        assert headline(direct)  # sanity: the comparison is not vacuous

    def test_malformed_model_file_is_clean_error(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",')
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "file", "--file", str(bad)])
        assert "invalid model file" in str(exc.value)
        assert "not valid JSON" in str(exc.value)

    def test_missing_model_file_is_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["analyze", "file", "--file", str(tmp_path / "nope.json")])
        assert "not found" in str(exc.value)


class TestCliSweep:
    def test_sweep_blast_with_cache_and_artifacts(self, capsys, tmp_path):
        import json

        from repro.cli import main

        argv = [
            "sweep", "blast",
            "--grid", "scale:ungapped_ext=1,2",
            "--grid", "scale:network=0.5,1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "points             4" in cold
        assert "0 hits / 4 misses" in cold
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["cache_misses"] == 4

        # warm run: every point served from the cache, results identical
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "4 hits / 0 misses" in warm
        assert "(cached)" in warm
        cold_rows = json.loads((tmp_path / "out" / "results.json").read_text())
        for row in cold_rows:
            assert row["nc"]["throughput_lower_bound"] > 0

    def test_sweep_file_app(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bitw.json"
        main(["export", "bitw", str(path)])
        capsys.readouterr()
        assert main(["sweep", "file", "--file", str(path), "--grid", "source_rate_scale=0.5,1"]) == 0
        out = capsys.readouterr().out
        assert "points             2" in out

    def test_sweep_bad_grid_is_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "blast", "--grid", "bogus=1,2"])
        assert "bad sweep grid" in str(exc.value)

    def test_sweep_unknown_stage_is_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "blast", "--grid", "scale:nope=1,2"])
        assert "bad sweep grid" in str(exc.value)


class TestAsciiHistogram:
    def _buckets(self):
        import math

        return [(-math.inf, 1.0, 2), (1.0, 2.0, 10), (2.0, math.inf, 1)]

    def test_renders_edges_counts_and_bars(self):
        from repro.viz import ascii_histogram

        out = ascii_histogram(self._buckets(), title="lat")
        assert "lat" in out
        assert "[-inf, 1)" in out  # open-ended buckets spelled out
        assert "[1, 2)" in out and "[2, +inf)" in out
        lines = [l for l in out.splitlines() if "#" in l]
        assert len(lines) == 3
        # the peak bucket owns the longest bar
        peak = max(lines, key=lambda l: l.count("#"))
        assert "[1, 2)" in peak

    def test_zero_count_bucket_gets_no_bar(self):
        from repro.viz import ascii_histogram

        out = ascii_histogram([(0.0, 1.0, 0), (1.0, 2.0, 5)])
        zero_line = next(l for l in out.splitlines() if "[0, 1)" in l)
        assert "#" not in zero_line

    def test_custom_edge_format(self):
        from repro.viz import ascii_histogram

        out = ascii_histogram(
            [(0.001, 0.01, 3)], fmt=lambda v: f"{v * 1e3:g}ms"
        )
        assert "[1ms, 10ms)" in out

    def test_empty_and_invalid(self):
        from repro.viz import ascii_histogram

        assert "(no samples)" in ascii_histogram([])
        with pytest.raises(ValueError):
            ascii_histogram(self._buckets(), width=0)
        with pytest.raises(ValueError):
            ascii_histogram([(0.0, 1.0, -1)])

    def test_bar_scaling_is_relative_to_peak(self):
        from repro.viz import ascii_histogram

        out = ascii_histogram([(0.0, 1.0, 1), (1.0, 2.0, 100)], width=40)
        small = next(l for l in out.splitlines() if "[0, 1)" in l)
        big = next(l for l in out.splitlines() if "[1, 2)" in l)
        assert big.count("#") == 40
        assert small.count("#") == 1  # nonzero counts always visible


class TestCliTelemetry:
    def test_simulate_trace_writes_valid_artifact(self, capsys, tmp_path):
        import json

        from repro.cli import main
        from tests.telemetry.test_trace import validate_chrome_trace

        path = tmp_path / "trace.json"
        argv = [
            "simulate", "bitw", "--workload-mib", "1",
            "--trace", str(path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and str(path) in out
        validate_chrome_trace(json.loads(path.read_text()))

    def test_simulate_metrics_prints_histograms(self, capsys):
        from repro.cli import main

        argv = ["simulate", "bitw", "--workload-mib", "1", "--metrics"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "job.latency_s" in out
        assert "#" in out

    @pytest.mark.parametrize("app", ["blast", "bitw"])
    def test_conformance_apps_pass(self, app, capsys):
        """Acceptance criterion: both paper parameterizations conform."""
        from repro.cli import main

        assert main(["conformance", app]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "delay.end_to_end" in out

    def test_conformance_file_app(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "bitw.json"
        main(["export", "bitw", str(path)])
        capsys.readouterr()
        argv = [
            "conformance", "file", "--file", str(path),
            "--workload-mib", "1",
        ]
        status = main(argv)
        out = capsys.readouterr().out
        assert "verdict:" in out
        assert status in (0, 1)

    def test_conformance_failure_exits_nonzero(self, capsys, monkeypatch):
        """A violated bound must flip the exit code (CI contract)."""
        import repro.apps.blast as blast_mod
        from repro.cli import main
        from repro.telemetry import ConformanceReport, Violation
        from repro.telemetry.conformance import CheckResult

        bad = CheckResult(
            name="delay.end_to_end",
            stage="end-to-end",
            bound=1e-9,
            worst_observed=1.0,
            n_observations=1,
            violations=(
                Violation(
                    check="delay.end_to_end", stage="end-to-end",
                    time=1.0, observed=1.0, bound=1e-9,
                ),
            ),
        )
        report = ConformanceReport("x", False, (bad,))
        monkeypatch.setattr(
            blast_mod, "blast_conformance", lambda **kw: report
        )
        assert main(["conformance", "blast"]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out


class TestCliCache:
    def _fill(self, tmp_path):
        from repro.sweep import ResultCache, point_key

        cache = ResultCache(tmp_path)
        model = {"name": "m", "source": {"rate": 1.0}, "stages": []}
        opts = {"simulate": False, "packetized": False, "workload": None,
                "base_seed": 42}
        for i in range(3):
            cache.put(point_key(model, {"x": float(i)}, opts), {"nc": {"i": i}})

    def test_stats(self, capsys, tmp_path):
        from repro.cli import main

        self._fill(tmp_path)
        assert main(["cache", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries            3" in out
        assert "oldest entry" in out

    def test_clear(self, capsys, tmp_path):
        from repro.cli import main

        self._fill(tmp_path)
        assert main(["cache", str(tmp_path), "--clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 3 entries" in out
        assert "entries            0" in out

    def test_max_age_keeps_fresh_entries(self, capsys, tmp_path):
        from repro.cli import main

        self._fill(tmp_path)
        assert main(["cache", str(tmp_path), "--max-age", "3600"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries" in out
        assert "entries            3" in out

    def test_clear_and_max_age_conflict(self, tmp_path):
        from repro.cli import main

        self._fill(tmp_path)
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["cache", str(tmp_path), "--clear", "--max-age", "1"])

    def test_missing_directory_is_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="not a cache directory"):
            main(["cache", str(tmp_path / "nope"), "--stats"])

    def test_directory_without_a_store_is_an_error_and_stays_untouched(self, tmp_path):
        from repro.cli import main

        (tmp_path / "ab").mkdir()  # e.g. a fan-out cache of an older release
        (tmp_path / "ab" / "abc.json").write_text("{}")
        for flags in (["--stats"], ["--clear"], ["--max-age", "1"]):
            with pytest.raises(SystemExit, match="not a cache directory"):
                main(["cache", str(tmp_path), *flags])
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "ab", "ab/abc.json",
        ]


class TestCliRequest:
    def test_unreachable_server_is_clean_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot reach server"):
            main(["request", "ping", "--port", "1", "--timeout", "1"])

    def test_analyze_requires_model_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="needs --app or --file"):
            main(["request", "analyze", "--port", "1"])

    def test_serve_help_lists_no_coalescing_flags(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--timeout-s" in out
        assert "--batch-window-ms" not in out and "--max-batch" not in out

    def test_request_and_cluster_request_share_one_path(self, capsys):
        import json

        from repro.cli import main
        from repro.serve import ServeConfig, ServerThread

        with ServerThread(ServeConfig(port=0, workers=1, calibrate=0)) as srv:
            capsys.readouterr()  # the server's listening line
            where = ["--host", srv.host, "--port", str(srv.port)]
            params = ["--app", "blast", "--param", "scale:network=2.0"]
            assert main(["cluster", "request", "analyze", *params, *where]) == 0
            first = json.loads(capsys.readouterr().out)
            assert main(["request", "analyze", *params, *where]) == 0
            second = json.loads(capsys.readouterr().out)
            srv.stop()
        assert first["ok"] and second["ok"]
        assert second["result"]["nc"] == first["result"]["nc"]

    def test_register_tenant_without_rate_is_a_usage_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="register-tenant needs --tenant, --rate and --burst"):
            main(["cluster", "request", "register-tenant", "--tenant", "acme",
                  "--burst", "5", "--port", "1"])
