"""Tests for sweep execution: serial/parallel/cached identity, fallback,
per-point seeds, artifact store."""

import contextlib
import json
import math
import multiprocessing
import os
import signal

import pytest

from repro import _worker
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
from repro.sweep.runner import evaluate_point
from repro.units import MiB

from .test_cache import full_payload_key


def _spec(simulate=False, workload=None):
    return SweepSpec.from_pipeline(
        blast_pipeline(),
        [Axis("scale:ungapped_ext", (1.0, 2.0)), Axis("scale:network", (0.5, 1.0))],
        simulate=simulate,
        workload=workload,
    )


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=True) not in (None, "fork"),
    reason="worker-death injection relies on the fork start method",
)


def _killing_evaluate_point(model, params, options, seed):
    """Worker entry point that hard-kills its worker on one param combo.

    Module level so it pickles by name; ``os._exit`` (not an exception)
    so the worker process dies without cleanup, which is what the OOM
    killer or a segfault looks like from the parent's side.  It only
    ever kills a worker: run in the test process it evaluates normally.
    """
    if params.get("scale:network") == 0.5 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return evaluate_point(model, params, options, seed)


def _logging_evaluate_point(model, params, options, seed):
    """Worker entry point that appends point ``params["k"]`` to the file
    ``options["log"]`` as it starts.  In a worker, point 1 kills its
    worker once point 3 has started, and point 3 takes 1 s."""
    import time
    from pathlib import Path

    log = Path(options["log"])
    with log.open("a") as f:  # one short append per start: lines never interleave
        f.write(f"{params['k']}\n")
    if params["k"] == 1 and multiprocessing.parent_process() is not None:
        deadline = time.monotonic() + 30.0
        while "3" not in log.read_text().split() and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)
    if params["k"] == 3:
        time.sleep(1.0)
    return {"nc": {"k": params["k"]}, "elapsed": 0.0}


def _tail_evaluate_point(model, params, options, seed):
    """Worker entry point that logs ``start k`` and ``end k`` for point
    ``params["k"]`` to the file ``options["log"]``.  In a worker, point 0
    waits until every point from 2 on has ended, so that the other
    worker is idle, and then fails as ``options["fault"]`` says:
    ``"exit"`` kills its worker, ``"raise"`` raises."""
    import time
    from pathlib import Path

    log, k = Path(options["log"]), params["k"]
    with log.open("a") as f:
        f.write(f"start {k}\n")
    if k == 0 and multiprocessing.parent_process() is not None:
        others = {f"end {j}" for j in range(2, options["n"])}
        deadline = time.monotonic() + 30.0
        while not others <= set(log.read_text().splitlines()):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        time.sleep(0.3)  # the last answer reaches the caller first
        if options["fault"] == "exit":
            os._exit(1)
        raise RuntimeError("injected")
    with log.open("a") as f:
        f.write(f"end {k}\n")
    return {"nc": {"k": k}, "elapsed": 0.0}


def _die_booting(sock):
    """A worker body that exits before it says it has booted."""
    os._exit(1)


def _refuse_to_load():
    raise ValueError("cannot be read here")


class _Unreadable:
    """An argument that pickles but cannot be unpickled."""

    def __reduce__(self):
        return (_refuse_to_load, ())


@contextlib.contextmanager
def _within(seconds):
    """Raise ``TimeoutError`` here after ``seconds``, so that a batch
    that hangs fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        assert parallel.mode == "parallel"
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

        def boom(name):
            raise OSError("no worker for you")

        monkeypatch.setattr(_worker, "start", boom)
        result = run_sweep(spec, jobs=4)
        assert result.mode == "parallel-degraded"
        assert len(result.results) == 4
        assert not result.errors
        assert result.comparable() == run_sweep(spec, jobs=1).comparable()

    @fork_only
    def test_workers_that_cannot_boot_leave_the_sweep_to_serial(self, monkeypatch):
        boots = multiprocessing.Value("i", 0)

        def main(sock):
            with boots.get_lock():
                boots.value += 1
            os._exit(1)

        monkeypatch.setattr(_worker, "main", main)
        spec = _spec()
        result = run_sweep(spec, jobs=2)
        assert result.mode == "parallel-degraded"
        assert not result.errors
        assert result.comparable() == run_sweep(spec, jobs=1).comparable()
        # a worker that dies before it boots is not replaced
        assert boots.value <= 2

    @fork_only
    def test_worker_death_marks_point_failed_and_continues(self, monkeypatch):
        spec = _spec()
        monkeypatch.setattr(runner_mod, "evaluate_point", _killing_evaluate_point)
        result = run_sweep(spec, jobs=2)
        # pool mode collapsed, but the sweep itself survived
        assert result.mode == "parallel-degraded"
        assert len(result.results) == 4
        # the casualties are exactly the two points that kill a worker
        # (scale:network=0.5); neither ran in-process, where the killer
        # entry point evaluates normally
        broken = [r for r in result.results if r.error and "WorkerDied" in r.error]
        assert [r.params["scale:network"] for r in broken] == [0.5, 0.5]
        # every other point came back with a real result
        healthy = [r for r in result.results if r.error is None]
        assert [r.params["scale:network"] for r in healthy] == [1.0, 1.0]
        assert all(r.nc for r in healthy)

    @fork_only
    def test_a_death_costs_its_point_alone_and_every_point_starts_once(
        self, monkeypatch, tmp_path
    ):
        log = tmp_path / "starts.log"
        log.touch()
        monkeypatch.setattr(runner_mod, "evaluate_point", _logging_evaluate_point)
        # 24 points on 2 workers: the first two messages carry 3 points
        # each (ceil(24/8), ceil(21/8)); point 1 kills its worker in the
        # middle of the first, while point 3 (the second's first) runs
        # on the other worker
        payloads = [({}, {"k": k}, {"log": str(log)}, 0) for k in range(24)]
        outs, cached, mode = runner_mod.evaluate_points(
            payloads, [f"key-{k}" for k in range(24)], jobs=2
        )
        starts = sorted(int(k) for k in log.read_text().split())
        assert starts == list(range(24))  # killer and slow point included
        assert mode == "parallel-degraded"
        assert "WorkerDied" in outs[1]["error"]
        assert [out["nc"] for k, out in enumerate(outs) if k != 1] == [
            {"k": k} for k in range(24) if k != 1
        ]

    @fork_only
    @pytest.mark.parametrize(
        "fault, replacement",
        [("exit", "cannot_start"), ("exit", "dies_booting"), ("raise", None)],
    )
    def test_an_idle_worker_takes_what_a_failing_one_leaves(
        self, monkeypatch, tmp_path, fault, replacement
    ):
        log = tmp_path / "starts.log"
        log.touch()
        monkeypatch.setattr(runner_mod, "evaluate_point", _tail_evaluate_point)
        real_start, started = _worker.start, []

        def start(name):
            started.append(name)
            if len(started) == 3:  # the worker that replaces a dead one
                if replacement == "cannot_start":
                    raise OSError("out of processes")
                monkeypatch.setattr(_worker, "main", _die_booting)
            return real_start(name)

        monkeypatch.setattr(_worker, "start", start)
        # 9 points on 2 workers: points 0 and 1 go in one message
        # (ceil(9/8)), every later point alone; point 0 fails once the
        # other worker has run them all and is idle
        n = 9
        options = {"log": str(log), "n": n, "fault": fault}
        payloads = [({}, {"k": k}, options, 0) for k in range(n)]
        with _within(60):
            outs, _, mode = runner_mod.evaluate_points(
                payloads, [f"key-{k}" for k in range(n)], jobs=2
            )
        assert mode == "parallel-degraded"
        starts = sorted(
            int(line.split()[1])
            for line in log.read_text().splitlines()
            if line.startswith("start")
        )
        if fault == "exit":
            assert "WorkerDied" in outs[0]["error"]
            assert starts == list(range(n))
            assert len(started) == 3
            answered = range(1, n)
        else:  # answered as raised, so evaluated again in-process
            assert starts == sorted([0, *range(n)])
            assert len(started) == 2
            answered = range(n)
        assert [outs[k]["nc"] for k in answered] == [{"k": k} for k in answered]

    @fork_only
    def test_a_message_a_worker_cannot_read_is_answered_call_by_call(
        self, monkeypatch
    ):
        real_start, started = _worker.start, []

        def start(name):
            started.append(name)
            return real_start(name)

        monkeypatch.setattr(_worker, "start", start)
        calls = [(-k,) for k in range(8)]
        calls[2] = (_Unreadable(),)
        # one worker gets 8 calls as [0, 1], [2, 3], [4], [5], [6], [7]
        with _within(60):
            answers = _worker.run_batch(abs, calls, 1)
        assert [ok for ok, _ in map(answers.get, range(8))] == [
            i not in (2, 3) for i in range(8)
        ]
        assert all(isinstance(answers[i][1], ValueError) for i in (2, 3))
        assert [answers[i][1] for i in (0, 1, 4, 5, 6, 7)] == [0, 1, 4, 5, 6, 7]
        assert len(started) == 1  # that worker went on

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


#: one invalid value per axis kind and the per-point error text it has
#: always produced on BLAST.  The ``queue_mib`` and ``scenario`` rows
#: give the texts of the DES run, the one path that checked them before:
#: an NC-only point used to answer them as the unchanged base model
INVALID_POINTS = [
    ({"scale:network": -1.0}, "ValueError: factor must be > 0, got -1.0"),
    ({"scale:network": 1e308}, "ValueError: avg_rate must be finite, got inf"),
    ({"scale:ungapped_ext": 1e-320}, "ValueError: exec_time_min must be finite, got inf"),
    ({"scale:nosuch": 2.0}, "KeyError: \"no stage named 'nosuch' in pipeline 'BLAST'\""),
    ({"job_scale:compose": -1.0}, "ValueError: job_bytes must be > 0, got -4194304.0"),
    ({"job_scale:compose": 1e308}, "ValueError: job_bytes must be finite, got inf"),
    ({"job_scale:nosuch": 2.0}, "KeyError: \"no stage named 'nosuch' in pipeline 'BLAST'\""),
    ({"source_rate_scale": 1e308}, "ValueError: rate must be finite, got inf"),
    ({"source_rate_scale": -1.0}, "ValueError: rate must be > 0, got -738197504.0"),
    ({"source_burst_mib": -1}, "ValueError: burst must be >= 0, got -1048576.0"),
    ({"workload_mib": -1}, "ValueError: workload must be > 0, got -1048576.0"),
    ({"workload_mib": 1e308}, "ValueError: workload must be finite, got inf"),
    ({"queue_mib:nosuch": 1.0}, "KeyError: \"queue bounds for unknown stages: ['nosuch']\""),
    ({"queue_mib:network": -1.0}, "ValueError: queue_bytes must be positive (inf for unbounded)"),
    ({"scenario": "bogus"}, "ValueError: unknown scenario 'bogus'"),
]


def _blast_model(kind):
    """BLAST as the serve pool sends it (its document) or as a sweep
    hands it to each point (the parsed pipeline)."""
    spec = SweepSpec.from_pipeline(blast_pipeline(), ())
    return spec.base if kind == "document" else spec.pipeline


def _options(simulate):
    return {"simulate": simulate, "packetized": False,
            "workload": 1 * MiB if simulate else None, "base_seed": 42}


@pytest.mark.parametrize("kind", ["document", "pipeline"])
@pytest.mark.parametrize("simulate", [False, True], ids=["nc", "des"])
class TestPointErrors:
    @pytest.mark.parametrize("params,error", INVALID_POINTS, ids=lambda v: str(v)[:40])
    def test_invalid_value_keeps_its_error_text(self, params, error, simulate, kind):
        out = runner_mod.evaluate_point(_blast_model(kind), params, _options(simulate), 7)
        assert out["error"] == error

    def test_unknown_axis_fails_the_point(self, simulate, kind):
        out = runner_mod.evaluate_point(_blast_model(kind), {"foo": 1.0}, _options(simulate), 7)
        assert out["error"] == (
            "ValueError: unknown axis 'foo'; expected one of source_rate_scale, "
            "source_burst_mib, scenario, workload_mib or "
            "<scale/job_scale/queue_mib>:<stage>"
        )


class TestPointErrorsInSweeps:
    def test_sweep_points_fail_with_the_same_text(self):
        spec = SweepSpec.from_pipeline(
            blast_pipeline(), [Axis("scale:network", (1.0, 1e308))]
        )
        errors = [r.error for r in run_sweep(spec).results]
        assert errors == [None, "ValueError: avg_rate must be finite, got inf"]


class TestParseOnce:
    def test_a_sweep_parses_its_base_once(self, monkeypatch, tmp_path):
        import repro.sweep.spec as spec_mod

        parsed = []
        real = spec_mod.pipeline_from_dict

        def spy(data):
            parsed.append(data["name"])
            return real(data)

        monkeypatch.setattr(spec_mod, "pipeline_from_dict", spy)
        result = run_sweep(_spec(), cache=ResultCache(tmp_path))
        assert result.cache_misses == 4 and not result.errors
        assert parsed == ["BLAST"]

    def test_a_base_that_does_not_parse_fails_each_evaluated_point(self):
        model = {
            "name": "m",
            "source": {"rate": math.inf},
            "stages": [{"name": "a", "avg_rate": 1.0}],
        }
        spec = SweepSpec(base=model, axes=(Axis("scale:a", (1.0, 2.0)),))
        errors = [r.error for r in run_sweep(spec).results]
        assert errors == ["ValueError: rate must be finite, got inf"] * 2


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
