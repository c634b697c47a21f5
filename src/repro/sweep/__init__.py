"""Parallel design-space sweeps with content-addressed result caching.

The paper's point is *exploring* designs — job ratios, compression
scenarios, buffer sizes — with NC bounds validated by DES.  This
subsystem makes that exploration a first-class, scalable operation:

* :mod:`repro.sweep.spec`   — parameter grids over pipeline variants;
* :mod:`repro.sweep.runner` — parallel evaluation with deterministic
  per-point seeds and graceful serial fallback;
* :mod:`repro.sweep.cache`  — content-addressed result cache keyed by
  (model JSON, point, options, code version), one SQLite file;
* :mod:`repro.sweep.store`  — JSON/CSV artifacts plus a run manifest.

Typical flow::

    from repro.sweep import Axis, SweepSpec, ResultCache, run_sweep, write_artifacts

    spec = SweepSpec.from_pipeline(pipe, [Axis("scale:network", (0.5, 1.0, 2.0))])
    with ResultCache(".sweep-cache") as cache:
        result = run_sweep(spec, jobs=4, cache=cache)
    write_artifacts(result, spec, "out/")
"""

from .cache import CACHE_SCHEMA_VERSION, ResultCache, canonical_json, point_key
from .runner import (
    DEFAULT_SIM_WORKLOAD,
    PointResult,
    SweepResult,
    evaluate_point,
    point_seed,
    run_sweep,
)
from .spec import Axis, SweepPoint, SweepSpec, parse_grid_arg
from .store import result_rows, write_artifacts

__all__ = [
    "Axis",
    "SweepPoint",
    "SweepSpec",
    "parse_grid_arg",
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "canonical_json",
    "point_key",
    "DEFAULT_SIM_WORKLOAD",
    "PointResult",
    "SweepResult",
    "evaluate_point",
    "point_seed",
    "run_sweep",
    "result_rows",
    "write_artifacts",
]
