"""Artifact store: durable, machine-readable sweep outputs.

One sweep run writes three files into its output directory:

``results.json``
    every point's parameters, seed, cache key, timings and metrics —
    the full-fidelity record;
``results.csv``
    the same points flattened to one row per point (``param:*``,
    ``nc:*``, ``des:*``, ``conf:*`` columns) for spreadsheets and
    plotting;
``manifest.json``
    run-level accounting: the grid axes, evaluation options, execution
    mode, wall/compute time, cache hit/miss counts, library version —
    what a perf trajectory or a reproducibility audit needs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .. import __version__
from .._fsutil import atomic_write_text
from .runner import SweepResult
from .spec import SweepSpec

__all__ = ["result_rows", "write_artifacts"]


def result_rows(result: SweepResult) -> list[dict[str, Any]]:
    """Flatten point results to one record per point (CSV-ready)."""
    rows: list[dict[str, Any]] = []
    for r in result.results:
        row: dict[str, Any] = {
            "index": r.index,
            "seed": r.seed,
            "cached": r.cached,
            "elapsed": r.elapsed,
        }
        for k, v in r.params.items():
            row[f"param:{k}"] = v
        for section, values in (("nc", r.nc), ("des", r.des)):
            if values:
                for k, v in values.items():
                    row[f"{section}:{k}"] = v
        if r.conformance is not None:
            for k in ("ok", "estimate", "n_violations", "delay_margin"):
                row[f"conf:{k}"] = r.conformance.get(k)
        if r.error is not None:
            row["error"] = r.error
        rows.append(row)
    return rows


def write_artifacts(
    result: SweepResult,
    spec: SweepSpec,
    out_dir: "str | Path",
) -> dict[str, Path]:
    """Write ``results.json``, ``results.csv`` and ``manifest.json``.

    Returns the written paths keyed by artifact name.
    """
    from ..viz.csvout import write_rows_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results_json = atomic_write_text(
        out / "results.json",
        json.dumps([r.to_dict() for r in result.results], indent=1) + "\n",
    )

    results_csv = write_rows_csv(result_rows(result), out / "results.csv")

    manifest = {
        "pipeline": result.pipeline_name,
        "version": __version__,
        "axes": [{"name": a.name, "values": list(a.values)} for a in spec.axes],
        "options": {
            "simulate": spec.simulate,
            "packetized": spec.packetized,
            "workload": spec.workload,
            "base_seed": spec.base_seed,
        },
        "n_points": result.n_points,
        "jobs": result.jobs,
        "mode": result.mode,
        "elapsed": result.elapsed,
        "compute_time": sum(r.elapsed for r in result.results if not r.cached),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "conformance": dict(
            zip(("passed", "failed", "unchecked"), result.conformance_counts)
        ),
        "n_errors": len(result.errors),
        "point_timings": [
            {"index": r.index, "elapsed": r.elapsed, "cached": r.cached}
            for r in result.results
        ],
    }
    manifest_json = atomic_write_text(
        out / "manifest.json", json.dumps(manifest, indent=1) + "\n"
    )

    return {
        "results.json": results_json,
        "results.csv": results_csv,
        "manifest.json": manifest_json,
    }
