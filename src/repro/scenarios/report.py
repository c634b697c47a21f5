"""Scenario-catalog reports: per-scenario markdown + machine-readable JSON.

A catalog run writes, under one output directory:

* ``catalog.json`` — every judged result (checks, NC numbers, DES
  numbers, conformance verdicts) plus run accounting — the artifact CI
  uploads and :func:`load_catalog_json` reads back;
* ``catalog.md`` — the human summary: per-family pass/fail table, a
  per-scenario check table, and an ASCII histogram of the
  delay-bound safety margins (bound / observed max virtual delay);
* ``scenarios/<name>.md`` — one page per scenario with its full check
  breakdown.

``repro scenarios report`` re-renders the markdown from ``catalog.json``
without re-running anything, so report formatting can evolve without
invalidating cached results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from .._fsutil import atomic_write_text
from ..units import format_bytes, format_rate, format_seconds
from .runner import CatalogResult, ScenarioResult

__all__ = [
    "catalog_to_json",
    "load_catalog_json",
    "render_catalog_markdown",
    "render_scenario_markdown",
    "write_reports",
]


def catalog_to_json(result: CatalogResult) -> dict[str, Any]:
    """The run as one JSON-able document (the CI artifact)."""
    passed = sum(1 for r in result.results if r.ok)
    return {
        "schema": "repro.scenarios/catalog-v1",
        "summary": {
            "scenarios": len(result.results),
            "passed": passed,
            "failed": len(result.results) - passed,
            "checks": result.n_checks,
            "mode": result.mode,
            "jobs": result.jobs,
            "elapsed": result.elapsed,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "families": {
                k: {"passed": p, "failed": f}
                for k, (p, f) in sorted(result.family_counts().items())
            },
        },
        "scenarios": [r.to_dict() for r in result.results],
    }


def load_catalog_json(path: "str | Path") -> dict[str, Any]:
    """Read a ``catalog.json`` document back, checking its schema tag."""
    data = json.loads(Path(path).read_text())
    schema = data.get("schema")
    if schema != "repro.scenarios/catalog-v1":
        raise ValueError(f"{path}: unexpected schema {schema!r}")
    return data


# --------------------------------------------------------------------- #
# markdown rendering (from the JSON document, so `report` can re-render)
# --------------------------------------------------------------------- #


def _check_rows(doc: Mapping[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for c in doc["checks"]:
        rows.append({
            "check": c["name"],
            "expected": _fmt_value(c["expected"]),
            "actual": _fmt_value(c["actual"]),
            "tolerance": "" if c["tolerance"] is None else f"{c['tolerance']:g}",
            "verdict": "ok" if c["ok"] else "FAIL",
        })
    return rows


def _fmt_value(v: Any) -> str:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return str(v)
    return f"{float(v):.9g}"


def render_scenario_markdown(doc: Mapping[str, Any]) -> str:
    """One scenario's result document as a markdown page."""
    from ..viz import rows_to_markdown

    verdict = "PASS" if doc["ok"] else "FAIL"
    lines = [
        f"# scenario `{doc['name']}` — {verdict}",
        "",
        f"family: `{doc['family']}`"
        + (f" — {doc['description']}" if doc.get("description") else ""),
        "",
    ]
    if doc.get("error"):
        lines += [f"evaluation error: `{doc['error']}`", ""]
    if doc["checks"]:
        lines += [rows_to_markdown(_check_rows(doc)), ""]
    nc = doc.get("nc")
    if nc:
        lines += [
            "## network-calculus analysis",
            "",
            f"- stable: {nc['stable']} (bottleneck `{nc['bottleneck']}`)",
            f"- throughput bounds: {format_rate(nc['throughput_lower_bound'])}"
            f" .. {format_rate(nc['throughput_upper_bound'])}"
            f" (queueing roofline {format_rate(nc['queueing_prediction'])})",
            f"- delay {'bound' if nc['stable'] else 'estimate'}:"
            f" {format_seconds(nc['delay_bound'])}"
            f" — backlog: {format_bytes(nc['backlog_bound'])}",
            f"- initial latency: {format_seconds(nc['total_latency'])}"
            f" — effective burst: {format_bytes(nc['effective_burst'])}",
            "",
        ]
    des = doc.get("des")
    if des:
        conf = doc.get("conformance") or {}
        lines += [
            "## discrete-event simulation",
            "",
            f"- throughput: {format_rate(des['throughput'])}"
            f" (steady-state {format_rate(des['steady_state_throughput'])})",
            f"- max observed virtual delay: {format_seconds(des['virtual_delay_max'])}"
            f" — max backlog: {format_bytes(des['max_backlog_bytes'])}",
            f"- conformance: {'PASS' if conf.get('ok') else 'FAIL'}"
            + (" (estimates regime: arrival check only)"
               if conf.get("estimate") else ""),
            "",
        ]
    return "\n".join(lines)


def _delay_margin(doc: Mapping[str, Any]) -> float | None:
    """Bound-over-observed safety margin for one scenario, when defined."""
    nc, des = doc.get("nc"), doc.get("des")
    if not nc or not des or not nc.get("stable"):
        return None
    observed = des.get("virtual_delay_max")
    if not observed or observed <= 0:
        return None
    return float(nc["delay_bound"]) / float(observed)


def _margin_histogram(docs: Sequence[Mapping[str, Any]]) -> str:
    from ..viz import ascii_histogram

    margins = [m for m in (_delay_margin(d) for d in docs) if m is not None]
    if not margins:
        return ""
    edges = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, float("inf")]
    buckets = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        buckets.append((lo, hi, sum(1 for m in margins if lo <= m < hi)))
    under = sum(1 for m in margins if m < 1.0)
    if under:  # a bound below an observation is a conformance violation
        buckets.insert(0, (0.0, 1.0, under))
    return ascii_histogram(
        buckets, title="delay-bound safety margin (bound / observed max)"
    )


def render_catalog_markdown(data: Mapping[str, Any]) -> str:
    """The whole catalog document as the top-level markdown report."""
    from ..viz import rows_to_markdown

    s = data["summary"]
    docs = data["scenarios"]
    lines = [
        "# scenario catalog report",
        "",
        f"{s['scenarios']} scenarios — **{s['passed']} pass / {s['failed']} fail**"
        f" — {s['checks']} checks — mode {s['mode']} (jobs={s['jobs']})"
        f" — {s['elapsed']:.2f} s wall",
        "",
        f"cache: {s['cache_hits']} hits / {s['cache_misses']} misses",
        "",
        "## families",
        "",
        rows_to_markdown([
            {"family": k, "passed": v["passed"], "failed": v["failed"]}
            for k, v in s["families"].items()
        ]),
        "",
        "## scenarios",
        "",
        rows_to_markdown([
            {
                "scenario": d["name"],
                "family": d["family"],
                "verdict": "PASS" if d["ok"] else "FAIL",
                "checks": len(d["checks"]),
                "cached": "yes" if d["cached"] else "",
                "failing": "; ".join(
                    c["name"] for c in d["checks"] if not c["ok"]
                ) or (d.get("error") and "error") or "",
            }
            for d in docs
        ]),
        "",
    ]
    hist = _margin_histogram(docs)
    if hist:
        lines += ["```", hist, "```", ""]
    return "\n".join(lines)


def write_reports(result: CatalogResult, out_dir: "str | Path") -> Path:
    """Write ``catalog.json``, ``catalog.md`` and the per-scenario pages.

    Returns the path of ``catalog.json`` (the canonical artifact).
    """
    out = Path(out_dir)
    data = catalog_to_json(result)
    json_path = atomic_write_text(
        out / "catalog.json", json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    atomic_write_text(out / "catalog.md", render_catalog_markdown(data) + "\n")
    for doc in data["scenarios"]:
        atomic_write_text(
            out / "scenarios" / f"{doc['name']}.md",
            render_scenario_markdown(doc) + "\n",
        )
    return json_path
