"""Observability for the reproduction: tracing, metrics, conformance.

Three pillars, one probe protocol (:class:`SimProbe`):

* :mod:`repro.telemetry.trace` — a bounded-ring-buffer event tracer
  with Chrome/Perfetto trace-event JSON export (``repro simulate
  --trace out.json``, load at ``ui.perfetto.dev``);
* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms of per-stage service times, end-to-end latencies and
  queue occupancy (``repro simulate --metrics``);
* :mod:`repro.telemetry.conformance` — replays DES observations
  against the network-calculus bounds and reports violations
  (``repro conformance {blast,bitw,file}``).

Every DES hook site is guarded by ``if probe is not None``, so
untraced runs pay near-zero cost.

The conformance names load :mod:`repro.telemetry.conformance` on first
use: it imports NumPy, which a process that only keeps metrics (the
cluster router, a shard's engine) does not need.
"""

from typing import Any

from .probe import MultiProbe, ServiceLog, SimProbe
from .trace import TRACE_SCHEMA_PHASES, Tracer
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimMetrics,
    log_bucket_edges,
    report_summaries,
)

_CONFORMANCE = frozenset({
    "CheckResult",
    "ConformanceReport",
    "Violation",
    "check_arrivals",
    "check_backlog",
    "check_delay",
    "check_queues",
    "check_stage_service",
    "evaluate_conformance",
    "run_conformance",
    "valid_bounds",
})


def __getattr__(name: str) -> Any:
    if name in _CONFORMANCE:
        from . import conformance

        return getattr(conformance, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SimProbe",
    "MultiProbe",
    "ServiceLog",
    "Tracer",
    "TRACE_SCHEMA_PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimMetrics",
    "log_bucket_edges",
    "report_summaries",
    "Violation",
    "CheckResult",
    "ConformanceReport",
    "check_delay",
    "check_arrivals",
    "check_backlog",
    "check_queues",
    "check_stage_service",
    "evaluate_conformance",
    "run_conformance",
    "valid_bounds",
]
