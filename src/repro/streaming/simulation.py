"""Bridge from the measured pipeline model to the discrete-event simulator.

Builds the paper's validation experiment: each normalized stage becomes
a simulator node whose per-job execution time is uniform between
``job / rate_max`` and ``job / rate_min`` (plus its dispatch latency) —
"each node is given a maximum and minimum execution time, a data packet
size to consume, and data packet size to emit" — fed by the pipeline's
source at its sustained rate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping

from .._validation import check_positive, check_queue_bytes
from .pipeline import Pipeline

if TYPE_CHECKING:
    from ..des import PipelineSimulation, SimulationReport

__all__ = ["check_queue_bounds", "to_simulation", "simulate"]


def check_queue_bounds(pipeline: Pipeline, queue_bytes: Mapping[str, float]) -> None:
    """Raise on input-queue bounds a DES run of ``pipeline`` refuses: one
    naming an unknown stage (``KeyError``) or one not positive."""
    unknown = set(queue_bytes) - set(pipeline.stage_names())
    if unknown:
        raise KeyError(f"queue bounds for unknown stages: {sorted(unknown)}")
    for bound in queue_bytes.values():
        check_queue_bytes(bound)


def to_simulation(
    pipeline: Pipeline,
    *,
    workload: float,
    seed: int | None = 0,
    queue_bytes: Mapping[str, float] | None = None,
    scenario: str = "avg",
    probe: Any = None,
) -> PipelineSimulation:
    """Construct (without running) the DES experiment for a pipeline.

    ``queue_bytes`` optionally bounds named stages' input queues to
    simulate backpressure; unnamed stages stay unbounded, as in the
    paper's experiments.  ``scenario`` fixes the data scenario
    ("worst"/"avg"/"best") a single run lives in — one dataset has one
    compression ratio, so per-stage rate jitter stays within it.
    ``probe`` is an optional :class:`repro.telemetry.SimProbe` telemetry
    sink passed straight to the simulator.
    """
    # the DES (and NumPy with it) loads with the first simulated run:
    # the NC analysis never needs it
    from ..des import PipelineSimulation, SimStage, uniform

    check_positive("workload", workload)
    queue_bytes = dict(queue_bytes or {})
    check_queue_bounds(pipeline, queue_bytes)

    stages = []
    for s in pipeline.normalized(scenario):
        if s.exec_time_min is not None:
            t_fast, t_slow = s.exec_time_min, s.exec_time_max
        else:
            t_fast = s.job_bytes / s.rate_max
            t_slow = s.job_bytes / s.rate_min
        stages.append(
            SimStage(
                name=s.name,
                consume=s.job_bytes,
                service=uniform(t_fast, t_slow),
                emit=s.emit_bytes,
                queue_bytes=queue_bytes.get(s.name, math.inf),
                # rate-latency semantics: T is a one-time fill latency
                startup_latency=s.latency,
            )
        )
    return PipelineSimulation(
        stages,
        workload_bytes=workload,
        source_rate=pipeline.source.rate,
        source_packet=pipeline.source.packet_bytes,
        source_burst=pipeline.source.burst,
        seed=seed,
        probe=probe,
    )


def simulate(
    pipeline: Pipeline,
    *,
    workload: float,
    seed: int | None = 0,
    queue_bytes: Mapping[str, float] | None = None,
    scenario: str = "avg",
    probe: Any = None,
) -> SimulationReport:
    """Run the DES validation experiment and return its report."""
    return to_simulation(
        pipeline,
        workload=workload,
        seed=seed,
        queue_bytes=queue_bytes,
        scenario=scenario,
        probe=probe,
    ).run()
