"""Discrete-event simulation substrate.

A from-scratch, SimPy-style process-interaction kernel
(:mod:`repro.des.core`) plus the streaming-pipeline simulator the
paper uses as its validation baseline (:mod:`repro.des.pipeline_sim`,
solved as a max-plus recurrence by :mod:`repro.des.recurrence` when
nothing needs the event loop).  The simulator's inter-stage queues
are its own byte-counted :class:`ByteQueue`.  The kernel keeps only
what that simulator runs: events, timeouts, processes and failure
propagation, with no composite events, interrupts or generic stores
and resources.

Quick start::

    from repro.des import Environment

    def clock(env, name, period):
        while True:
            yield env.timeout(period)
            print(name, env.now)

    env = Environment()
    env.process(clock(env, "fast", 1.0))
    env.run(until=3.5)
"""

from .core import Environment, Event, Process, SimulationError, Timeout
from .distributions import (
    bounded_pareto,
    constant,
    exponential,
    lognormal,
    spawn_rngs,
    uniform,
)
from .monitor import CumulativeFlow, DelayStats, StepSeries
from .pipeline_sim import ByteQueue, Packet, PipelineSimulation, SimStage
from .report import SimulationReport, StageStats

__all__ = [
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "bounded_pareto",
    "constant",
    "exponential",
    "lognormal",
    "spawn_rngs",
    "uniform",
    "CumulativeFlow",
    "DelayStats",
    "StepSeries",
    "ByteQueue",
    "Packet",
    "PipelineSimulation",
    "SimStage",
    "SimulationReport",
    "StageStats",
]
