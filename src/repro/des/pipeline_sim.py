"""Discrete-event simulation of a streaming pipeline (the paper's §4.2 model).

Each pipeline node is given an execution-time distribution (the paper
uses ``uniform(min, max)``), a data volume to *consume* per job and a
granularity to *emit* once execution completes.  Events are exactly the
paper's three: arrival of a data packet at a node, initiation of
execution when the node becomes free, and departure of the packet.
Inter-stage queues are byte-counted FIFOs with optional finite capacity
(finite capacity ⇒ blocking puts ⇒ backpressure).

All data volumes are *input-referred* (normalised to the system input,
following Timcheck & Buhler), matching the network-calculus model; a
node that aggregates ``consume`` bytes before dispatch realises the
paper's *job ratio* behaviour, paying the collection latency
``b_n / R_alpha_{n-1}`` emergently rather than by formula.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .._validation import check_non_negative, check_positive
from .core import Environment, Event
from .distributions import Distribution, constant, uniform
from .monitor import CumulativeFlow, DelayStats, StepSeries
from .recurrence import SERVE_TOL, WHOLE_TOL, emit_chunk, simulate_recurrence
from .report import SimulationReport, StageStats

__all__ = ["Packet", "SimStage", "ByteQueue", "PipelineSimulation", "check_queue_bytes"]


def check_queue_bytes(queue_bytes: float) -> None:
    """Raise unless ``queue_bytes`` bounds an input queue: positive,
    ``inf`` for unbounded (NaN, which compares false, is refused)."""
    if not queue_bytes > 0:
        raise ValueError("queue_bytes must be positive (inf for unbounded)")


@dataclass
class Packet:
    """A contiguous run of bytes flowing through the pipeline.

    ``born_first``/``born_last`` are the system-entry times of the
    packet's oldest and newest byte; they survive aggregation and
    splitting so end-to-end delays can be observed at the sink.
    """

    size: float
    born_first: float
    born_last: float

    def split(self, nbytes: float) -> tuple["Packet", "Packet"]:
        """Split off the first ``nbytes`` (both halves keep the stamps)."""
        if not 0 < nbytes < self.size:
            raise ValueError(f"cannot split {nbytes} from a {self.size}-byte packet")
        head = Packet(nbytes, self.born_first, self.born_last)
        tail = Packet(self.size - nbytes, self.born_first, self.born_last)
        return head, tail


@dataclass(frozen=True)
class SimStage:
    """Declarative description of one pipeline node for the simulator.

    ``consume`` is the input-referred data volume aggregated before a
    job starts; ``emit`` the output granularity (defaults to
    ``consume`` — a pass-through node; smaller values decompose, and a
    downstream node with a larger ``consume`` composes).  ``service``
    draws the per-job execution time; ``queue_bytes`` bounds the node's
    *input* queue (``inf`` disables backpressure).
    """

    name: str
    consume: float
    service: Distribution
    emit: float | None = None
    queue_bytes: float = math.inf
    #: one-time initial latency paid before the first job's service — the
    #: simulator realisation of a rate-latency server's ``T`` (pipeline
    #: fill), NOT a recurring per-job cost.
    startup_latency: float = 0.0

    def __post_init__(self) -> None:
        check_positive("consume", self.consume)
        check_non_negative("startup_latency", self.startup_latency)
        if self.emit is not None:
            check_positive("emit", self.emit)
        check_queue_bytes(self.queue_bytes)

    @property
    def emit_bytes(self) -> float:
        """Output packet granularity (defaults to ``consume``)."""
        return self.consume if self.emit is None else self.emit

    @classmethod
    def compute(
        cls,
        name: str,
        consume: float,
        t_min: float,
        t_max: float,
        *,
        emit: float | None = None,
        queue_bytes: float = math.inf,
    ) -> "SimStage":
        """A compute node with ``uniform(t_min, t_max)`` per-job time."""
        return cls(name, consume, uniform(t_min, t_max), emit, queue_bytes)

    @classmethod
    def link(
        cls,
        name: str,
        rate: float,
        chunk: float,
        *,
        latency: float = 0.0,
        emit: float | None = None,
        queue_bytes: float = math.inf,
    ) -> "SimStage":
        """A communication link moving ``chunk``-byte units at ``rate`` B/s.

        Per-chunk time is deterministic: ``chunk / rate + latency``
        (propagation latency included per transfer).
        """
        check_positive("rate", rate)
        check_positive("chunk", chunk)
        check_non_negative("latency", latency)
        return cls(name, chunk, constant(chunk / rate + latency), emit, queue_bytes)


class ByteQueue:
    """Single-producer/single-consumer byte-counted FIFO of packets.

    ``put`` blocks (event stays pending) while the queue holds more than
    ``capacity - packet.size`` bytes; ``get(n)`` blocks until ``n`` bytes
    are present, or returns the remainder once the producer ``close``-s.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = math.inf,
        name: str = "",
        probe: "Any" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.probe = probe
        self.bytes = 0.0
        self.occupancy = StepSeries(0.0, env.now)
        self._frags: deque[Packet] = deque()
        self._closed = False
        self._pending_put: Optional[tuple[Event, Packet]] = None
        self._pending_get: Optional[tuple[Event, float]] = None

    # -- producer side ----------------------------------------------------- #

    def put(self, packet: Packet) -> Event:
        """Event that fires once the *whole* packet is enqueued.

        Admission is byte-granular, as in a hardware FIFO: when only
        part of the packet fits, that head is admitted immediately and
        the producer stays blocked on the remainder — this is what
        prevents deadlocks when a queue's capacity is not a multiple of
        the producer's packet size.
        """
        if self._closed:
            raise RuntimeError(f"put() on closed queue {self.name!r}")
        if self._pending_put is not None:
            raise RuntimeError(f"queue {self.name!r} is single-producer")
        ev = Event(self.env)
        self._pending_put = (ev, packet)
        self._drain_pending_put()
        return ev

    def _drain_pending_put(self) -> None:
        """Admit as much of the parked packet as fits; finish its event
        once nothing remains."""
        if self._pending_put is None:
            return
        ev, packet = self._pending_put
        free = self.capacity - self.bytes
        if free >= packet.size:
            self._pending_put = None
            self._admit(packet)
            ev.succeed()
        elif free > 0:
            head, tail = packet.split(free)
            self._pending_put = (ev, tail)
            self._admit(head)

    def close(self) -> None:
        """Producer signals end-of-stream; a blocked get drains the rest."""
        self._closed = True
        self._try_serve_get()

    # -- consumer side ------------------------------------------------------ #

    def get(self, nbytes: float) -> Event:
        """Event yielding ``(packets, eof)`` once ``nbytes`` are available.

        ``eof`` is True when the stream closed before ``nbytes``
        accumulated; the packets then total less than ``nbytes``
        (possibly zero packets).
        """
        check_positive("nbytes", nbytes)
        if nbytes > self.capacity:
            raise ValueError(
                f"get({nbytes:g}) exceeds queue capacity {self.capacity:g}: "
                f"the request could never be satisfied"
            )
        if self._pending_get is not None:
            raise RuntimeError(f"queue {self.name!r} is single-consumer")
        ev = Event(self.env)
        self._pending_get = (ev, nbytes)
        self._try_serve_get()
        return ev

    # -- internals ----------------------------------------------------------- #

    def _admit(self, packet: Packet) -> None:
        self._frags.append(packet)
        self.bytes += packet.size
        self.occupancy.record(self.env.now, self.bytes)
        if self.probe is not None:
            self.probe.queue_level(self.name, self.env.now, self.bytes)
        self._try_serve_get()

    def _take(self, nbytes: float) -> list[Packet]:
        out: list[Packet] = []
        remaining = nbytes
        while remaining > 0 and self._frags:
            frag = self._frags[0]
            if frag.size <= remaining * WHOLE_TOL:
                out.append(self._frags.popleft())
                remaining -= frag.size
            else:
                head, tail = frag.split(remaining)
                out.append(head)
                self._frags[0] = tail
                remaining = 0.0
        taken = sum(p.size for p in out)
        self.bytes -= taken
        if self.bytes < 1e-9:
            self.bytes = 0.0
        self.occupancy.record(self.env.now, self.bytes)
        if self.probe is not None:
            self.probe.queue_level(self.name, self.env.now, self.bytes)
        # freed space may admit (part of) a blocked producer's packet
        self._drain_pending_put()
        return out

    def _try_serve_get(self) -> None:
        if self._pending_get is None:
            return
        ev, n = self._pending_get
        if self.bytes >= n * SERVE_TOL:
            self._pending_get = None
            ev.succeed((self._take(n), False))
        elif self._closed and self._pending_put is None:
            self._pending_get = None
            ev.succeed((self._take(self.bytes), True))


class PipelineSimulation:
    """End-to-end simulation of a linear pipeline over a finite workload.

    Parameters
    ----------
    stages:
        the pipeline nodes, in flow order.
    workload_bytes:
        total input-referred volume pushed through the system.
    source_rate:
        sustained input rate in bytes/s (the arrival curve's ``R_alpha``).
    source_packet:
        granularity of source emissions.
    source_burst:
        bytes available instantaneously at t=0 (the arrival curve's ``b``).
    seed:
        RNG seed for the per-job execution-time draws.
    interarrival:
        optional override for the source pacing distribution (defaults to
        deterministic ``source_packet / source_rate``); used for
        Poisson-arrival validation runs.
    max_sim_time:
        optional simulated-time cut-off — a guard for failure-injection
        experiments; a run that would otherwise block forever (e.g. an
        impossible queue configuration) stops here instead.
    probe:
        optional telemetry sink implementing the
        :class:`repro.telemetry.SimProbe` protocol (duck-typed — this
        module never imports :mod:`repro.telemetry`).  ``None`` (the
        default) keeps every hook site a single identity comparison.
    """

    def __init__(
        self,
        stages: Sequence[SimStage],
        *,
        workload_bytes: float,
        source_rate: float,
        source_packet: float,
        source_burst: float = 0.0,
        seed: int | None = 0,
        interarrival: Distribution | None = None,
        max_sim_time: float = math.inf,
        probe: Any = None,
    ) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        for st in stages:
            if st.queue_bytes < st.consume:
                raise ValueError(
                    f"stage {st.name!r}: queue capacity ({st.queue_bytes:g} B) "
                    f"cannot hold one {st.consume:g}-byte job — permanent starvation"
                )
        check_positive("workload_bytes", workload_bytes)
        check_positive("source_rate", source_rate)
        check_positive("source_packet", source_packet)
        check_non_negative("source_burst", source_burst)
        self.stages = list(stages)
        self.workload = float(workload_bytes)
        self.source_rate = float(source_rate)
        self.source_packet = float(source_packet)
        self.source_burst = float(source_burst)
        self.seed = seed
        self.interarrival = interarrival
        if max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        self.max_sim_time = max_sim_time
        self.probe = probe

    # ------------------------------------------------------------------ #

    def run(self) -> SimulationReport:
        """Execute the simulation to completion and collect the report.

        Every stage (and the source) draws from its own RNG stream,
        spawned from the single seed via ``SeedSequence``: one stage's
        draw count cannot perturb another's sequence, so a stage's
        per-job times are a function of ``(seed, stage index)`` alone —
        the determinism guarantee the validation experiments rely on.

        The engine is chosen from the inputs.  A run with unbounded
        queues, a deterministically paced source, no probe and no time
        cut-off is a max-plus recurrence per stage
        (:mod:`repro.des.recurrence`), replayed without an event loop
        and bit-identical to it.  Everything else — and the rare
        recurrence run whose outcome would hinge on how the event loop
        orders simultaneous events — runs the event loop.
        """
        if (
            self.probe is None
            and self.interarrival is None
            and math.isinf(self.max_sim_time)
            and all(math.isinf(st.queue_bytes) for st in self.stages)
        ):
            report = simulate_recurrence(self)
            if report is not None:
                return report
        return self._run_events()

    def _run_events(self) -> SimulationReport:
        """The event-loop engine: source and stages as DES processes."""
        probe = self.probe
        env = Environment(tracer=probe)
        streams = np.random.SeedSequence(self.seed).spawn(len(self.stages) + 1)
        source_rng = np.random.default_rng(streams[0])
        stage_rngs = [np.random.default_rng(s) for s in streams[1:]]

        queues = [
            ByteQueue(env, stage.queue_bytes, name=f"q->{stage.name}", probe=probe)
            for stage in self.stages
        ]
        system_bytes = StepSeries(0.0, 0.0)
        arrivals = CumulativeFlow()
        departures = CumulativeFlow()
        delays_last = DelayStats()
        delays_first = DelayStats()
        busy = [0.0] * len(self.stages)
        jobs = [0] * len(self.stages)
        service_times: list[list[float]] = [[] for _ in self.stages]
        sink_records: list[tuple[float, float]] = []

        def source():
            sent = 0.0
            # initial burst, available instantaneously at t=0
            burst_left = min(self.source_burst, self.workload)
            while burst_left > 0:
                p = min(self.source_packet, burst_left)
                pkt = Packet(p, env.now, env.now)
                yield queues[0].put(pkt)
                # accounted at admission: data still staged at the source
                # does not occupy the pipeline's queues
                arrivals.add(env.now, p)
                system_bytes.add(env.now, p)
                if probe is not None:
                    probe.source_packet(env.now, p)
                sent += p
                burst_left -= p
            while sent < self.workload * (1 - 1e-12):
                if self.interarrival is not None:
                    gap = self.interarrival(source_rng)
                else:
                    gap = self.source_packet / self.source_rate
                yield env.timeout(gap)
                p = min(self.source_packet, self.workload - sent)
                pkt = Packet(p, env.now, env.now)
                yield queues[0].put(pkt)
                arrivals.add(env.now, p)
                system_bytes.add(env.now, p)
                if probe is not None:
                    probe.source_packet(env.now, p)
                sent += p
            queues[0].close()

        def stage_proc(i: int):
            stage = self.stages[i]
            rng = stage_rngs[i]
            in_q = queues[i]
            out_q = queues[i + 1] if i + 1 < len(queues) else None
            started = False
            while True:
                frags, eof = yield in_q.get(stage.consume)
                if not frags:
                    break  # drained
                job_bytes = sum(p.size for p in frags)
                born_first = min(p.born_first for p in frags)
                born_last = max(p.born_last for p in frags)
                # initiation: node is free (we are here) and data is ready;
                # the first job additionally pays the stage's fill latency
                t_exec = stage.service(rng)
                is_first = not started
                if is_first:
                    t_exec += stage.startup_latency
                    started = True
                t_start = env.now
                if probe is not None:
                    probe.job_start(stage.name, t_start, job_bytes)
                yield env.timeout(t_exec)
                busy[i] += t_exec
                jobs[i] += 1
                service_times[i].append(env.now - t_start)
                if probe is not None:
                    probe.job_end(stage.name, t_start, env.now, job_bytes, is_first)
                # departure: emit in `emit`-byte chunks (volume conserved,
                # input-referred)
                remaining = job_bytes
                while remaining > 0:
                    chunk = emit_chunk(stage.emit_bytes, remaining)
                    out_pkt = Packet(chunk, born_first, born_last)
                    if out_q is not None:
                        yield out_q.put(out_pkt)
                    else:
                        departures.add(env.now, chunk)
                        system_bytes.add(env.now, -chunk)
                        delays_first.record(env.now - born_first)
                        delays_last.record(env.now - born_last)
                        sink_records.append((env.now, chunk))
                        if probe is not None:
                            probe.sink_departure(env.now, chunk, born_first, born_last)
                    remaining -= chunk
                if eof:
                    break
            if out_q is not None:
                out_q.close()

        env.process(source())
        procs = [env.process(stage_proc(i)) for i in range(len(self.stages))]
        if math.isinf(self.max_sim_time):
            env.run()
        else:
            env.run(until=self.max_sim_time)
            if any(p.is_alive for p in procs) and env.peek() == math.inf:
                raise RuntimeError(
                    "simulation deadlocked before max_sim_time: processes "
                    "are blocked with no scheduled events (check queue "
                    "capacities against job sizes)"
                )

        makespan = env.now
        if probe is not None:
            probe.run_end(makespan)
        stage_stats = [
            StageStats(
                name=s.name,
                jobs=jobs[i],
                busy_time=busy[i],
                utilization=(busy[i] / makespan) if makespan > 0 else 0.0,
                max_queue_bytes=queues[i].occupancy.max,
                service_times=np.asarray(service_times[i], dtype=float),
            )
            for i, s in enumerate(self.stages)
        ]
        return SimulationReport(
            makespan=makespan,
            input_bytes=arrivals.total,
            output_bytes=departures.total,
            arrivals=arrivals,
            departures=departures,
            delays_first=delays_first,
            delays_last=delays_last,
            max_backlog_bytes=system_bytes.max,
            backlog=system_bytes,
            stages=stage_stats,
        )
