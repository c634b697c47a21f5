"""A process-based discrete-event simulation kernel.

The paper's simulation baseline is built on SimPy; SimPy is not
available in this environment, so this module implements the same
process-interaction model from scratch:

* an :class:`Environment` owns the clock and the event heap;
* an :class:`Event` is a one-shot occurrence with callbacks and a value;
* a :class:`Process` drives a Python generator that ``yield``-s events,
  resuming (with the event's value) when they fire;
* :class:`Timeout` schedules a wake-up after a simulated delay.

Semantics follow SimPy's core closely (trigger-then-process two-phase
event handling, deterministic FIFO ordering for simultaneous events,
failure propagation), so models written against this kernel read like
SimPy models.  It holds only what the pipeline simulator runs: there
are no composite (any-of / all-of) events, no interrupts, and ``run``
stops at a time, not at an event.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]

#: Scheduling priorities: URGENT events (process starts) run before
#: NORMAL events at the same timestamp.
URGENT = 0
NORMAL = 1

_PENDING = object()


class SimulationError(RuntimeError):
    """An error raised by the simulation machinery itself."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Life-cycle: *pending* → *triggered* (``succeed``/``fail`` called and
    the event is scheduled) → *processed* (callbacks have run).
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        #: set when a failure's traceback was handed to at least one waiter
        self._defused = False

    # -- state ----------------------------------------------------------- #

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------ #

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._delay = delay
        self._value = value
        env._schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {hex(id(self))}>"


class Initialize(Event):
    """Immediate event that starts a freshly created process."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """Drives a generator; the process *is* an event that fires on exit.

    The generator may ``yield`` any :class:`Event` (including another
    process); it resumes with the event's value, or the event's
    exception is thrown into it when the event failed.
    """

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not exited."""
        return not self.triggered

    # -- generator driving ------------------------------------------------ #

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    nxt = self._generator.send(event._value)
                else:
                    event._defused = True
                    nxt = self._generator.throw(event._value)
            except StopIteration as stop:
                self._exit(True, stop.value)
                return
            except BaseException as exc:
                self._exit(False, exc)
                return

            if not isinstance(nxt, Event):
                # answer a bad yield the way a failed event would
                event = Event(self.env)
                event._ok = False
                event._value = SimulationError(f"process yielded a non-event: {nxt!r}")
                continue
            if nxt.env is not self.env:
                raise SimulationError("event belongs to a different Environment")
            if nxt.callbacks is None:
                # already processed: continue immediately with its outcome
                event = nxt
                continue
            nxt.callbacks.append(self._resume)
            return

    def _exit(self, ok: bool, value: Any) -> None:
        """The generator returned (``ok``) or raised: fire the process."""
        self._ok = ok
        self._value = value
        self._defused = False
        self.env._schedule(self, NORMAL, 0.0)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process {name} at {hex(id(self))}>"


class Environment:
    """The simulation world: clock, event heap, and process factory.

    ``tracer`` is an optional telemetry sink (any object with a
    ``kernel_event(t, event)`` method, e.g.
    :class:`repro.telemetry.SimProbe`); it is invoked once per
    dispatched event.  The default is ``None`` and costs untraced runs
    a single identity comparison per event.
    """

    def __init__(self, initial_time: float = 0.0, *, tracer: Any = None) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._tracer = tracer

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories --------------------------------------------------- #

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator)

    # -- scheduling --------------------------------------------------------- #

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when idle)."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        t, _prio, _seq, event = heapq.heappop(self._heap)
        self._now = t
        if self._tracer is not None:
            self._tracer.kernel_event(t, event)
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # a failure nobody waited on must not pass silently
            raise event._value

    def run(self, until: "float | None" = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        ``until`` is an absolute simulation time; the clock ends there
        even when the last event came earlier.  A failed event that no
        process waited on is raised out of ``run``.
        """
        stop_time = math.inf
        if until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} lies in the past (now={self._now})")
        while self._heap and self.peek() <= stop_time:
            self.step()
        if self._now < stop_time < math.inf:
            self._now = stop_time
