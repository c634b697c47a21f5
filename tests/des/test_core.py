"""Tests for the DES kernel: events, processes, scheduling, failures."""

import math

import pytest

from repro.des import Environment, SimulationError


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0
        assert Environment(5.0).now == 5.0

    def test_run_until_time(self):
        env = Environment()
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert env.now == 3.5

    def test_run_until_past_raises(self):
        env = Environment(10.0)
        with pytest.raises(ValueError, match="past"):
            env.run(until=5.0)

    def test_run_drains(self):
        env = Environment()

        def once(env):
            yield env.timeout(2.0)

        env.process(once(env))
        env.run()
        assert env.now == 2.0

    def test_peek_and_step(self):
        env = Environment()
        env.timeout(4.0)
        assert env.peek() == 4.0
        env.step()
        assert env.now == 4.0
        assert env.peek() == math.inf
        with pytest.raises(SimulationError):
            env.step()

    def test_simultaneous_events_fifo(self):
        env = Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in "abc":
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_succeed_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(99)
        got = []

        def waiter(env):
            got.append((yield ev))

        env.process(waiter(env))
        env.run()
        assert got == [99]
        assert ev.ok and ev.value == 99 and ev.processed

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_value_before_trigger(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_failed_event_raises_in_waiter(self):
        env = Environment()
        ev = env.event()
        caught = []

        def waiter(env):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(waiter(env))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_crashes_run(self):
        env = Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("unhandled")

        env.process(bad(env))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Environment().timeout(-1.0)

    def test_timeout_value(self):
        env = Environment()
        out = []

        def w(env):
            out.append((yield env.timeout(1.0, value="tick")))

        env.process(w(env))
        env.run()
        assert out == ["tick"]


class TestProcesses:
    def test_yield_process_waits_for_it(self):
        env = Environment()
        trace = []

        def child(env):
            yield env.timeout(2.0)
            return "result"

        def parent(env):
            value = yield env.process(child(env))
            trace.append((env.now, value))

        env.process(parent(env))
        env.run()
        assert trace == [(2.0, "result")]

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_is_alive(self):
        env = Environment()

        def quick(env):
            yield env.timeout(0.1)

        p = env.process(quick(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_already_processed_event_continues_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        env.run()  # process the event fully
        got = []

        def w(env):
            got.append((yield ev))

        env.process(w(env))
        env.run()
        assert got == ["v"]

