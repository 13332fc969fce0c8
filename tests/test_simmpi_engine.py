"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.simmpi.engine import Environment
from repro.simmpi.errors import DeadlockError


class TestEventsAndTimeouts:
    def test_clock_starts_at_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_timeout_advances_clock(self):
        env = Environment()

        def program():
            yield env.timeout(1.5)
            return env.now

        process = env.process(program())
        env.run()
        assert process.value == pytest.approx(1.5)

    def test_timeouts_accumulate(self):
        env = Environment()

        def program():
            yield env.timeout(1.0)
            yield env.timeout(2.0)
            return env.now

        process = env.process(program())
        env.run()
        assert process.value == pytest.approx(3.0)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_event_value_delivered(self):
        env = Environment()
        gate = env.event()

        def waiter():
            value = yield gate
            return value

        def opener():
            yield env.timeout(0.5)
            gate.succeed("payload")

        process = env.process(waiter())
        env.process(opener())
        env.run()
        assert process.value == "payload"

    def test_event_cannot_trigger_twice(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_event_failure_propagates_into_process(self):
        env = Environment()
        gate = env.event()

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                return f"caught {exc}"

        def failer():
            yield env.timeout(0.1)
            gate.fail(RuntimeError("boom"))

        process = env.process(waiter())
        env.process(failer())
        env.run()
        assert process.value == "caught boom"


class TestProcesses:
    def test_process_is_event_for_joins(self):
        env = Environment()

        def child():
            yield env.timeout(2.0)
            return 42

        def parent():
            child_process = env.process(child())
            value = yield child_process
            return (value, env.now)

        process = env.process(parent())
        env.run()
        assert process.value == (42, pytest.approx(2.0))

    def test_yield_from_delegation(self):
        env = Environment()

        def helper(duration):
            yield env.timeout(duration)
            return duration * 2

        def program():
            a = yield from helper(1.0)
            b = yield from helper(0.5)
            return a + b

        process = env.process(program())
        env.run()
        assert process.value == pytest.approx(3.0)

    def test_failing_process_marks_not_ok(self):
        env = Environment()

        def bad():
            yield env.timeout(0.1)
            raise ValueError("broken")

        process = env.process(bad())
        env.run()
        assert process.triggered
        assert not process.ok
        assert isinstance(process.value, ValueError)

    def test_yielding_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        process = env.process(bad())
        env.run()
        assert not process.ok
        assert isinstance(process.value, TypeError)

    def test_deterministic_fifo_for_simultaneous_events(self):
        env = Environment()
        order = []

        def make(name):
            def program():
                yield env.timeout(1.0)
                order.append(name)

            return program

        for name in ("a", "b", "c"):
            env.process(make(name)())
        env.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_allof_collects_values_in_order(self):
        env = Environment()

        def child(delay, value):
            yield env.timeout(delay)
            return value

        def parent():
            children = [
                env.process(child(3.0, "slow")),
                env.process(child(1.0, "fast")),
            ]
            values = yield env.all_of(children)
            return values, env.now

        process = env.process(parent())
        env.run()
        values, when = process.value
        assert values == ["slow", "fast"]
        assert when == pytest.approx(3.0)

    def test_allof_empty_triggers_immediately(self):
        env = Environment()

        def parent():
            values = yield env.all_of([])
            return values

        process = env.process(parent())
        env.run()
        assert process.value == []


class TestRunControl:
    def test_run_until(self):
        env = Environment()

        def program():
            yield env.timeout(10.0)

        env.process(program())
        env.run(until=5.0)
        assert env.now == pytest.approx(5.0)

    def test_run_all_detects_deadlock(self):
        env = Environment()
        never = env.event()

        def stuck():
            yield never

        process = env.process(stuck())
        with pytest.raises(DeadlockError):
            env.run_all(expect_processes=[process])
