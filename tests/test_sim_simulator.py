"""Simulator kernel tests: clock semantics, run modes, safety valves."""

import pytest

from repro.sim.errors import SchedulingError, SimulationDeadlock
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_clock_starts_at_start_time(self):
        assert Simulator(start_time=10.0).now == 10.0

    def test_schedule_at_past_raises(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(4.0, lambda: None)

    def test_schedule_after_negative_raises(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_callbacks_see_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(sim.now))
        sim.schedule_at(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0, 2.0]

    def test_cancel(self):
        sim = Simulator()
        seen = []
        e = sim.schedule_at(1.0, lambda: seen.append("x"))
        sim.cancel(e)
        sim.run()
        assert seen == []

    def test_callback_can_schedule_more(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule_after(1.0, lambda: seen.append(sim.now))

        sim.schedule_at(1.0, first)
        sim.run()
        assert seen == [2.0]


class TestRun:
    def test_run_drains_queue(self):
        sim = Simulator()
        sim.schedule_at(3.5, lambda: None)
        final = sim.run()
        assert final == 3.5
        assert sim.pending_events == 0

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_run_until_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingError):
            sim.run(until=5.0)

    def test_run_until_then_continue(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        sim.run()
        assert seen == [5]

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestRunUntilTrue:
    def test_satisfied_immediately(self):
        sim = Simulator()
        assert sim.run_until_true(lambda: True) == 0.0

    def test_runs_until_predicate(self):
        sim = Simulator()
        state = {"done": False}

        def finish():
            state["done"] = True

        sim.schedule_at(4.0, finish)
        sim.schedule_at(9.0, lambda: None)
        t = sim.run_until_true(lambda: state["done"])
        assert t == 4.0
        assert sim.pending_events == 1  # later event untouched

    def test_deadlock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationDeadlock):
            sim.run_until_true(lambda: False)

    def test_limit_respected(self):
        sim = Simulator()
        sim.schedule_at(100.0, lambda: None)
        with pytest.raises(SimulationDeadlock):
            sim.run_until_true(lambda: False, limit=10.0)


class TestSafety:
    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def reschedule():
            sim.schedule_after(0.1, reschedule)

        sim.schedule_after(0.1, reschedule)
        with pytest.raises(SimulationDeadlock, match="max_events"):
            sim.run()

