"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, SimulationError, EventCancelled
from repro.sim.kernel import drain


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, seen.append, "late")
        sim.schedule(1.0, seen.append, "early")
        sim.schedule(3.0, seen.append, "mid")
        sim.run()
        assert seen == ["early", "mid", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        seen = []
        for label in "abc":
            sim.schedule(1.0, seen.append, label)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, fired.append, True)
        sim.run()
        assert fired and sim.now == 4.0

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_runs_at_current_time(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: sim.schedule(0.0, lambda: None))
        sim.run()
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 5.0

    def test_peek_time_cancelled_head_and_tie(self):
        """Cancelled events at the head — one of them tied with a live
        one — are skipped; peeking neither fires nor loses anything."""
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, seen.append, "cancelled-1")
        tied = sim.schedule(2.0, seen.append, "cancelled-2")
        sim.schedule(2.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(3.0, seen.append, "c")
        first.cancel()
        tied.cancel()
        assert sim.peek_time() == 2.0
        assert sim.peek_time() == 2.0 and sim.pending == 3
        assert sim.now == 0.0 and seen == []
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.peek_time() is None


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(10.0, seen.append, "b")
        sim.run(until=5.0)
        assert seen == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert seen == ["a", "b"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clock_view(self):
        sim = Simulator()
        clock = sim.clock()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert clock.now == 3.0


class TestProcesses:
    def test_process_sleeps(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield 5.0
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0, 5.0]

    def test_process_returns_result(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return 42

        process = sim.spawn(proc())
        sim.run()
        assert process.finished and process.result == 42

    def test_process_waits_for_process(self):
        sim = Simulator()
        order = []

        def child():
            yield 3.0
            order.append("child")
            return "payload"

        def parent():
            result = yield sim.spawn(child())
            order.append(f"parent:{result}")

        sim.spawn(parent())
        sim.run()
        assert order == ["child", "parent:payload"]

    def test_waiting_on_finished_process(self):
        sim = Simulator()

        def child():
            yield 0.0
            return 7

        child_process = sim.spawn(child())

        def parent():
            value = yield child_process
            return value + 1

        sim.run()
        parent_process = sim.spawn(parent())
        sim.run()
        assert parent_process.result == 8

    def test_yield_none_resumes_same_time(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield None
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0, 0.0]

    def test_negative_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield -2.0

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_interrupt_delivers_exception(self):
        sim = Simulator()
        outcome = []

        def proc():
            try:
                yield 100.0
            except EventCancelled:
                outcome.append("interrupted")

        process = sim.spawn(proc())
        sim.schedule(1.0, process.interrupt)
        sim.run()
        assert outcome == ["interrupted"]
        assert sim.now < 100.0

    def test_drain_returns_results(self):
        sim = Simulator()

        def proc(value):
            yield 1.0
            return value

        processes = [sim.spawn(proc(i)) for i in range(3)]
        assert drain(sim, processes) == [0, 1, 2]

    def test_unsupported_yield_value(self):
        sim = Simulator()

        def proc():
            yield "nope"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()
