"""Tests for the concurrent domain dispatcher and the CAL fan-out
contracts built on it (ordering, per-domain FIFO, reconciliation
queue snapshotting)."""

import threading
import time

import pytest

from repro.nffg import NFFG
from repro.orchestration.adapters import DirectDomainAdapter
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.dispatch import DomainDispatcher
from repro.perf import counters
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import FaultKind, FaultPlan, TransientFault
from repro.resilience.retry import RetryPolicy


class TestDispatcherOrdering:
    def test_results_keep_submission_order(self):
        dispatcher = DomainDispatcher(4)
        delays = {"a": 0.05, "b": 0.0, "c": 0.02}

        def op(name):
            time.sleep(delays[name])
            return name

        try:
            results = dispatcher.run(
                (name, lambda name=name: op(name)) for name in "abc")
        finally:
            dispatcher.shutdown()
        # "b" and "c" finish before "a"; the result list does not care
        assert results == ["a", "b", "c"]

    def test_distinct_domains_overlap(self):
        # both ops block on a shared barrier: the batch can only finish
        # if the two domains genuinely run at the same time
        barrier = threading.Barrier(2, timeout=5.0)
        dispatcher = DomainDispatcher(2)
        try:
            results = dispatcher.run([("a", barrier.wait),
                                      ("b", barrier.wait)])
        finally:
            dispatcher.shutdown()
        assert sorted(results) == [0, 1]

    def test_same_domain_ops_fifo_and_never_overlap(self):
        dispatcher = DomainDispatcher(4)
        order = []
        active = 0
        max_active = 0
        guard = threading.Lock()

        def op(index):
            nonlocal active, max_active
            with guard:
                active += 1
                max_active = max(max_active, active)
                order.append(index)
            time.sleep(0.005)
            with guard:
                active -= 1
            return index

        try:
            results = dispatcher.run(
                [("dom", lambda index=index: op(index))
                 for index in range(5)])
        finally:
            dispatcher.shutdown()
        assert results == list(range(5))
        assert order == list(range(5))
        assert max_active == 1

    def test_first_error_in_submission_order_wins(self):
        dispatcher = DomainDispatcher(4)

        def fail(message, delay=0.0):
            time.sleep(delay)
            raise RuntimeError(message)

        try:
            with pytest.raises(RuntimeError, match="first"):
                # "second" raises earlier in wall-clock; "first" wins
                # because it was submitted earlier
                dispatcher.run([("a", lambda: fail("first", 0.02)),
                                ("b", lambda: fail("second"))])
        finally:
            dispatcher.shutdown()

    def test_single_op_runs_inline_on_caller_thread(self):
        counters.reset("dispatch.")
        dispatcher = DomainDispatcher(4)
        assert dispatcher.run([("a", threading.get_ident)]) \
            == [threading.get_ident()]
        assert counters.get("dispatch.inline") == 1
        assert counters.get("dispatch.parallel") == 0

    def test_serial_mode_runs_on_caller_thread(self):
        dispatcher = DomainDispatcher(4, serial=True)
        caller = threading.get_ident()
        assert dispatcher.run([("a", threading.get_ident),
                               ("b", threading.get_ident)]) \
            == [caller, caller]

    def test_empty_batch(self):
        assert DomainDispatcher(2).run([]) == []


class _FlakyAdapter(DirectDomainAdapter):
    """Pushes fail while ``broken`` is set; one attempt, no backoff."""

    retry_policy = RetryPolicy(max_attempts=1)

    def __init__(self, name, view):
        super().__init__(name, view)
        self.broken = False

    def _push(self, install, touched=None):
        if self.broken:
            raise RuntimeError(f"{self.name} down")
        super()._push(install, touched)


def _domain_view(name):
    view = NFFG(id=name)
    view.add_infra(f"{name}-bb0", num_ports=1)
    return view


def _cal_with(names):
    cal = ControllerAdaptationLayer()
    adapters = {}
    for name in names:
        adapters[name] = cal.register(
            _FlakyAdapter(name, _domain_view(name)))
    return cal, adapters


class TestReconcileSnapshot:
    """Regression: ``reconcile`` iterates a *snapshot* of the pending
    queue; concurrent ``_push_one`` calls drain/refill the live set as
    replays settle, which must not disturb the iteration."""

    def test_reconcile_replays_every_queued_domain(self):
        cal, adapters = _cal_with(["a", "b", "c"])
        for adapter in adapters.values():
            adapter.broken = True
        reports = cal.push_all()
        assert {r.domain for r in reports if not r.success} \
            == {"a", "b", "c"}
        assert cal.pending_reconciliation() == {"a", "b", "c"}

        for adapter in adapters.values():
            adapter.broken = False
        replays = cal.reconcile()
        # one replay per queued domain, in snapshot (sorted) order,
        # even though each success removed itself from the live queue
        # mid-iteration
        assert [r.domain for r in replays] == ["a", "b", "c"]
        assert all(r.success for r in replays)
        assert cal.pending_reconciliation() == set()

    def test_failed_replay_stays_queued(self):
        cal, adapters = _cal_with(["a", "b"])
        adapters["a"].broken = True
        adapters["b"].broken = True
        cal.push_all()
        adapters["b"].broken = False
        replays = cal.reconcile()
        assert {r.domain: r.success for r in replays} \
            == {"a": False, "b": True}
        assert cal.pending_reconciliation() == {"a"}

    def test_parallel_push_all_reports_keep_registration_order(self):
        cal, adapters = _cal_with(["z", "m", "a"])
        reports = cal.push_all()
        assert [r.domain for r in reports] == ["z", "m", "a"]
        assert all(r.success for r in reports)


class TestErrorPathsMidFanout:
    """Dispatcher error-path contracts under faults: a breaker tripping
    *inside* a batch, and per-domain FIFO holding up when injected
    delays skew completion order."""

    def test_breaker_trips_mid_fanout_first_error_still_wins(self):
        # domain "a" fails three times inside one batch — enough to trip
        # its breaker mid-fanout, so the fourth "a" op must short-circuit
        # without attempting a push.  Domain "b" keeps succeeding; the
        # dispatcher finishes the WHOLE batch, then re-raises the error
        # that is first in submission order (not first in wall-clock).
        breaker = CircuitBreaker("a", failure_threshold=3,
                                 recovery_time_s=60.0)
        events = []

        def push_a(index):
            if not breaker.allow():
                events.append(("a", index, "skipped"))
                return "skipped"
            events.append(("a", index, "attempt"))
            breaker.record_failure()
            time.sleep(0.01)   # "b" errors earlier in wall-clock
            raise TransientFault(f"a push {index}")

        def push_b(index):
            events.append(("b", index, "ok"))
            return index

        dispatcher = DomainDispatcher(4)
        ops = []
        for index in range(4):
            ops.append(("a", lambda index=index: push_a(index)))
            ops.append(("b", lambda index=index: push_b(index)))
        try:
            with pytest.raises(TransientFault, match="a push 0"):
                dispatcher.run(ops)
        finally:
            dispatcher.shutdown()
        assert breaker.state is BreakerState.OPEN
        # FIFO within "a" means the trip is observed by op 3, not racing it
        assert [e for e in events if e[0] == "a"] \
            == [("a", 0, "attempt"), ("a", 1, "attempt"),
                ("a", 2, "attempt"), ("a", 3, "skipped")]
        # the batch still completed every "b" op despite the "a" failures
        assert [e[1] for e in events if e[0] == "b"] == [0, 1, 2, 3]

    def test_cal_skips_open_breaker_and_recovers_via_reconcile(self):
        cal, adapters = _cal_with(["a", "b"])
        adapters["a"].broken = True
        for _ in range(3):          # default failure_threshold = 3
            cal.push_all()
        assert cal.breakers["a"].state is BreakerState.OPEN

        reports = {r.domain: r for r in cal.push_all()}
        assert reports["a"].skipped and not reports["a"].success
        assert "circuit open" in reports["a"].error
        assert reports["b"].success
        assert cal.pending_reconciliation() == {"a"}

        adapters["a"].broken = False
        replays = cal.reconcile(force_probe=True)
        assert [r.domain for r in replays] == ["a"]
        assert replays[0].success
        assert cal.breakers["a"].state is BreakerState.CLOSED
        assert cal.pending_reconciliation() == set()

    def test_per_domain_fifo_under_injected_delays(self):
        # DELAY faults with a real sleep hook skew wall-clock completion
        # hard toward "b"; submission order within each domain must hold
        # anyway, and so must the result list.
        plan = FaultPlan()
        plan.sleep = time.sleep
        plan.add("a", "push", kind=FaultKind.DELAY, count=4, delay_s=0.01)
        order = {"a": [], "b": []}

        def op(domain, index):
            plan.before(domain, "push")
            order[domain].append(index)
            return f"{domain}{index}"

        dispatcher = DomainDispatcher(4)
        ops = []
        for index in range(4):
            ops.append(("a", lambda index=index: op("a", index)))
            ops.append(("b", lambda index=index: op("b", index)))
        try:
            results = dispatcher.run(ops)
        finally:
            dispatcher.shutdown()
        assert order == {"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]}
        assert results == ["a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"]
        assert plan.virtual_delay_s == pytest.approx(0.04)


class TestShutdownLifecycle:
    """Regression: ``shutdown()`` is idempotent and terminal — a batch
    submitted afterwards must fail loudly instead of hanging on a
    drained worker pool."""

    def test_shutdown_is_idempotent(self):
        dispatcher = DomainDispatcher(2)
        assert dispatcher.run([("a", lambda: 1), ("b", lambda: 2)]) \
            == [1, 2]
        dispatcher.shutdown()
        dispatcher.shutdown()          # second call is a no-op

    def test_run_after_shutdown_raises(self):
        dispatcher = DomainDispatcher(2)
        dispatcher.shutdown()
        with pytest.raises(RuntimeError, match="after shutdown"):
            dispatcher.run([("a", lambda: 1)])

    def test_serial_run_after_shutdown_raises(self):
        dispatcher = DomainDispatcher(1, serial=True)
        dispatcher.shutdown()
        with pytest.raises(RuntimeError, match="after shutdown"):
            dispatcher.run([("a", lambda: 1)])
