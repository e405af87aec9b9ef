"""Minimal, deterministic discrete-event simulation kernel.

The kernel keeps a priority queue of timestamped events.  Components
schedule callbacks (:meth:`Simulator.schedule`) or run generator-based
processes (:meth:`Simulator.spawn`) that ``yield`` delays.  Ties are
broken by a monotonically increasing sequence number so runs are fully
reproducible.

Time is a float in **milliseconds** throughout the code base; the unit
only matters relative to the link delays and service times configured by
the domains.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro import obs
from repro.sanitize import make_lock


class SimulationError(RuntimeError):
    """Raised for invalid kernel usage (e.g. scheduling in the past)."""


class EventCancelled(Exception):
    """Delivered into a process whose pending event got cancelled."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be
    cancelled before they fire.  A fired or cancelled event is inert.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Event t={self.time:.3f} {state} {getattr(self.callback, '__name__', self.callback)}>"


class SimClock:
    """Read-only view of the simulator's current virtual time."""

    def __init__(self, simulator: "Simulator"):
        self._simulator = simulator

    @property
    def now(self) -> float:
        return self._simulator.now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SimClock now={self.now:.3f}>"


class Process:
    """Generator-based process.

    The generator may yield:

    - a ``float`` delay (sleep that many virtual milliseconds),
    - another :class:`Process` (wait for it to finish; its return value
      is sent back in),
    - ``None`` (yield control, resume immediately at the same time).
    """

    __slots__ = ("simulator", "generator", "name", "finished", "result",
                 "_waiters", "_pending_event")

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = ""):
        self.simulator = simulator
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self._waiters: list[Process] = []
        self._pending_event: Optional[Event] = None

    def interrupt(self) -> None:
        """Cancel the process's pending sleep and throw EventCancelled."""
        if self.finished:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
            self.simulator.schedule(0.0, self._throw, EventCancelled())

    def _throw(self, exc: BaseException) -> None:
        if self.finished:
            return
        try:
            yielded = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
        except EventCancelled:
            self._finish(None)
        else:
            self._handle_yield(yielded)

    def _step(self, value: Any = None) -> None:
        if self.finished:
            return
        self._pending_event = None
        try:
            yielded = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
        else:
            self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if yielded is None:
            self._pending_event = self.simulator.schedule(0.0, self._step)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process {self.name!r} yielded negative delay {yielded}")
            self._pending_event = self.simulator.schedule(float(yielded), self._step)
        elif isinstance(yielded, Process):
            if yielded.finished:
                self._pending_event = self.simulator.schedule(0.0, self._step, yielded.result)
            else:
                yielded._waiters.append(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}")

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.simulator.schedule(0.0, waiter._step, result)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    The queue is a heap of plain ``(time, seq, event)`` tuples, so
    ``heapq`` orders it with the built-in tuple comparison — by time,
    then by schedule order; ``seq`` is unique, so two events are never
    compared — instead of calling a Python ``__lt__`` per sift step.

    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(5.0, seen.append, "b")
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> sim.run()
    >>> seen
    ['a', 'b']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0
        # domains share one simulator; the concurrent push dispatcher may
        # schedule from several worker threads at once (execution itself
        # stays single-threaded on the caller's thread, so _queue is only
        # lock-guarded on the insert side)
        self._schedule_lock = make_lock("sim.schedule")

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        with self._schedule_lock:
            event = Event(self.now + float(delay), callback, args)
            heapq.heappush(self._queue,
                           (event.time, next(self._seq), event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator-based :class:`Process` immediately."""
        process = Process(self, generator, name)
        self.schedule(0.0, process._step)
        return process

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Run a single event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            if event.time < self.now - 1e-12:
                raise SimulationError("event queue time went backwards")
            self.now = event.time
            event.fired = True
            self.events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the queue empties, ``until`` is reached, or
        ``max_events`` events fired (guards against runaway loops).

        With tracing on, the whole run happens inside a ``sim/run``
        span and the kernel's virtual clock is bound to the event log,
        so every event emitted by a callback carries ``vtime_ms``.
        """
        if not obs.enabled():
            self._run(until, max_events)
            return
        with obs.span("sim/run", at_ms=self.now) as span:
            previous = obs.bind_virtual_clock(lambda: self.now)
            try:
                self._run(until, max_events)
            finally:
                obs.restore_virtual_clock(previous)
            span.set(now_ms=self.now, events=self.events_processed)

    def _run(self, until: Optional[float],
             max_events: int) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            fired = 0
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    self.now = until
                    return
                if not self.step():
                    break
                fired += 1
                if fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self._running = False

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def clock(self) -> SimClock:
        return SimClock(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Simulator now={self.now:.3f} pending={self.pending}>"


def drain(simulator: Simulator, processes: Iterable[Process]) -> list[Any]:
    """Run the simulator until all ``processes`` finished; return results."""
    processes = list(processes)
    simulator.run()
    unfinished = [p for p in processes if not p.finished]
    if unfinished:
        raise SimulationError(f"processes never finished: {unfinished}")
    return [p.result for p in processes]
