"""Benchmark-side spans: wrap public entry points, record, analyse.

The traced run wraps bound methods *on the instances a workload built*
(class-level only for the two per-packet calls, which are counted and
timed into running totals instead of recorded one by one).  A span is
``[name, tag, start_ns, end_ns, thread, op, parent]``; ``op`` numbers
the client operation (one submit / terminate / update / heal / recover;
0 for a span opened while none is in flight, such as the simulator run
of a probe) and ``parent`` is the innermost span open when this one
started.  The load generator has one client, so only one operation is
ever in flight and a span opened on a push-dispatcher worker thread
parents, by containment, under whatever the generator thread has open —
the ``push_planned`` call that is waiting for that worker.

Nothing here imports :mod:`repro`: spans are taken from outside.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

NAME, TAG, START, END, THREAD, OP, PARENT = range(7)


class Tracer:
    """Installs and removes span wrappers; holds what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: class-level running totals: name -> [calls, total ns]
        self.totals: dict[str, list[int]] = {}
        self.installed = False
        self._instance_targets: list[tuple[object, str, str, str]] = []
        self._class_targets: list[tuple[type, str, str]] = []
        self._saved_class_attrs: list[tuple[type, str, object]] = []
        self._generator_thread = threading.get_ident()
        self._generator_stack: list[list] = []
        self._worker_stacks = threading.local()
        self._ops_begun = 0
        #: id of the operation in flight, 0 between operations
        self._op = 0

    # -- what to wrap ------------------------------------------------------

    def add(self, obj: object, attr: str, name: str, tag: str = "") -> None:
        """Register ``obj.attr`` (a bound method) for a span ``name``."""
        if not callable(getattr(obj, attr)):
            raise TypeError(f"{obj!r}.{attr} is not callable")
        self._instance_targets.append((obj, attr, name, tag))

    def add_total(self, cls: type, attr: str, name: str) -> None:
        """Register ``cls.attr`` for a count + total-time accumulator."""
        self._class_targets.append((cls, attr, name))
        self.totals.setdefault(name, [0, 0])

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        if self.installed:
            return
        for obj, attr, name, tag in self._instance_targets:
            if attr in vars(obj):
                raise RuntimeError(f"{obj!r}.{attr} is already wrapped")
            vars(obj)[attr] = self._span_wrapper(getattr(obj, attr),
                                                 name, tag)
        for cls, attr, name in self._class_targets:
            original = vars(cls)[attr]
            self._saved_class_attrs.append((cls, attr, original))
            setattr(cls, attr, self._total_wrapper(original,
                                                   self.totals[name]))
        self.installed = True

    def remove(self) -> None:
        if not self.installed:
            return
        for obj, attr, _, _ in self._instance_targets:
            del vars(obj)[attr]
        for cls, attr, original in self._saved_class_attrs:
            setattr(cls, attr, original)
        self._saved_class_attrs.clear()
        self.installed = False

    def wrapped_attributes(self) -> list[str]:
        """Every wrapper currently in place (empty once removed)."""
        found = [f"{type(obj).__name__}.{attr}"
                 for obj, attr, _, _ in self._instance_targets
                 if attr in vars(obj)]
        found += [f"{cls.__name__}.{attr}"
                  for cls, attr, _ in self._class_targets
                  if getattr(vars(cls)[attr], "_bench_total", False)]
        return found

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._generator_thread:
            return self._generator_stack
        stack = getattr(self._worker_stacks, "stack", None)
        if stack is None:
            stack = self._worker_stacks.stack = []
        return stack

    def _open(self, name: str, tag: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            waiting = self._generator_stack
            parent = waiting[-1] if waiting else None
        record = [name, tag, perf_counter_ns(), 0, threading.get_ident(),
                  self._op, parent]
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter_ns()
        self._stack().pop()
        self.spans.append(record)

    def begin_op(self, kind: str) -> list:
        """Open the root span of one client operation."""
        self._ops_begun += 1
        self._op = self._ops_begun
        return self._open(f"op.{kind}", "")

    def end_op(self, record: list) -> None:
        self._close(record)
        self._op = 0

    def _span_wrapper(self, original: Callable, name: str,
                      tag: str) -> Callable:
        def wrapper(*args, **kwargs):
            record = self._open(name, tag)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)
        return wrapper

    @staticmethod
    def _total_wrapper(original: Callable, total: list[int]) -> Callable:
        def wrapper(*args, **kwargs):
            started = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += perf_counter_ns() - started
        wrapper._bench_total = True
        return wrapper

    # -- export ------------------------------------------------------------

    def to_json(self) -> dict:
        """The trace file body: spans by id, times in microseconds from
        the first span's start."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        origin = min((r[START] for r in self.spans), default=0)
        return {
            "spans": [{
                "id": index, "name": r[NAME], "tag": r[TAG],
                "start_us": (r[START] - origin) / 1e3,
                "end_us": (r[END] - origin) / 1e3,
                "thread": r[THREAD], "op": r[OP],
                "parent": (ids.get(id(r[PARENT]))
                           if r[PARENT] is not None else None),
            } for index, r in enumerate(self.spans)],
            "totals": {name: {"calls": calls, "total_us": ns / 1e3}
                       for name, (calls, ns) in self.totals.items()},
        }


# -- analysis (pure functions over recorded spans) --------------------------


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length covered by the union of ``(start, end)`` intervals."""
    covered = 0
    reach: Optional[int] = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_ns(span: list, children: Iterable[list]) -> int:
    """Duration minus the part of it the children cover.  Children are
    clipped to the span and unioned, so parallel pushes that overlap are
    subtracted once."""
    start, end = span[START], span[END]
    clipped = [(max(start, c[START]), min(end, c[END])) for c in children]
    return (end - start) - union_ns((s, e) for s, e in clipped if e > s)


class SpanIndex:
    """Parent/child and per-operation lookups over a finished trace."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self._children: dict[int, list[list]] = {}
        self.roots: list[list] = []
        self._by_op: dict[int, list[list]] = {}
        for span in spans:
            parent = span[PARENT]
            if parent is None:
                self.roots.append(span)
            else:
                self._children.setdefault(id(parent), []).append(span)
            self._by_op.setdefault(span[OP], []).append(span)

    def children(self, span: list) -> list[list]:
        return self._children.get(id(span), [])

    def self_ns(self, span: list) -> int:
        return self_ns(span, self.children(span))

    def ops(self, kind: str) -> list[list]:
        """Root spans of every operation of one kind."""
        return [root for root in self.roots if root[NAME] == f"op.{kind}"]

    def within(self, root: list,
               match: Callable[[list], bool]) -> list[list]:
        """Spans of ``root``'s operation (root excluded) that ``match``."""
        return [span for span in self._by_op.get(root[OP], ())
                if span is not root and match(span)]

    def busy_ns(self, root: list, match: Callable[[list], bool]) -> int:
        """Wall time of ``root``'s operation during which at least one
        matching span was open (nested or parallel spans count once)."""
        return union_ns((s[START], s[END]) for s in self.within(root, match))

    def own_ns(self, root: list, match: Callable[[list], bool]) -> int:
        """Summed self time of the matching spans of ``root``'s operation."""
        return sum(self.self_ns(span) for span in self.within(root, match))


def named(name: str, tag: Optional[str] = None) -> Callable[[list], bool]:
    if tag is None:
        return lambda span: span[NAME] == name
    return lambda span: span[NAME] == name and span[TAG] == tag


def prefixed(prefix: str) -> Callable[[list], bool]:
    return lambda span: span[NAME].startswith(prefix)
