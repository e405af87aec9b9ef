"""Deterministic fault injection for domain adapters and NETCONF RPCs.

A :class:`FaultPlan` is a schedule of :class:`FaultSpec` entries, each
matching an operation stream (``push`` / ``get_view`` / ``rpc:*`` on a
named domain) and injecting a fault for a bounded number of matching
calls.  The plan is consulted *before* the real operation runs — drop
and error faults raise, delay faults charge virtual latency, crash
faults keep raising until :meth:`FaultPlan.clear` revives the domain.

:func:`FaultPlan.random_plan` derives a whole schedule from one integer
seed, so chaos/soak tests replay exactly.  :class:`FaultyAdapter` wraps
any :class:`~repro.orchestration.adapters.DomainAdapter` with the hooks
in place; :meth:`FaultPlan.netconf_hook` plugs the same plan into a
:class:`~repro.netconf.client.NetconfClient` (``fault_hook``), so
faults can also surface mid-RPC inside a NETCONF push.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.nffg.graph import NFFG
from repro.nffg.ops import Touched
from repro.orchestration.adapters import DomainAdapter
from repro.orchestration.report import AdapterReport
from repro.perf import counters
from repro.sanitize import make_lock, note_blocking
from repro.sim.random import SeededRandom


class InjectedFault(RuntimeError):
    """Base class for every fault raised by a :class:`FaultPlan`."""


class TransientFault(InjectedFault):
    """A one-off failure: the same request may succeed if retried."""


class FaultTimeout(InjectedFault, TimeoutError):
    """A dropped request/reply: looks like a lost message."""


class FaultError(InjectedFault):
    """A hard, non-retryable failure (semantic rejection)."""


class DomainDown(InjectedFault):
    """The domain crashed: every operation fails until it is revived."""


class FaultKind(str, enum.Enum):
    ERROR = "error"      # transient failure (retryable)
    DROP = "drop"        # lost message -> timeout (retryable)
    DELAY = "delay"      # operation succeeds after added latency
    FATAL = "fatal"      # hard failure (not retryable)
    CRASH = "crash"      # domain down until FaultPlan.clear()


_KIND_EXC = {
    FaultKind.ERROR: TransientFault,
    FaultKind.DROP: FaultTimeout,
    FaultKind.FATAL: FaultError,
    FaultKind.CRASH: DomainDown,
}


@dataclass
class FaultSpec:
    """One scheduled fault stream.

    ``op`` matches exactly, by ``*`` wildcard, or by prefix (spec
    ``rpc`` matches call ``rpc:commit``).  ``after`` skips the first N
    matching calls; ``count`` bounds how many injections happen (CRASH
    ignores it and persists until cleared).
    """

    domain: str
    op: str = "*"
    kind: FaultKind = FaultKind.ERROR
    count: int = 1
    after: int = 0
    delay_s: float = 0.0
    message: str = ""
    #: calls seen / faults injected so far (mutated by the plan)
    seen: int = 0
    injected: int = 0

    def matches(self, domain: str, op: str) -> bool:
        if self.domain not in ("*", domain):
            return False
        return self.op == "*" or self.op == op \
            or op.startswith(self.op + ":")

    def exhausted(self) -> bool:
        return self.kind is not FaultKind.CRASH \
            and self.injected >= self.count


@dataclass
class _Injection:
    domain: str
    op: str
    kind: FaultKind


class FaultPlan:
    """A deterministic schedule of faults across domains and operations."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = SeededRandom(seed)
        # the concurrent push dispatcher consults the plan from several
        # worker threads; schedule edits (add/crash/clear may run while
        # a storm is in flight) and spec.seen/injected bookkeeping must
        # not race
        self.specs: list[FaultSpec] = []  # guarded-by: _lock
        #: every injection that actually fired, in order
        self.history: list[_Injection] = []
        #: virtual seconds charged by DELAY faults (nothing sleeps)
        self.virtual_delay_s = 0.0
        #: real-sleep hook for DELAY faults; default accounts only
        self.sleep: Optional[Callable[[float], None]] = None
        self._down: set[str] = set()  # guarded-by: _lock
        self._lock = make_lock("resilience.faultplan")

    # -- schedule construction ---------------------------------------------

    def add(self, domain: str, op: str = "*", *,
            kind: FaultKind = FaultKind.ERROR, count: int = 1,
            after: int = 0, delay_s: float = 0.0,
            message: str = "") -> "FaultPlan":
        with self._lock:
            self.specs.append(FaultSpec(domain=domain, op=op, kind=kind,
                                        count=count, after=after,
                                        delay_s=delay_s, message=message))
        return self

    def crash(self, domain: str) -> "FaultPlan":
        """Take a domain hard-down (every op fails until cleared)."""
        with self._lock:
            self._down.add(domain)
        return self

    def clear(self, domain: str) -> "FaultPlan":
        """Revive a crashed domain and retire its CRASH specs."""
        with self._lock:
            self._down.discard(domain)
            self.specs = [spec for spec in self.specs
                          if not (spec.kind is FaultKind.CRASH
                                  and spec.domain in (domain, "*"))]
        return self

    @classmethod
    def random_plan(cls, seed: int, domains: list[str], *,
                    ops: tuple[str, ...] = ("push",),
                    rate: float = 0.2, length: int = 50,
                    kinds: tuple[FaultKind, ...] = (FaultKind.ERROR,
                                                    FaultKind.DROP),
                    ) -> "FaultPlan":
        """A seeded random schedule: for each (domain, op) stream, each
        of the first ``length`` calls independently faults with
        probability ``rate``.  Same seed => same schedule, regardless
        of how calls interleave across streams."""
        plan = cls(seed)
        for domain in sorted(domains):
            for op in ops:
                stream = plan.rng.fork(f"{domain}/{op}")
                for call_index in range(length):
                    if stream.random() < rate:
                        plan.add(domain, op,
                                 kind=stream.choice(list(kinds)),
                                 count=1, after=call_index)
        return plan

    # -- consultation --------------------------------------------------------

    def exhausted(self) -> bool:
        """True when no fault can ever fire again (no crashed domains,
        every bounded spec used up)."""
        return not self._down and all(spec.exhausted()
                                      for spec in self.specs)

    def before(self, domain: str, op: str) -> float:
        """Consult the plan ahead of one operation.

        Raises the scheduled fault, or returns the delay (seconds) to
        charge against the call — 0.0 when nothing is scheduled.
        """
        with self._lock:
            if domain in self._down:
                self._record(domain, op, FaultKind.CRASH)
                raise DomainDown(f"{domain}: domain is down")
            delay = 0.0
            for spec in self.specs:
                if not spec.matches(domain, op):
                    continue
                spec.seen += 1
                if spec.exhausted() or spec.seen <= spec.after:
                    continue
                spec.injected += 1
                self._record(domain, op, spec.kind)
                if spec.kind is FaultKind.DELAY:
                    delay += spec.delay_s
                    continue
                if spec.kind is FaultKind.CRASH:
                    self._down.add(domain)
                exc_type = _KIND_EXC[spec.kind]
                raise exc_type(spec.message
                               or f"injected {spec.kind.value} on "
                                  f"{domain}/{op}")
            if delay > 0.0:
                self.virtual_delay_s += delay
        # sleep outside the lock: concurrent delayed pushes must overlap
        # (max-over-domains, not sum) when the dispatcher fans out
        if delay > 0.0 and self.sleep is not None:
            note_blocking(f"FaultPlan.sleep({delay:g})")
            self.sleep(delay)
        return delay

    def _record(self, domain: str, op: str, kind: FaultKind) -> None:
        self.history.append(_Injection(domain=domain, op=op, kind=kind))
        counters.incr("resilience.faults.injected")
        counters.incr(f"resilience.faults.{kind.value}")
        obs.event("fault.injected", domain=domain, op=op, kind=kind.value)

    def netconf_hook(self, domain: str) -> Callable[[str], None]:
        """A ``NetconfClient.fault_hook`` bound to this plan: consults
        the ``rpc:<op>`` stream of ``domain`` before each RPC."""
        def hook(op: str) -> None:
            self.before(domain, f"rpc:{op}")
        return hook

    def __repr__(self) -> str:
        return (f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
                f"injected={len(self.history)} down={sorted(self._down)}>")


class FaultyAdapter(DomainAdapter):
    """A :class:`DomainAdapter` wrapper that consults a fault plan
    before delegating pushes and view fetches to the real adapter.

    Transparent otherwise: control stats, readiness and flow stats pass
    straight through, so a wrapped adapter drops into any testbed."""

    def __init__(self, inner: DomainAdapter, plan: FaultPlan):
        super().__init__(inner.name, inner.domain_type)
        self.inner = inner
        self.plan = plan
        self.retry_policy = inner.retry_policy

    def get_view(self) -> NFFG:
        self.plan.before(self.name, "get_view")
        return self.inner.get_view()

    def _push(self, install: NFFG) -> None:
        self.plan.before(self.name, "push")
        self.inner._push(install)

    def _do_push(self, install: NFFG, touched: Optional[Touched] = None):
        # consult the plan first: a fault fires before any RPC reaches
        # the inner adapter, so its acknowledged-config state stays in
        # step with the (untouched) server
        self.plan.before(self.name, "push")
        return self.inner._do_push(install, touched)

    def reset_delta_state(self) -> None:
        self.inner.reset_delta_state()

    def install(self, install: NFFG,
                touched: Optional[Touched] = None) -> AdapterReport:
        report = super().install(install, touched)
        self.inner.installs = self.installs
        return report

    def control_stats(self) -> tuple[int, int]:
        return self.inner.control_stats()

    def ready(self) -> bool:
        return self.inner.ready()

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        return self.inner.flow_stats()

    def __repr__(self) -> str:
        return f"<FaultyAdapter {self.inner!r} plan={self.plan!r}>"
