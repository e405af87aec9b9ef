"""Controller adaptation layer: domain adapters.

"At the infrastructure level, different technologies are supported and
integrated with the framework" — each adapter brings its domain to the
install graph the CAL keeps for it.  The NETCONF ones all speak the
Unify interface's one data model, the virtualizer
(:class:`_NetconfAdapter`), toward a UNIFY-conform local orchestrator:

- :class:`EmuDomainAdapter` — the Mininet-like domain's;
- :class:`CloudDomainAdapter` — the one on top of OpenStack+ODL;
- :class:`UNDomainAdapter` — the Universal Node's;
- :class:`~repro.orchestration.unify.UnifyDomainAdapter` (the recursion
  adapter, in :mod:`repro.orchestration.unify`) — a whole child
  orchestrator's.

:class:`SdnDomainAdapter` — "a POX controller and a corresponding
adapter module" — programs legacy switches through POX itself.
"""

from __future__ import annotations

import abc
import json
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.cloud.domain import CloudDomain, CloudLocalOrchestrator
from repro.emu.domain import EmulatedDomain
from repro.emu.orchestrator import EmuDomainOrchestrator
from repro.infra.flowprog import FlowProgrammer, install_rules, port_flows
from repro.netconf.client import NetconfClient, NetconfError
from repro.netconf.messages import DELTA_CAPABILITY
from repro.netconf.server import NetconfServer
from repro.nffg.graph import NFFG
from repro.nffg.model import DomainType
from repro.nffg.ops import Touched, refresh_members
from repro.openflow.channel import ControlChannel
from repro.orchestration.report import AdapterReport
from repro.perf import counters
from repro.resilience.retry import RetryPolicy
from repro import obs, sanitize
from repro.sdnnet.domain import SDNDomain
from repro.un.domain import UniversalNodeDomain, UNLocalOrchestrator
from repro.virtualizer.convert import (
    edit_virtualizer,
    encode_members,
    nffg_to_virtualizer,
)
from repro.yang.data import DataNode, take_work
from repro.yang.diff import diff_trees, patch_size_bytes

#: library-default retry budget applied when an adapter has no policy
#: of its own: 3 attempts, exponential seeded-jitter backoff, transient
#: failures only (``is_transient``) — a deterministic semantic error is
#: still reported after a single attempt
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class PushProfile:
    """How one successful push went out on the wire.

    ``messages``/``bytes`` count only the config exchange itself (the
    edit/commit RPCs and the config payload), not channel-level
    framing; ``delta`` marks an edit-config patch, ``noop`` an install
    whose diff against the acknowledged config was empty and that was
    therefore skipped entirely; ``encode_s``/``diff_s`` are what an edit
    spent on this side encoding the members it names and editing them
    into the acknowledged tree (comparing, scripting, measuring)."""

    messages: int = 0
    bytes: int = 0
    delta: bool = False
    noop: bool = False
    bytes_saved: int = 0
    encode_s: float = 0.0
    diff_s: float = 0.0


class DomainUnreachable(RuntimeError):
    """A domain's view could not be fetched, even after retries."""

    def __init__(self, domain: str, cause: BaseException):
        super().__init__(f"{domain}: view fetch failed after retries "
                         f"({type(cause).__name__}: {cause})")
        self.domain = domain
        self.cause = cause


class DomainAdapter(abc.ABC):
    """One managed technology domain, as seen by the adaptation layer."""

    #: retry budget for pushes/view fetches; None = DEFAULT_RETRY_POLICY
    retry_policy: Optional[RetryPolicy] = None

    def __init__(self, name: str, domain_type: DomainType):
        self.name = name
        self.domain_type = domain_type
        self.installs = 0

    @abc.abstractmethod
    def get_view(self) -> NFFG:
        """The domain's pristine resource view (capacity, topology).

        The caller owns the returned graph: the CAL caches it as the
        domain's view until the domain is refetched, so it must be a
        copy or freshly built, never a graph the adapter keeps editing."""

    @abc.abstractmethod
    def _push(self, install: NFFG) -> None:
        """Push a (cumulative) install graph in full; raise on failure."""

    def _do_push(self, install: NFFG, touched: Optional[Touched] = None,
                 ) -> Optional[PushProfile]:
        """One push attempt; adapters that can apply an edit override
        this to pick between a full push and one of the ``touched``
        members only.  Returning ``None`` means the adapter keeps no
        wire-level accounting."""
        self._push(install)
        return None

    def reset_delta_state(self) -> None:
        """Forget the acknowledged config — the domain's state is in
        doubt — so the next push goes out full.  No-op for adapters
        that keep no such base."""

    def _effective_policy(self) -> RetryPolicy:
        return self.retry_policy if self.retry_policy is not None \
            else DEFAULT_RETRY_POLICY

    def install(self, install: NFFG,
                touched: Optional[Touched] = None) -> AdapterReport:
        """Bring the domain to ``install``, the cumulative configuration
        the CAL keeps for it (read it, never keep or write it: the CAL
        edits it in place).  ``touched`` names the members that differ
        from the graph of this adapter's last successful install; None —
        first contact, a push after a failed one, a domain whose infras
        moved — means any member may."""
        # adapter I/O may block on the domain; it must never run while
        # the caller holds a shared-state lock
        sanitize.note_blocking(f"adapter.install({self.name})")
        started = time.perf_counter()
        baseline_msgs, baseline_bytes = self.control_stats()
        report = AdapterReport(domain=self.name, success=True)
        outcome = self._effective_policy().run(
            lambda: self._do_push(install, touched))
        report.attempts = outcome.attempts
        report.backoff_s = outcome.backoff_s
        if outcome.success:
            self.installs += 1
            profile = outcome.value if outcome.value is not None \
                else PushProfile()
            report.messages = profile.messages
            report.bytes = profile.bytes
            report.delta = profile.delta
            report.encode_time_s = profile.encode_s
            report.diff_time_s = profile.diff_s
            counters.incr("push.delta" if profile.delta else "push.full")
            if profile.noop:
                counters.incr("push.delta_noop")
            if profile.bytes_saved:
                counters.incr("push.bytes_saved", profile.bytes_saved)
            obs.event("push.mode", domain=self.name,
                      mode=("noop" if profile.noop
                            else "delta" if profile.delta else "full"),
                      bytes=profile.bytes)
        else:
            exc = outcome.error
            report.success = False
            report.error = f"{type(exc).__name__}: {exc}"
        report.push_time_s = time.perf_counter() - started
        msgs, octets = self.control_stats()
        report.control_messages = msgs - baseline_msgs
        report.control_bytes = octets - baseline_bytes
        return report

    def fetch_view(self) -> NFFG:
        """:meth:`get_view` under the retry policy; raises
        :class:`DomainUnreachable` once the budget is exhausted."""
        sanitize.note_blocking(f"adapter.fetch_view({self.name})")
        outcome = self._effective_policy().run(self.get_view)
        if outcome.success:
            return outcome.value
        raise DomainUnreachable(self.name, outcome.error)

    def teardown(self) -> None:
        """Remove everything this adapter deployed (default: push empty)."""
        empty = NFFG(id=f"{self.name}-empty")
        self._push(empty)

    def control_stats(self) -> tuple[int, int]:
        """(total control messages, total control bytes) so far."""
        return 0, 0

    def ready(self) -> bool:
        """True when all requested NFs are up."""
        return True

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        """Dataplane counters keyed by flow cookie (hop id):
        ``{cookie: (packets, bytes)}``.  Default: none."""
        return {}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ({self.domain_type.value})>"


def _collect_endpoint_stats(endpoint) -> dict[str, tuple[int, int]]:
    """Poll every switch of a controller endpoint for flow stats and
    fold them per cookie (max across switches: the ingress switch of a
    hop sees every packet of that hop)."""
    stats: dict[str, tuple[int, int]] = {}
    for dpid in endpoint.connected_dpids():
        endpoint.request_flow_stats(dpid)
        reply = endpoint.flow_stats(dpid)
        if reply is None:
            continue
        for entry in reply.entries:
            cookie = entry.get("cookie")
            if not cookie:
                continue
            packets, octets = stats.get(cookie, (0, 0))
            stats[cookie] = (max(packets, entry.get("packets", 0)),
                             max(octets, entry.get("bytes", 0)))
    return stats


class _NetconfAdapter(DomainAdapter):
    """A domain programmed over NETCONF through the one tree the Unify
    interface speaks, the virtualizer: an emulated, cloud or UN domain's
    local orchestrator, or a whole child orchestrator.

    Delta pushes: the adapter remembers the last *acknowledged*
    virtualizer (the one that made it through commit), which carries
    its own digest and size, and edits it: ``_encode`` encodes the
    ``touched`` members anew, and each one that differs from the
    acknowledged member takes its place and emits its part of the edit
    script.  The script goes out as a patch guarded by the tree's digest
    before the edit, and ``commit`` validates it.  A
    full replace goes out when nothing is acknowledged — first contact,
    after :meth:`reset_delta_state` (reconcile, half-open probes, pushes
    after a failure) — or on a refused patch base.  Any exception
    mid-push, the edit's own included, leaves the acknowledged tree and
    the server state unknown: the acknowledged config is dropped, the
    next attempt full.
    """

    def __init__(self, name: str, domain_type: DomainType,
                 server: NetconfServer):
        super().__init__(name, domain_type)
        self.channel = ControlChannel(f"{name}-mgmt")
        server.bind(self.channel)
        self.client = NetconfClient(f"{name}-client", self.channel)
        self.client.hello()
        self._acked_tree: Optional[DataNode] = None
        #: payload bytes of the last full push less its tree's size: plus
        #: the size now, the acknowledged config's (accounting only)
        self._framing = 0

    def reset_delta_state(self) -> None:
        self._acked_tree = None

    def _acked_bytes(self) -> int:
        return self._framing + self._acked_tree.measure()[1]

    def _encode(self, install: NFFG, touched: Optional[Touched]) -> DataNode:
        """``install`` as a virtualizer tree: all of it or, given what
        changed, the ``touched`` members only (:func:`encode_members`)."""
        if touched is None:
            return nffg_to_virtualizer(install, install.id).tree
        return encode_members(install, touched)

    def _push(self, install: NFFG) -> None:
        """Full-config replace; re-establishes the delta base.  Also the
        override point for tests/subclasses — the delta path falls back
        here whenever a patch cannot go out."""
        tree = self._encode(install, None)
        wire = {"virtualizer": tree.to_dict()}
        try:
            self.client.edit_config(wire, target="candidate",
                                    operation="replace")
            self.client.commit()
        except BaseException:
            self.reset_delta_state()
            raise
        self._acked_tree = tree
        self._framing = len(json.dumps(  # as RpcRequest.to_wire has it
            wire, sort_keys=True, default=str).encode()) - tree.measure()[1]

    def _do_push(self, install: NFFG, touched: Optional[Touched] = None,
                 ) -> Optional[PushProfile]:
        try:
            messages = 2
            if (self._acked_tree is not None
                    and self.client.has_capability(DELTA_CAPABILITY)):
                profile = self._push_delta(install, touched)
                if profile is not None:
                    return profile
                messages = 3  # the refused patch, then the resync
            self.reset_delta_state()
            self._push(install)
            # a _push override may acknowledge nothing
            return PushProfile(messages=messages, bytes=self._acked_bytes()
                               if self._acked_tree else 0)
        finally:
            for name, count in zip(("yang.measured", "yang.hashed",
                                    "yang.resolved"), take_work()):
                counters.incr(name, count)

    def _push_delta(self, install: NFFG,
                    touched: Optional[Touched]) -> Optional[PushProfile]:
        """Edit the acknowledged config into ``install`` and ship the
        edit script; None when the server refused the patch base."""
        base = f"{self._acked_tree.digest():016x}"
        try:
            started = time.perf_counter()
            fresh = self._encode(install, touched)
            encoded = time.perf_counter()
            if touched is None:  # no telling what changed: all of it
                entries = diff_trees(self._acked_tree, fresh)
                self._acked_tree = fresh
            else:
                entries = edit_virtualizer(self._acked_tree, fresh, touched)
            spent = {"encode_s": encoded - started,
                     "diff_s": time.perf_counter() - encoded}
            if not entries:
                # already acknowledged: the domain runs this exact config
                return PushProfile(delta=True, noop=True,
                                   bytes_saved=self._acked_bytes(), **spent)
            try:
                self.client.edit_config_delta(
                    base, [entry.to_dict() for entry in entries])
            except NetconfError as exc:
                if exc.tag != "delta-mismatch":
                    raise
                # base drifted (server restart, foreign writer): resync
                counters.incr("push.delta_fallback")
                obs.event("push.fallback", domain=self.name)
                return None
            self.client.commit()
        except BaseException:
            self.reset_delta_state()
            raise
        delta_bytes = patch_size_bytes(entries)
        return PushProfile(messages=2, bytes=delta_bytes, delta=True,
                           bytes_saved=max(0, self._acked_bytes() - delta_bytes),
                           **spent)

    def control_stats(self) -> tuple[int, int]:
        return self.channel.stats.messages, self.channel.stats.bytes


class EmuDomainAdapter(_NetconfAdapter):
    """Mininet-like domain over NETCONF (+ the domain's own OF channels)."""

    def __init__(self, name: str, domain: EmulatedDomain,
                 orchestrator: Optional[EmuDomainOrchestrator] = None):
        self.domain = domain
        self.orchestrator = orchestrator or EmuDomainOrchestrator(domain)
        super().__init__(name, DomainType.INTERNAL, self.orchestrator)

    def get_view(self) -> NFFG:
        return self.domain.domain_view()

    def control_stats(self) -> tuple[int, int]:
        of_stats = self.orchestrator.controller.total_stats()
        return (self.channel.stats.messages + of_stats.messages,
                self.channel.stats.bytes + of_stats.bytes)

    def ready(self) -> bool:
        return True  # Click processes attach synchronously on commit

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        return _collect_endpoint_stats(self.orchestrator.controller)


class SdnDomainAdapter(DomainAdapter):
    """POX adapter for the legacy OpenFlow network.

    The mapped NFFG contains per-switch flow rules; the adapter programs
    them through the POX controller endpoint, one FlowMod per rule, and
    keeps l2-style defaults out of the way with higher priorities.
    """

    def __init__(self, name: str, domain: SDNDomain):
        super().__init__(name, DomainType.SDN)
        self.domain = domain
        #: what this adapter installed on the switches; only _push writes
        self.flows = FlowProgrammer(domain.pox.endpoint)

    def get_view(self) -> NFFG:
        return self.domain.domain_view()

    def _push(self, install: NFFG) -> None:
        for infra in install.infras:
            if infra.id not in self.domain.switches:
                raise KeyError(f"unknown SDN switch {infra.id!r}")
        self.flows.sync(install_rules(install), port_flows, full=True)

    def control_stats(self) -> tuple[int, int]:
        stats = self.domain.pox.endpoint.total_stats()
        return stats.messages, stats.bytes

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        return _collect_endpoint_stats(self.domain.pox.endpoint)


class CloudDomainAdapter(_NetconfAdapter):
    """OpenStack+ODL domain via its UNIFY-conform local orchestrator."""

    def __init__(self, name: str, domain: CloudDomain,
                 orchestrator: Optional[CloudLocalOrchestrator] = None):
        self.domain = domain
        self.orchestrator = orchestrator or CloudLocalOrchestrator(domain)
        super().__init__(name, DomainType.OPENSTACK, self.orchestrator)

    def get_view(self) -> NFFG:
        return self.domain.domain_view()

    def control_stats(self) -> tuple[int, int]:
        odl_stats = self.domain.odl.endpoint.total_stats()
        return (self.channel.stats.messages + odl_stats.messages,
                self.channel.stats.bytes + odl_stats.bytes)

    def ready(self) -> bool:
        return self.orchestrator.all_vms_active()

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        return _collect_endpoint_stats(self.domain.odl.endpoint)


class UNDomainAdapter(_NetconfAdapter):
    """Universal Node via its local orchestrator."""

    def __init__(self, name: str, domain: UniversalNodeDomain,
                 orchestrator: Optional[UNLocalOrchestrator] = None):
        self.domain = domain
        self.orchestrator = orchestrator or UNLocalOrchestrator(domain)
        super().__init__(name, DomainType.UN, self.orchestrator)

    def get_view(self) -> NFFG:
        return self.domain.domain_view()

    def control_stats(self) -> tuple[int, int]:
        of_stats = self.orchestrator.controller.total_stats()
        return (self.channel.stats.messages + of_stats.messages,
                self.channel.stats.bytes + of_stats.bytes)

    def ready(self) -> bool:
        return self.orchestrator.all_containers_running()

    def flow_stats(self) -> dict[str, tuple[int, int]]:
        return _collect_endpoint_stats(self.orchestrator.controller)


class DirectDomainAdapter(DomainAdapter):
    """Adapter over a static NFFG view with no dataplane behind it.

    Used in unit tests and pure-mapping benchmarks where only the
    orchestration logic is under study.
    """

    def __init__(self, name: str, view: NFFG,
                 domain_type: DomainType = DomainType.INTERNAL):
        super().__init__(name, domain_type)
        self._view = view
        #: what the domain was given: this adapter's own copy of the
        #: last install, kept current by folding each push's touched
        #: members into it (None until the first push)
        self.installed: Optional[NFFG] = None

    def get_view(self) -> NFFG:
        return self._view.copy()

    def _do_push(self, install: NFFG,
                 touched: Optional[Touched] = None) -> None:
        self._push(install, touched)

    def _push(self, install: NFFG, touched: Optional[Touched] = None) -> None:
        if touched is None or self.installed is None:
            self.installed = install.copy()
        else:
            refresh_members(self.installed, install, touched)
