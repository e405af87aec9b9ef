"""Elastic scaling on top of the orchestrator.

UNIFY's companion demos scaled NFs with load (the "elastic router").
This module reproduces the control loop: watch a service's dataplane
counters (:meth:`~repro.orchestration.escape.EscapeOrchestrator.service_flow_stats`),
compute throughput over the virtual clock, and drive
:meth:`~repro.orchestration.escape.EscapeOrchestrator.update` with a
re-sized service version when thresholds are crossed.

The *what-to-deploy-at-level-N* question is the tenant's: they supply a
``version_builder(level) -> NFFG`` (same service id, more/fewer
workers).  The controller owns *when*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.nffg.graph import NFFG
from repro.orchestration.escape import EscapeOrchestrator
from repro.sim.kernel import Simulator

VersionBuilder = Callable[[int], NFFG]


class ScalingAction(str, enum.Enum):
    NONE = "none"
    OUT = "scale-out"
    IN = "scale-in"
    BLOCKED = "blocked"      #: wanted to scale but update failed


@dataclass(frozen=True)
class ScalingRule:
    """Thresholds for one managed service."""

    metric_hop: str            #: SG hop whose rate is watched
    scale_out_pps: float       #: packets/virtual-second to scale out at
    scale_in_pps: float        #: packets/virtual-second to scale in at
    min_level: int = 1
    max_level: int = 4

    def __post_init__(self):
        if self.scale_in_pps >= self.scale_out_pps:
            raise ValueError("scale_in threshold must be below scale_out")
        if self.min_level < 1 or self.max_level < self.min_level:
            raise ValueError("invalid level bounds")


@dataclass
class ScalingEvent:
    service_id: str
    action: ScalingAction
    level_before: int
    level_after: int
    observed_pps: float
    error: str = ""


@dataclass
class _ManagedService:
    rule: ScalingRule
    version_builder: VersionBuilder
    level: int
    last_packets: int = 0
    last_poll_ms: float = 0.0


class ElasticityController:
    """Threshold-based horizontal scaler for deployed services."""

    def __init__(self, escape: EscapeOrchestrator,
                 simulator: Optional[Simulator] = None):
        self.escape = escape
        self.simulator = simulator or escape.simulator
        if self.simulator is None:
            raise ValueError("elasticity needs the shared simulator")
        self._managed: dict[str, _ManagedService] = {}
        self.events: list[ScalingEvent] = []

    # -- registration ---------------------------------------------------

    def manage(self, service_id: str, rule: ScalingRule,
               version_builder: VersionBuilder,
               initial_level: Optional[int] = None) -> None:
        """Start managing a deployed service.

        ``version_builder(level)`` must return a service NFFG with the
        *same* service id; level ``initial_level`` (default
        ``rule.min_level``) is assumed to be what is currently running.
        """
        if service_id not in self.escape.deployed_services():
            raise ValueError(f"service {service_id!r} is not deployed")
        level = initial_level if initial_level is not None else rule.min_level
        self._managed[service_id] = _ManagedService(
            rule=rule, version_builder=version_builder, level=level,
            last_poll_ms=self.simulator.now)
        # baseline the counters so the first poll measures fresh traffic
        stats = self.escape.service_flow_stats(service_id)
        hop_stats = stats.get(rule.metric_hop, {"packets": 0})
        self._managed[service_id].last_packets = hop_stats["packets"]

    def unmanage(self, service_id: str) -> None:
        self._managed.pop(service_id, None)

    def managed_level(self, service_id: str) -> int:
        return self._managed[service_id].level

    # -- the control loop --------------------------------------------------

    def poll(self) -> list[ScalingEvent]:
        """Evaluate every managed service once; apply scaling actions."""
        fired: list[ScalingEvent] = []
        now = self.simulator.now
        for service_id, state in list(self._managed.items()):
            event = self._evaluate(service_id, state, now)
            if event is not None:
                fired.append(event)
                self.events.append(event)
        return fired

    def _evaluate(self, service_id: str, state: _ManagedService,
                  now: float) -> Optional[ScalingEvent]:
        elapsed_ms = now - state.last_poll_ms
        if elapsed_ms <= 0:
            return None
        stats = self.escape.service_flow_stats(service_id)
        hop_stats = stats.get(state.rule.metric_hop)
        if hop_stats is None:
            return None
        packets = hop_stats["packets"]
        pps = (packets - state.last_packets) / (elapsed_ms / 1000.0)
        state.last_packets = packets
        state.last_poll_ms = now
        rule = state.rule
        if pps >= rule.scale_out_pps and state.level < rule.max_level:
            return self._rescale(service_id, state, state.level + 1,
                                 ScalingAction.OUT, pps)
        if pps <= rule.scale_in_pps and state.level > rule.min_level:
            return self._rescale(service_id, state, state.level - 1,
                                 ScalingAction.IN, pps)
        return None

    def _rescale(self, service_id: str, state: _ManagedService,
                 new_level: int, action: ScalingAction,
                 pps: float) -> ScalingEvent:
        new_version = state.version_builder(new_level)
        if new_version.id != service_id:
            raise ValueError(
                f"version_builder must keep service id {service_id!r}, "
                f"got {new_version.id!r}")
        report = self.escape.update(new_version)
        if report.success:
            before, state.level = state.level, new_level
            # re-baseline: hop counters restart with the new flows
            stats = self.escape.service_flow_stats(service_id)
            hop_stats = stats.get(state.rule.metric_hop, {"packets": 0})
            state.last_packets = hop_stats["packets"]
            return ScalingEvent(service_id=service_id, action=action,
                                level_before=before, level_after=new_level,
                                observed_pps=pps)
        return ScalingEvent(service_id=service_id,
                            action=ScalingAction.BLOCKED,
                            level_before=state.level,
                            level_after=state.level,
                            observed_pps=pps, error=report.error)
