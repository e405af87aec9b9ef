"""A POX-style controller framework.

POX structures a controller as *components* that register on a core
event bus and react to ``PacketIn`` / ``ConnectionUp`` events.  The
:class:`POXController` here keeps that shape: it owns a
:class:`~repro.openflow.controller.ControllerEndpoint`, converts raw
OF messages into bus events, and ships the three components the UNIFY
prototype relies on — L2 learning for default connectivity, topology
bookkeeping, and a path pusher the domain adapter calls to install
chain-steering flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import networkx as nx

from repro.infra.flowprog import Flow, FlowProgrammer
from repro.netem.packet import Packet
from repro.openflow.controller import ControllerEndpoint
from repro.openflow.messages import (
    ActionOutput,
    ActionPopVlan,
    Match,
    OFPP_FLOOD,
    PacketIn,
)
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.kernel import Simulator


@dataclass
class Event:
    """A bus event: name + payload."""

    name: str
    data: dict[str, Any] = field(default_factory=dict)


class EventBus:
    """Minimal synchronous publish/subscribe."""

    def __init__(self) -> None:
        self._subscribers: dict[str, list[Callable[[Event], None]]] = {}
        self.events_published = 0

    def subscribe(self, name: str, handler: Callable[[Event], None]) -> None:
        self._subscribers.setdefault(name, []).append(handler)

    def publish(self, event: Event) -> None:
        self.events_published += 1
        for handler in self._subscribers.get(event.name, ()):
            handler(event)


class POXController:
    """Controller core: endpoint + event bus + components."""

    def __init__(self, name: str = "pox", simulator: Optional[Simulator] = None):
        self.name = name
        self.endpoint = ControllerEndpoint(name, simulator=simulator)
        self.bus = EventBus()
        self.components: dict[str, "Component"] = {}
        self.endpoint.on_packet_in(self._on_packet_in)

    def register(self, component: "Component") -> "Component":
        self.components[component.name] = component
        component.launch(self)
        return component

    def connect(self, switch: OpenFlowSwitch) -> None:
        self.endpoint.connect_switch(switch)
        self.bus.publish(Event("ConnectionUp", {"dpid": switch.dpid,
                                                "switch": switch}))

    def _on_packet_in(self, dpid: str, message: PacketIn) -> None:
        self.bus.publish(Event("PacketIn", {"dpid": dpid, "msg": message}))


class Component:
    """Base POX-style component."""

    name = "component"

    def launch(self, controller: POXController) -> None:
        self.controller = controller


class L2LearningComponent(Component):
    """Classic l2_learning: learn src MACs, flood unknown destinations,
    install exact-match forwarding entries for known ones."""

    name = "l2_learning"

    def __init__(self, flow_priority: int = 10, idle_timeout: float = 0.0):
        self.tables: dict[str, dict[str, str]] = {}
        self.flow_priority = flow_priority
        self.idle_timeout = idle_timeout
        self.floods = 0
        self.installs = 0

    def launch(self, controller: POXController) -> None:
        super().launch(controller)
        controller.bus.subscribe("PacketIn", self._handle)

    def _handle(self, event: Event) -> None:
        dpid: str = event.data["dpid"]
        message: PacketIn = event.data["msg"]
        packet: Packet = message.packet
        if packet is None:
            return
        table = self.tables.setdefault(dpid, {})
        table[packet.eth_src] = message.in_port
        out_port = table.get(packet.eth_dst)
        endpoint = self.controller.endpoint
        if out_port is None:
            self.floods += 1
            endpoint.send_packet_out(dpid, packet, message.in_port,
                                     [ActionOutput(OFPP_FLOOD)],
                                     buffer_id=message.xid)
            return
        self.installs += 1
        endpoint.send_flow_mod(
            dpid, match=Match(dl_dst=packet.eth_dst),
            actions=[ActionOutput(out_port)],
            priority=self.flow_priority, idle_timeout=self.idle_timeout,
            cookie="l2")
        endpoint.send_packet_out(dpid, packet, message.in_port,
                                 [ActionOutput(out_port)],
                                 buffer_id=message.xid)


class TopologyComponent(Component):
    """Topology bookkeeping.

    Real POX discovers links with LLDP; the emulated equivalent is told
    the topology by the domain when links are created (the information
    content is identical and deterministic).
    """

    name = "topology"

    def __init__(self) -> None:
        self.graph = nx.DiGraph()

    def launch(self, controller: POXController) -> None:
        super().launch(controller)
        controller.bus.subscribe("ConnectionUp", self._on_up)

    def _on_up(self, event: Event) -> None:
        self.graph.add_node(event.data["dpid"])

    def add_link(self, src_dpid: str, src_port: str, dst_dpid: str,
                 dst_port: str, *, delay: float = 1.0) -> None:
        self.graph.add_edge(src_dpid, dst_dpid, src_port=src_port,
                            dst_port=dst_port, delay=delay)
        self.graph.add_edge(dst_dpid, src_dpid, src_port=dst_port,
                            dst_port=src_port, delay=delay)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        return nx.shortest_path(self.graph, src, dst, weight="delay")

    def port_towards(self, src: str, dst: str) -> str:
        return self.graph.edges[src, dst]["src_port"]

    def ingress_port(self, src: str, dst: str) -> str:
        return self.graph.edges[src, dst]["dst_port"]


class PathPusherComponent(Component):
    """Install a matched path of flows across the legacy network.

    The UNIFY adapter calls :meth:`push_path` with edge ports and an
    optional VLAN (the chain tag): flows are installed hop by hop and
    can be removed again by cookie.
    """

    name = "path_pusher"

    def __init__(self, topology: TopologyComponent, priority: int = 200):
        self.topology = topology
        self.priority = priority
        self.paths_installed = 0

    def launch(self, controller: POXController) -> None:
        super().launch(controller)
        #: cookie -> the entries pushed under it, per switch
        self.flows = FlowProgrammer(controller.endpoint)

    def push_path(self, *, ingress_dpid: str, ingress_port: str,
                  egress_dpid: str, egress_port: str,
                  match_vlan: Optional[int] = None,
                  flowclass: str = "", cookie: str = "",
                  strip_vlan_at_egress: bool = False) -> list[str]:
        """Returns the dpid path; raises ``networkx.NetworkXNoPath``."""
        path = self.topology.shortest_path(ingress_dpid, egress_dpid)
        flows: list[Flow] = []
        in_port = ingress_port
        for index, dpid in enumerate(path):
            if index < len(path) - 1:
                out_port = self.topology.port_towards(dpid, path[index + 1])
            else:
                out_port = egress_port
            base = Match.from_flowclass(flowclass, in_port=in_port)
            if match_vlan is not None:
                base = Match(**{**base.to_dict(), "dl_vlan": match_vlan})
            actions = []
            if (strip_vlan_at_egress and index == len(path) - 1
                    and match_vlan is not None):
                actions.append(ActionPopVlan())
            actions.append(ActionOutput(out_port))
            flows.append(Flow(dpid, base, tuple(actions), self.priority,
                              cookie))
            if index < len(path) - 1:
                in_port = self.topology.ingress_port(dpid, path[index + 1])
        pushed = self.flows.sources(cookie)
        pushed[f"path{len(pushed)}"] = tuple(flows)
        self.flows.sync({cookie: pushed}, lambda _, __, flows: flows)
        self.paths_installed += 1
        return path

    def remove_by_cookie(self, cookie: str) -> None:
        """Remove what was pushed under ``cookie``: per entry, and only
        on the switches that carry one."""
        self.flows.sync({cookie: {}}, lambda *_: ())
