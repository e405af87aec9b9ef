"""OpenDaylight-style fabric controller.

Programs the DC leaf-spine fabric through OpenFlow, exposed to the
local orchestrator as a northbound "install path / remove path" API
(the shape of ODL's flow-programming REST interface).  Internally it is
a :class:`~repro.openflow.controller.ControllerEndpoint` plus a
topology graph, like the POX controller but DC-flavoured.
"""

from __future__ import annotations

from typing import Any, Optional

import networkx as nx

from repro.infra.flowprog import Flow, FlowProgrammer
from repro.openflow.controller import ControllerEndpoint
from repro.openflow.messages import (
    Action,
    ActionOutput,
    ActionPopVlan,
    ActionPushVlan,
    Match,
)
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.kernel import Simulator


class OdlController:
    """Fabric controller: connects switches, installs tagged paths."""

    def __init__(self, name: str = "odl", simulator: Optional[Simulator] = None):
        self.name = name
        self.endpoint = ControllerEndpoint(name, simulator=simulator)
        self.graph = nx.DiGraph()
        #: keyed path records: what is on the fabric, and its only writer
        self.flows = FlowProgrammer(self.endpoint)
        self.paths_installed = 0

    def connect(self, switch: OpenFlowSwitch) -> None:
        self.endpoint.connect_switch(switch)
        self.graph.add_node(switch.dpid)

    def register_link(self, src_dpid: str, src_port: str, dst_dpid: str,
                      dst_port: str) -> None:
        self.graph.add_edge(src_dpid, dst_dpid, src_port=src_port,
                            dst_port=dst_port)
        self.graph.add_edge(dst_dpid, src_dpid, src_port=dst_port,
                            dst_port=src_port)

    def install_path(self, *, cookie: str = "", **spec: Any) -> list[str]:
        """Install one more unidirectional flow path (see
        :meth:`path_flows` for the arguments) under ``cookie``; returns
        the switches it crosses."""
        flows = self.path_flows(spec, cookie)
        paths = self.flows.sources(cookie)
        paths[f"path{len(paths)}"] = spec
        self.flows.sync({cookie: paths}, lambda *_: flows)
        return [flow.dpid for flow in flows]

    def remove_by_cookie(self, cookie: str) -> None:
        """Remove the paths installed under ``cookie``: per entry, and
        only on the switches that carry one."""
        self.flows.sync({cookie: {}}, lambda *_: ())

    def path_flows(self, spec: dict[str, Any], cookie: str = "") -> list[Flow]:
        """The entries of one path across the fabric, ingress first.
        ``spec`` holds

        - ``ingress_dpid``/``ingress_port``/``egress_dpid``/
          ``egress_port`` and an optional ``flowclass``;
        - ``match_vlan``: VLAN the traffic carries when entering the
          domain (matched at the ingress switch; e.g. the inter-domain
          chain tag), or None for untagged ingress;
        - ``transport_vlan``: VLAN isolating this path *inside* the
          fabric (pushed at ingress, popped at egress; skipped on
          single-switch paths);
        - ``egress_vlan``: VLAN the traffic must carry when it leaves
          the path (next chain tag, or the preserved ingress tag for
          transit), or None for untagged egress.

        VLAN tags are single-level (push overwrites, pop clears), which
        matches the single-tag steering the prototype uses.
        """
        ingress_dpid, egress_dpid = spec["ingress_dpid"], spec["egress_dpid"]
        egress_port = spec["egress_port"]
        flowclass = spec.get("flowclass", "")
        transport_vlan = spec.get("transport_vlan")
        match_vlan = spec.get("match_vlan")
        egress_vlan = spec.get("egress_vlan")
        flows: list[Flow] = []
        path = nx.shortest_path(self.graph, ingress_dpid, egress_dpid)
        single = len(path) == 1
        in_port = spec["ingress_port"]
        for index, dpid in enumerate(path):
            first = index == 0
            last = index == len(path) - 1
            out_port = (egress_port if last
                        else self.graph.edges[dpid, path[index + 1]]["src_port"])
            if first:
                match = Match.from_flowclass(flowclass, in_port=in_port)
                if match_vlan is not None:
                    match = Match(**{**match.to_dict(), "dl_vlan": match_vlan})
            else:
                match = Match(in_port=in_port, dl_vlan=transport_vlan)
            actions: list[Action] = []
            if first and not single and transport_vlan is not None:
                actions.append(ActionPushVlan(transport_vlan))
            if last:
                carried = (transport_vlan if (not single
                                              and transport_vlan is not None)
                           else match_vlan)
                if egress_vlan is None and carried is not None:
                    actions.append(ActionPopVlan())
                elif egress_vlan is not None and egress_vlan != carried:
                    actions.append(ActionPushVlan(egress_vlan))
            actions.append(ActionOutput(out_port))
            flows.append(Flow(dpid, match, tuple(actions),
                              300 if first else 250, cookie))
            if not last:
                in_port = self.graph.edges[dpid, path[index + 1]]["dst_port"]
        self.paths_installed += 1
        return flows

    def flow_mods_sent(self) -> int:
        return self.endpoint.flow_mods_sent
