"""Tests for shared infra pieces: chain tags, flow-rule translation,
the flow-table diff."""


from repro.infra.flowprog import (
    FlowProgrammer,
    flowrule_to_flowmod,
    program_infra_flows,
    remove_service_flows,
    rule_flow,
)
from repro.infra.tags import vlan_for_hop
from repro.netem import Network
from repro.nffg.model import Flowrule, NodeInfra
from repro.openflow import ControllerEndpoint, OpenFlowSwitch
from repro.openflow.messages import (
    ActionOutput,
    ActionPopVlan,
    ActionPushVlan,
    BarrierRequest,
    FlowMod,
)


class TestVlanForHop:
    def test_deterministic(self):
        assert vlan_for_hop("hop-a") == vlan_for_hop("hop-a")

    def test_in_valid_range(self):
        for hop_id in ("h1", "svc-hop3", "a" * 100, ""):
            vlan = vlan_for_hop(hop_id)
            assert 100 <= vlan < 4000 + 100

    def test_distinct_for_typical_ids(self):
        vlans = {vlan_for_hop(f"svc-hop{i}") for i in range(100)}
        assert len(vlans) >= 98  # collisions possible but rare


class TestFlowruleTranslation:
    def test_plain_output(self):
        rule = Flowrule(match="in_port=p1", action="output=p2")
        match, actions, priority = flowrule_to_flowmod(rule)
        assert match.in_port == "p1"
        assert actions == [ActionOutput("p2")]

    def test_flowclass_fields(self):
        rule = Flowrule(match="in_port=p1;flowclass=tp_dst=80,nw_proto=6",
                        action="output=p2")
        match, actions, _ = flowrule_to_flowmod(rule)
        assert match.tp_dst == 80 and match.nw_proto == 6

    def test_tag_match_becomes_vlan(self):
        rule = Flowrule(match="in_port=p1;tag=hop9", action="output=p2")
        match, _, _ = flowrule_to_flowmod(rule)
        assert match.dl_vlan == vlan_for_hop("hop9")

    def test_tag_action_pushes_vlan(self):
        rule = Flowrule(match="in_port=p1", action="output=p2;tag=hop9")
        _, actions, _ = flowrule_to_flowmod(rule)
        assert ActionPushVlan(vlan_for_hop("hop9")) in actions
        # push happens before output
        assert actions.index(ActionPushVlan(vlan_for_hop("hop9"))) < \
            actions.index(ActionOutput("p2"))

    def test_untag_action_pops_vlan(self):
        rule = Flowrule(match="in_port=p1;tag=hop9",
                        action="output=p2;untag")
        _, actions, _ = flowrule_to_flowmod(rule)
        assert ActionPopVlan() in actions

    def test_priority_scales_with_specificity(self):
        vague = Flowrule(match="in_port=p1", action="output=p2")
        precise = Flowrule(match="in_port=p1;flowclass=tp_dst=80,nw_src=1.2.3.4",
                           action="output=p2")
        _, _, p_vague = flowrule_to_flowmod(vague)
        _, _, p_precise = flowrule_to_flowmod(precise)
        assert p_precise > p_vague


class TestProgramInfraFlows:
    def _wired(self):
        net = Network()
        switch = net.add(OpenFlowSwitch("bb", net.simulator))
        controller = ControllerEndpoint("c", simulator=net.simulator)
        controller.connect_switch(switch)
        infra = NodeInfra("bb")
        port = infra.add_port("p1")
        infra.add_port("p2")
        return switch, controller, infra, port

    def test_installs_one_flowmod_per_rule(self):
        switch, controller, infra, port = self._wired()
        port.add_flowrule("in_port=p1", "output=p2", hop_id="h1")
        port.add_flowrule("in_port=p1;flowclass=tp_dst=80", "output=p2",
                          hop_id="h2")
        sent = program_infra_flows(controller, "bb", infra)
        assert sent == 2
        assert switch.flow_count() == 2

    def test_missing_in_port_defaults_to_rule_port(self):
        switch, controller, infra, port = self._wired()
        port.add_flowrule("flowclass=tp_dst=80", "output=p2")
        program_infra_flows(controller, "bb", infra)
        entry = switch.table.entries()[0]
        assert entry.match.in_port == "p1"

    def test_hop_filter(self):
        switch, controller, infra, port = self._wired()
        port.add_flowrule("in_port=p1", "output=p2", hop_id="keep")
        port.add_flowrule("in_port=p1;flowclass=tp_dst=1", "output=p2",
                          hop_id="skip")
        sent = program_infra_flows(controller, "bb", infra,
                                   hop_filter={"keep"})
        assert sent == 1

    def test_cookie_teardown(self):
        switch, controller, infra, port = self._wired()
        port.add_flowrule("in_port=p1", "output=p2", hop_id="h1")
        program_infra_flows(controller, "bb", infra, cookie="svc")
        assert switch.flow_count() == 1
        remove_service_flows(controller, "bb", "svc")
        assert switch.flow_count() == 0


class TestFlowProgrammer:
    """The diff every orchestrator programs its switches through."""

    PORT = ("bb", "p1")

    def _wired(self, dpids=("bb",)):
        net = Network()
        controller = ControllerEndpoint("c", simulator=net.simulator)
        switches, sent = {}, []
        for dpid in dpids:
            switch = net.add(OpenFlowSwitch(dpid, net.simulator))
            controller.connect_switch(switch)
            handle = switch.handle_of_message
            switch.channel.bind_b(
                lambda msg, dpid=dpid, handle=handle:
                (sent.append((dpid, msg)), handle(msg)))
            switches[dpid] = switch
        return switches, FlowProgrammer(controller), sent

    @staticmethod
    def _rule(hop_id, tp_dst, out="p2"):
        return Flowrule(match=f"in_port=p1;flowclass=tp_dst={tp_dst}",
                        action=f"output={out}", hop_id=hop_id)

    @staticmethod
    def _translate(port, key, rule):
        return (rule_flow(port[0], port[1], rule),)

    def _sync(self, flows, rules, **kwargs):
        flows.sync({self.PORT: {rule.hop_id: rule for rule in rules}},
                   self._translate, **kwargs)

    def test_sends_only_what_changed(self):
        switches, flows, sent = self._wired()
        a, b, c = (self._rule(f"h{n}", n) for n in (1, 2, 3))
        self._sync(flows, [a, b])
        established = switches["bb"].table.entries()
        del sent[:]
        self._sync(flows, [a, b])
        assert sent == []  # not even a barrier
        self._sync(flows, [a, b, c])
        mods = [msg for _, msg in sent if isinstance(msg, FlowMod)]
        assert [(m.command.value, m.cookie) for m in mods] == [("add", "h3")]
        assert sum(isinstance(m, BarrierRequest) for _, m in sent) == 1
        # the established entries are the same objects, counters and all
        assert switches["bb"].table.entries()[:2] == established
        assert all(new is old for new, old
                   in zip(switches["bb"].table.entries(), established))

    def test_adds_go_before_deletes(self):
        switches, flows, sent = self._wired()
        self._sync(flows, [self._rule("h1", 1), self._rule("h2", 2)])
        del sent[:]
        self._sync(flows, [self._rule("h2", 2), self._rule("h3", 3)])
        mods = [msg for _, msg in sent if isinstance(msg, FlowMod)]
        assert [(m.command.value, m.cookie) for m in mods] == [
            ("add", "h3"), ("delete_strict", "h1")]
        assert sorted(e.cookie for e in switches["bb"].table.entries()) \
            == ["h2", "h3"]

    def test_changed_rule_replaces_in_place_without_a_delete(self):
        switches, flows, sent = self._wired()
        self._sync(flows, [self._rule("h1", 1)])
        del sent[:]
        self._sync(flows, [self._rule("h1", 1, out="p3")])
        mods = [msg for _, msg in sent if isinstance(msg, FlowMod)]
        assert [m.command.value for m in mods] == ["add"]
        (entry,) = switches["bb"].table.entries()
        assert entry.actions == [ActionOutput("p3")]

    def test_one_barrier_per_touched_switch(self):
        switches, flows, sent = self._wired(("s1", "s2", "s3"))
        rule = self._rule("h1", 1)
        flows.sync({("s1", "p1"): {"h1": rule}, ("s2", "p1"): {"h1": rule}},
                   self._translate)
        barriers = [dpid for dpid, msg in sent
                    if isinstance(msg, BarrierRequest)]
        assert sorted(barriers) == ["s1", "s2"]
        assert not any(dpid == "s3" for dpid, _ in sent)

    def test_full_sync_removes_unnamed_groups(self):
        switches, flows, sent = self._wired()
        self._sync(flows, [self._rule("h1", 1)])
        flows.sync({("bb", "p9"): {}}, self._translate)
        assert switches["bb"].flow_count() == 1  # p1 was not named
        flows.sync({}, self._translate, full=True)
        assert switches["bb"].flow_count() == 0
        assert flows.sources(self.PORT) == {}

    def test_shadowed_entry_returns_when_its_shadow_goes(self):
        """Two rules with one match: the table can hold one; removing
        the later one must not leave the earlier one's chain dark."""
        switches, flows, sent = self._wired()
        first, second = self._rule("h1", 7), self._rule("h2", 7, out="p3")
        self._sync(flows, [first])
        self._sync(flows, [first, second])
        (entry,) = switches["bb"].table.entries()
        assert entry.cookie == "h2"
        self._sync(flows, [first])
        (entry,) = switches["bb"].table.entries()
        assert entry.cookie == "h1" and entry.actions == [ActionOutput("p2")]
        self._sync(flows, [])
        assert switches["bb"].flow_count() == 0
