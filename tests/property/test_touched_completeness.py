"""The touched set handed to ``adapter.install`` is complete.

An adapter brings its domain from the graph of its last successful
install to the current one by looking at the ``touched`` members only,
so a member that changed without being named is a silent divergence.
Along the seeded sequences of ``test_incremental_dov``, a deploy /
teardown / heal churn over five domains and ``test_delta_push_equiv``
every install is checked here: every member whose ``to_dict()``
differs from the previous successful install is named, each
maintained view equals a fresh slice of the DoV, what the adapter holds
afterwards (the direct adapter's record, every NETCONF adapter's
acknowledged virtualizer) equals the whole view encoded anew, and
``cal.verify()`` is empty; and between any two graphs an adapter is
handed in a row, ``differing_members`` names an edit that
``refresh_members`` can replay.  Both the maintained view and the
direct adapter's record are edited in place: a named port whose only
change was its flow rules, and a named link whose only change was its
reservation, is the object it was before the edit.
Day-2 sequences — ``mark_stale()``, ``rebuild()``, a link flap with
``heal()``, ``update()`` — are drawn over a ring, flat and under a
parent orchestrator, where a healthy domain never sees ``None`` after
first contact.  After
anything that leaves the domain's state in doubt — a raising adapter, an
open breaker, a refusing child, a drifted patch base — or a refetch
that moved the domain's infras, the next install gets ``None`` and a
correct whole view; dropped derived state alone gets the members on
which the new slice differs from the old.
"""

import json
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import sanitize
from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder
from repro.nffg.builder import mesh_substrate
from repro.nffg.model import EdgeLink, NodeInfra, ResourceVector
from repro.nffg.ops import differing_members, refresh_members
from repro.orchestration import (
    DirectDomainAdapter,
    EmuDomainAdapter,
    UnifyAgent,
    UnifyDomainAdapter,
)
from repro.orchestration.escape import EscapeOrchestrator
from repro.resilience import BreakerState, FaultKind, FaultPlan, FaultyAdapter
from repro.resilience.retry import RetryPolicy
from repro.virtualizer import nffg_to_virtualizer

from tests.property.test_delta_push_equiv import (
    _fig1_sequence,
    _Universe,
)
from tests.property.test_incremental_dov import (
    _chain_request,
    _fresh_cal,
    canonical,
    ops,
)
from tests.test_cal import CountingAdapter, _pinned_service, domain_view

DOMAINS = ["d0", "d1", "d2", "d3", "d4"]


def _escape():
    escape = EscapeOrchestrator("churn")
    escape.cal.breaker_failure_threshold = 2
    adapters = {name: escape.add_domain(
        CountingAdapter(name, domain_view(name))) for name in DOMAINS}
    return escape, adapters


def _run_churn(escape, operations):
    for kind, index, domain_index in operations:
        service_id = f"s{index}"
        deployed = service_id in escape.cal.deployed_services()
        if kind == "deploy" and not deployed:
            escape.deploy(_pinned_service(index, DOMAINS[domain_index]),
                          wait_activation=False)
        elif kind == "teardown" and deployed:
            escape.teardown(service_id)
        elif kind == "heal":
            escape.heal()
        assert escape.cal.verify() == []


churn = st.lists(
    st.tuples(st.sampled_from(["deploy", "teardown", "heal"]),
              st.integers(0, 3),
              st.integers(0, len(DOMAINS) - 1)),
    min_size=2, max_size=10)


def _frozen(data) -> str:
    return json.dumps(data, sort_keys=True)


def _members(install) -> dict[tuple, str]:
    """Every separately addressable member of an install graph, frozen:
    nodes (an infra without its ports), infra ports (without their flow
    rules), flow rules and edges."""
    members = {}
    for node in install.nodes:
        data = node.to_dict()
        if isinstance(node, NodeInfra):
            data.pop("ports", None)
            for port in node.ports.values():
                port_data = port.to_dict()
                for rule in port_data.pop("flowrules", ()):
                    members["rule", node.id, port.id, rule.get("hop_id"),
                            rule["match"]] = _frozen(rule)
                members["port", node.id, port.id] = _frozen(port_data)
        members["node", node.id] = _frozen(data)
    for edge in install.edges:
        members["edge", edge.id] = _frozen(edge.to_dict())
    return members


def _records(graph) -> tuple:
    """``graph`` and, for each infra port and link in it, the object
    and its data without the one field an edit may change in place
    (flow rules; ``reserved``)."""
    records = {}
    for infra in graph.infras:
        for port in infra.ports.values():
            data = port.to_dict()
            data.pop("flowrules", None)
            records["port", infra.id, port.id] = (port, _frozen(data))
    for edge in graph.edges:
        if isinstance(edge, EdgeLink):
            data = edge.to_dict()
            data.pop("reserved")
            records["edge", edge.id] = (edge, _frozen(data))
    return graph, records


def _kept_in_place(before, graph, touched) -> Counter:
    """Assert that each port and link ``touched`` names that ``graph``
    already had at ``before`` (a :func:`_records` of it), and whose only
    change since is its flow rules or reservation, is the same object;
    returns how many were checked, by kind.  A link joined to a re-read
    node left and came back with it, so is not checked."""
    held, records = before
    kept = Counter()
    if touched is None or graph is not held:
        return kept
    now = _records(graph)[1]
    named = ({("port", *port) for port in touched.ports}
             | {("edge", edge_id) for edge_id in touched.edges})
    for key in named & records.keys() & now.keys():
        (was, data), (member, now_data) = records[key], now[key]
        if key[0] == "edge" and touched.nodes & {member.src_node,
                                                 member.dst_node}:
            continue
        if data == now_data:
            assert member is was, f"{key} was replaced, not edited"
            kept[key[0]] += 1
    return kept


def _named(touched, key) -> bool:
    kind, member_id = key[0], key[1]
    if kind == "edge":
        return member_id in touched.edges
    if member_id in touched.nodes:      # the node, its ports, their rules
        return True
    if kind == "node" or key[1:3] not in touched.ports:
        return False
    return kind == "port" or key[3] in touched.hops


class InstallWatch:
    """Sits in front of one adapter's ``install`` and holds every
    ``touched`` it receives against what really changed since the last
    install that succeeded."""

    def __init__(self, adapter):
        self.adapter = adapter
        self.base = None       # members at the last successful install
        self.last = None       # a copy of the graph of the last install
        self.received = []     # the ``touched`` of every install
        #: _records of the last graph handed over / the adapter's record
        self.view = self.record = (None, {})
        #: members checked to have been edited in place, per graph held
        self.kept = {"view": Counter(), "record": Counter()}
        self._install = adapter.install
        adapter.install = self

    def __call__(self, install, touched=None):
        now = _members(install)
        self.received.append(touched)
        self.kept["view"] += _kept_in_place(self.view, install, touched)
        self.view = _records(install)
        if touched is not None:
            assert self.base is not None, (
                f"{self.adapter.name}: an edit over no agreed base")
            changed = {key for key in now.keys() | self.base.keys()
                       if now.get(key) != self.base.get(key)}
            unnamed = sorted(key for key in changed
                             if not _named(touched, key))
            assert not unnamed, f"{self.adapter.name}: changed, not named"
        if self.last is not None:
            edit = differing_members(self.last, install)
            if edit is not None:
                refresh_members(self.last, install, edit)
                assert canonical(self.last) == canonical(install)
        self.last = install.copy()
        report = self._install(install, touched)
        self.base = now if report.success else None
        if report.success:
            self._holds(install)
        return report

    def _holds(self, install) -> None:
        """What the adapter keeps of the push equals the whole view."""
        inner = getattr(self.adapter, "inner", self.adapter)
        record = getattr(inner, "installed", None)
        if record is not None:
            assert record is not install
            assert canonical(record) == canonical(install)
            self.kept["record"] += _kept_in_place(
                self.record, record, self.received[-1])
            self.record = _records(record)
        tree = getattr(inner, "_acked_tree", None)
        if tree is not None:
            whole = nffg_to_virtualizer(install, install.id).tree
            assert tree.digest() == whole.digest()
            assert tree.to_json() == whole.to_json()


def _watch(cal) -> dict[str, InstallWatch]:
    return {name: InstallWatch(adapter)
            for name, adapter in cal.adapters.items()}


def _assert_views_current(cal) -> None:
    """Every maintained view, once it took what the folds still owe it,
    is the slice ``_install_for`` would cut now."""
    assert cal.verify() == []
    for name, held in cal._views.items():
        if not cal._touched.get(name):
            assert canonical(held.graph) == canonical(
                cal._install_for(cal.adapters[name])), name


@given(ops)
@settings(max_examples=25, deadline=None)
def test_single_domain_deploy_update_teardown(operations):
    from repro.orchestration.ro import ResourceOrchestrator

    cal, ro = _fresh_cal(), ResourceOrchestrator()
    watch = _watch(cal)["dom"]
    for kind, index in operations:
        service_id = f"p{index}"
        deployed = service_id in cal.deployed_services()
        if kind == "teardown":
            cal.remove_service(service_id)
        elif kind == "update" and deployed:
            snapshot = cal.snapshot_service(service_id)
            cal.remove_service(service_id)
            result = ro.orchestrate(_chain_request(index, 2),
                                    cal.resource_view())
            if result.success:
                cal.commit_mapping(service_id, result.service, result)
            else:
                cal.restore_service(service_id, snapshot)
        elif not deployed:
            result = ro.orchestrate(_chain_request(index, 1),
                                    cal.resource_view())
            if result.success:
                cal.commit_mapping(service_id, result.service, result)
        assert all(report.success for report in cal.push_planned())
        _assert_views_current(cal)
    # one slice at first contact, an edit ever after
    assert watch.received[0] is None
    assert None not in watch.received[1:]


@given(churn)
@settings(max_examples=15, deadline=None)
def test_churn_with_heal(operations):
    escape, _ = _escape()
    _watch(escape.cal)
    for operation in operations:
        _run_churn(escape, [operation])
        _assert_views_current(escape.cal)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fig1_deploy_update_teardown_heal_trip_crash(seed):
    watches = None
    for _, _, escape in _fig1_sequence(seed):
        # the adapters, and the watches with them, outlive the crash
        watches = watches or _watch(escape.cal)
        _assert_views_current(escape.cal)
    assert all(None in watch.received[1:] for watch in watches.values())
    assert all(sum((watch.kept["view"] for watch in watches.values()),
                   Counter())[kind] for kind in ("port", "edge"))


def test_deploy_update_teardown_heal_edit_in_place():
    """Over a mesh whose routes cross links, the maintained view and the
    direct adapter's record keep every port an edit only re-rules and
    every link it only re-reserves."""
    escape = EscapeOrchestrator("in-place")
    adapter = escape.add_domain(DirectDomainAdapter("dom", mesh_substrate(
        12, degree=3, seed=5, supported_types=["firewall"])))
    watch = _watch(escape.cal)["dom"]
    for index in range(4):
        assert escape.deploy(_chain_request(index, 2),
                             wait_activation=False).success
    assert escape.update(_chain_request(1, 1)).success
    assert escape.teardown("p2").success
    # a link p0 is routed over goes: heal re-routes what crossed it
    routes = escape.cal.snapshot_service("p0")[1].hop_routes.values()
    adapter._view.remove_edge(next(link_id for route in routes
                                   for link_id in route.link_ids))
    escape.cal.mark_stale(("dom",))
    healed = escape.heal()
    assert "p0" in healed and all(map(bool, healed.values()))
    assert escape.deploy(_chain_request(4, 2), wait_activation=False).success
    _assert_views_current(escape.cal)
    assert all(watch.kept[check][kind] for check in ("view", "record")
               for kind in ("port", "edge")), watch.kept


def test_breaker_trip_queues_only_its_own_domain():
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        escape = EscapeOrchestrator("isolation")
        escape.cal.breaker_failure_threshold = 2
        adapters = {name: escape.add_domain(
            CountingAdapter(name, domain_view(name)))
            for name in ("d0", "d1", "d2")}
        cal = escape.cal

        # hammer d2 until its breaker opens, deploying into d0 between
        # failures so the healthy domains keep taking planned pushes
        adapters["d2"].broken = True
        assert not escape.deploy(_pinned_service(0, "d2"),
                                 wait_activation=False)
        assert escape.deploy(_pinned_service(1, "d0"),
                             wait_activation=False)
        assert cal.breakers["d2"].state is BreakerState.OPEN

        # only d2 holds replay debt; the other breakers never moved
        assert cal.pending_reconciliation() == {"d2"}
        for name in ("d0", "d1"):
            assert cal.breakers[name].state is BreakerState.CLOSED

        # recovery drains the queue
        adapters["d2"].broken = False
        cal.reconcile(force_probe=True)
        assert cal.pending_reconciliation() == set()
        assert cal.breakers["d2"].state is BreakerState.CLOSED
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.ok(), report.render_text()


def test_churn_is_sanitizer_clean():
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        escape, _ = _escape()
        _run_churn(escape, [("deploy", i, i % len(DOMAINS))
                            for i in range(4)]
                   + [("heal", 0, 0), ("teardown", 1, 0),
                      ("deploy", 1, 2)])
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.locks_seen >= 3
    assert report.ok(), report.render_text()


def test_fig1_sequence_is_sanitizer_clean():
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        for _, _, escape in _fig1_sequence(1):
            pass
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.ok(), report.render_text()


day2_ops = st.lists(
    st.tuples(st.sampled_from(["deploy", "update", "teardown", "mark_stale",
                               "rebuild", "fail", "restore"]),
              st.integers(0, 2)),
    min_size=3, max_size=10)


@pytest.mark.parametrize("levels", [1, 2])
@given(day2_ops)
@settings(max_examples=12, deadline=None)
def test_day2_operations_push_edits_over_a_ring(levels, operations):
    """A three-switch ring whose sap1 - sap2 link can fail: whatever is
    dropped and re-derived in between, a healthy domain is handed
    ``None`` once (the watches hold every edit against what changed).
    A link flap moves no NF host, so its heal starts and stops no NF;
    a chain none of whose routes crossed the link gets no FlowMod under
    its hop ids, and its packet counters never go down."""
    net = Network()
    ring = [f"emu-bb{i}" for i in range(3)]
    domain = EmulatedDomain("emu", net, node_ids=ring, links=[
        (ring[0], ring[1]), (ring[1], ring[2]), (ring[0], ring[2])])
    domain.add_sap("sap1", ring[0])
    domain.add_sap("sap2", ring[1])
    stack = [EscapeOrchestrator("level0", simulator=net.simulator)]
    stack[0].add_domain(EmuDomainAdapter("emu", domain))
    if levels == 2:
        stack.append(EscapeOrchestrator("level1", simulator=net.simulator))
        stack[1].add_domain(UnifyDomainAdapter("level0-dom",
                                               UnifyAgent(stack[0])))
    top = stack[-1]
    watches = [watch for escape in stack
               for watch in _watch(escape.cal).values()]
    bottom = stack[0]
    emu = bottom.cal.adapters["emu"].orchestrator
    nf_events, cookies = [], []
    notify, send_flow_mod = emu.notify, emu.controller.send_flow_mod

    def noting(event, data):
        if event in ("vnf-started", "vnf-stopped"):
            nf_events.append((event, data["id"]))
        notify(event, data)

    def sending(dpid, **fields):
        cookies.append(fields.get("cookie", ""))
        send_flow_mod(dpid, **fields)

    emu.notify, emu.controller.send_flow_mod = noting, sending
    h1, h2 = domain.sap_hosts["sap1"], domain.sap_hosts["sap2"]
    flapped = False
    kinds: dict[str, str] = {}
    link_up = True
    try:
        for kind, index in operations:
            name = f"r{index}"
            if kind == "deploy" and name not in kinds:
                kinds[name] = "firewall"
                assert top.deploy(_chain(name)).success
            elif kind == "update" and name in kinds:
                kinds[name] = "nat" if kinds[name] == "firewall" else "firewall"
                assert top.update(_chain(name, kinds[name])).success
            elif kind == "teardown" and name in kinds:
                del kinds[name]
                assert top.teardown(name).success
            elif kind in ("mark_stale", "rebuild"):
                cal = stack[index % levels].cal
                getattr(cal, kind)()
                assert all(report.success for report in cal.push_planned())
            elif kind in ("fail", "restore") and link_up == (kind == "fail"):
                h1.send(tcp_packet(h1.ip, h2.ip))
                net.run()
                routes = {service_id: bottom.cal.snapshot_service(
                    service_id)[1].hop_routes.values()
                    for service_id in bottom.deployed_services()}
                untouched = {service_id: bottom.service_flow_stats(service_id)
                             for service_id, hops in routes.items()
                             if not any(_crosses(route, *ring[:2])
                                        for route in hops)}
                running, events, sent = (dict(emu._deployed_nfs),
                                         len(nf_events), len(cookies))
                (net.fail_link if link_up else net.restore_link)(*ring[:2])
                link_up, flapped = not link_up, True
                for escape in stack:
                    assert all(report.success
                               for report in escape.heal().values())
                assert emu._deployed_nfs == running
                assert len(nf_events) == events
                for service_id, counted in untouched.items():
                    assert not counted.keys() & set(cookies[sent:])
                    now = bottom.service_flow_stats(service_id)
                    assert all(now[hop]["packets"] >= stats["packets"]
                               for hop, stats in counted.items())
            for escape in stack:
                _assert_views_current(escape.cal)
                assert len(escape.deployed_services()) == len(kinds)
    finally:
        for escape in stack:
            escape.cal.dispatcher.shutdown()
    # a flap moves the diameter delay of the one BiS-BiS the parent is
    # shown: an infra changed, its next view goes out whole
    for watch in watches[:1 if flapped else levels]:
        assert None not in watch.received[1:], watch.adapter.name


def test_nf_moving_between_domains_leaves_the_old_view():
    escape, adapters, watches = _two_domains()
    cal = escape.cal
    cal.remove_service("s0")
    result = escape.ro.orchestrate(_pinned_service(0, "b"),
                                   cal.resource_view())
    cal.commit_mapping("s0", result.service, result)
    assert [report.domain for report in cal.push_planned()] == ["a", "b"]
    assert "s0-fw" in watches["a"].received[-1].nodes
    assert "s0-fw" in watches["b"].received[-1].nodes
    assert not adapters["a"].installed.has_node("s0-fw")
    assert escape.cal.dov.host_of("s0-fw") == "b-bb0"
    assert adapters["b"].installed.host_of("s0-fw") == "b-bb0"
    _assert_views_current(escape.cal)


def test_reports_count_what_the_views_hold():
    escape, adapters, _ = _two_domains()
    for operation in (lambda: escape.deploy(_pinned_service(3, "a"),
                                            wait_activation=False).adapters,
                      lambda: escape.teardown("s0").adapters,
                      escape.cal.push_all):
        for pushed in operation():
            record = adapters[pushed.domain].installed
            assert pushed.nfs_requested == len(record.nfs) > 0
            assert pushed.flowrules_requested == sum(
                len(port.flowrules) for infra in record.infras
                for port in infra.ports.values()) > 0


# -- whatever leaves the domain's state in doubt -> None, whole view ---------


def _two_domains():
    escape = EscapeOrchestrator("doubt")
    escape.cal.breaker_failure_threshold = 2
    adapters = {name: escape.add_domain(
        CountingAdapter(name, domain_view(name))) for name in ("a", "b")}
    watches = _watch(escape.cal)
    for index, name in enumerate(("a", "b", "a")):
        assert escape.deploy(_pinned_service(index, name),
                             wait_activation=False)
    first, second = watches["a"].received
    assert first is None and second.nodes == {"s2-fw"}
    return escape, adapters, watches


def _assert_next_is_whole(escape, watch, push) -> None:
    sent = len(watch.received)
    assert all(report.success for report in push())
    assert watch.received[sent:] == [None]
    name = watch.adapter.name
    assert canonical(watch.adapter.installed) == canonical(
        escape.cal._install_for(escape.cal.adapters[name]))
    _assert_views_current(escape.cal)


def test_raising_adapter_gets_the_whole_view_next():
    escape, adapters, watches = _two_domains()
    before = canonical(adapters["a"].installed)
    adapters["a"].broken = True
    assert not escape.teardown("s0")
    assert canonical(adapters["a"].installed) == before
    adapters["a"].broken = False
    _assert_next_is_whole(escape, watches["a"], escape.cal.push_planned)
    assert not adapters["a"].installed.has_node("s0-fw")


def test_open_breaker_gets_the_whole_view_next():
    escape, adapters, watches = _two_domains()
    cal = escape.cal
    adapters["a"].broken = True
    for _ in range(cal.breaker_failure_threshold):
        cal.push_all()
    assert cal.breakers["a"].state is BreakerState.OPEN
    adapters["a"].broken = False
    before, sent = canonical(adapters["a"].installed), adapters["a"].installs
    cal.remove_service("s0")
    reports = {report.domain: report for report in cal.push_planned()}
    assert reports["a"].skipped
    # the skipped push reached neither the adapter nor its record
    assert adapters["a"].installs == sent
    assert canonical(adapters["a"].installed) == before
    _assert_next_is_whole(escape, watches["a"],
                          lambda: cal.reconcile(force_probe=True))
    assert not adapters["a"].installed.has_node("s0-fw")


def test_refused_push_leaves_the_record_alone():
    escape = EscapeOrchestrator("refused")
    plan = FaultPlan()
    inner = CountingAdapter("a", domain_view("a"))
    faulty = escape.add_domain(FaultyAdapter(inner, plan))
    faulty.retry_policy = RetryPolicy(max_attempts=1)
    watch = _watch(escape.cal)["a"]
    assert escape.deploy(_pinned_service(0, "a"), wait_activation=False)
    assert inner.installed is not escape.cal._views["a"].graph
    before = canonical(inner.installed)
    plan.add("a", "push", count=1)
    assert not escape.deploy(_pinned_service(1, "a"), wait_activation=False)
    assert canonical(inner.installed) == before
    # the rollback push was the next one: whole view, service 1 gone
    assert watch.received[-1] is None
    assert canonical(inner.installed) == before
    _assert_views_current(escape.cal)


@pytest.mark.parametrize("drop", ["mark_stale", "rebuild"])
def test_dropped_derived_state_gets_what_differs(drop):
    escape, adapters, watches = _two_domains()
    cal = escape.cal
    held = cal._views["a"].graph
    getattr(cal, drop)()
    assert cal._views == {} and cal._touched == {}
    cal.remove_service("s0")
    sent = adapters["a"].installs
    assert all(report.success for report in cal.push_planned())
    assert cal._views["a"].graph is not held and cal._replaced == {}
    # the watch holds what is named against what changed; nothing else
    received = watches["a"].received[-1]
    assert received.nodes == {"s0-fw"} and received.hops == {
        "s0-hop1", "s0-hop2"}
    assert {port for _, port in received.ports} == {
        "s0-fw-1", "s0-fw-2", "to-a-sap1"}
    assert all("s0" in edge_id for edge_id in received.edges)
    assert not adapters["a"].installed.has_node("s0-fw")
    assert adapters["a"].installs == sent + 1
    # dropped again with nothing changed in between: an empty edit
    replaced = cal._views["a"].graph
    getattr(cal, drop)()
    getattr(cal, drop)()
    assert cal._replaced["a"] is replaced
    assert all(report.success for report in cal.push_planned())
    for watch in watches.values():
        assert watch.received[-1] is not None and not watch.received[-1]
    assert canonical(adapters["a"].installed) == canonical(
        cal._install_for(cal.adapters["a"]))
    _assert_views_current(cal)


def test_unchanged_reslice_sends_no_rpc():
    universe = _Universe(full=False)
    cal, adapter = universe.cal, universe.adapter
    watch = _watch(cal)["dom"]
    universe.apply("deploy", 0)
    universe.push()
    sent = adapter.channel.stats.messages
    cal.mark_stale()
    (report,) = cal.push_planned()
    assert report.success and report.delta
    assert watch.received[-1] is not None and not watch.received[-1]
    assert adapter.channel.stats.messages == sent


@pytest.mark.parametrize("moved", ["one infra more", "capacity changed"])
def test_moved_infra_set_gets_the_whole_view_next(moved):
    escape, adapters, watches = _two_domains()
    view = adapters["a"]._view
    if moved == "one infra more":
        view.add_infra("a-bb1", supported_types=["firewall"])
    else:
        view.infra("a-bb0").resources = ResourceVector(
            cpu=16.0, mem=8192.0, storage=64.0, bandwidth=10_000.0, delay=0.1)
    escape.cal.mark_stale()
    _assert_next_is_whole(escape, watches["a"], escape.cal.push_planned)
    # b's infras are what they were: an empty edit
    assert watches["b"].received[-1] is not None
    assert not watches["b"].received[-1]


def test_quarantined_domain_gets_its_empty_graph_whole_and_returns_whole():
    escape, adapters, watches = _two_domains()
    cal = escape.cal

    def unreachable():
        raise RuntimeError("a unreachable")

    fetch, adapters["a"].get_view = adapters["a"].get_view, unreachable
    cal.mark_stale()
    sent = len(watches["a"].received)
    assert all(report.success for report in cal.push_planned())
    # left out of the merge: nothing of a's is in the DoV to slice
    assert cal.last_view_failures == {"a"}
    assert watches["a"].received[sent:] == [None]
    assert cal._views["a"].graph.id == "a-empty"
    assert not adapters["a"].installed.nodes
    assert watches["b"].received[-1] is not None
    assert not watches["b"].received[-1]
    adapters["a"].get_view = fetch
    _assert_next_is_whole(escape, watches["a"], cal.push_planned)
    assert adapters["a"].installed.has_node("s0-fw")


def test_reset_delta_state_sends_the_whole_config_next():
    universe = _Universe(full=False)
    cal, adapter = universe.cal, universe.adapter
    watch = _watch(cal)["dom"]
    universe.apply("deploy", 0)
    universe.push()
    universe.apply("deploy", 1)
    universe.push()
    assert watch.received[1] is not None
    adapter.reset_delta_state()
    universe.apply("teardown", 0)
    (report,) = cal.push_planned()
    assert report.success and not report.delta
    view = cal._install_for(adapter)
    whole = nffg_to_virtualizer(view, view.id).tree
    assert adapter.server.running.tree.digest() == whole.digest()
    assert adapter._acked_tree.digest() == whole.digest()
    _assert_views_current(cal)


def _crosses(route, a, b) -> bool:
    """Does a hop route use a link between infras ``a`` and ``b``?"""
    return any({here, there} == {a, b} for here, there
               in zip(route.infra_path, route.infra_path[1:]))


# -- through the Unify interface ------------------------------------------------


def _chain(service_id, kind="firewall"):
    return (NFFGBuilder(service_id).sap("sap1").sap("sap2")
            .nf(f"{service_id}-{kind}", kind)
            .chain("sap1", f"{service_id}-{kind}", "sap2", bandwidth=2.0)
            .build())


def test_unify_boundary_deploy_update_teardown_refusal_resync():
    """A parent above a child orchestrator: after every operation both
    levels' acknowledged trees are their whole views encoded anew (the
    watches), the agent left alone every part the edit did not name,
    every level verifies — and no lock was held across any of it."""
    previous = sanitize.disable()
    state = sanitize.enable(fresh=True)
    try:
        net = Network()
        domain = EmulatedDomain("emu", net, node_ids=["emu-bb0", "emu-bb1"],
                                links=[("emu-bb0", "emu-bb1")])
        domain.add_sap("sap1", "emu-bb0")
        domain.add_sap("sap2", "emu-bb1")
        child = EscapeOrchestrator("child", simulator=net.simulator)
        plan = FaultPlan()
        child.add_domain(FaultyAdapter(EmuDomainAdapter("emu", domain), plan)
                         ).retry_policy = RetryPolicy(max_attempts=1)
        agent = UnifyAgent(child)
        parent = EscapeOrchestrator("parent", simulator=net.simulator)
        south = parent.add_domain(UnifyDomainAdapter("child-dom", agent))
        watches = {**_watch(child.cal), **_watch(parent.cal)}
        live: set[str] = set()

        def settled(subject, *, whole=False):
            """``subject`` was just written; nothing else was touched."""
            received = watches["child-dom"].received[-1]
            assert (received is None) == whole
            assert agent.last_edit["kept"] == sorted(
                f"child-client-{name}-hop1" for name in live - {subject})
            assert sorted(child.deployed_services()) == sorted(
                f"child-client-{name}-hop1" for name in live)
            assert south._acked_tree is not None
            for escape in (parent, child):
                _assert_views_current(escape.cal)

        for name in ("a", "b", "c"):
            assert parent.deploy(_chain(name)).success
            live.add(name)
            settled(name, whole=name == "a")  # first contact
        assert parent.update(_chain("b", "nat")).success
        settled("b")  # update() re-derives every view: compared, an edit
        assert parent.teardown("a").success
        live.discard("a")
        settled("a")
        # the child's domain refuses: the parent rolls back with a whole
        # push, and the chains that were there never left
        plan.add("emu", "push", kind=FaultKind.FATAL, count=1)
        report = parent.deploy(_chain("d"))
        assert not report.success and not report.rollback_failures()
        settled("d", whole=True)
        assert parent.deploy(_chain("d")).success
        live.add("d")
        settled("d")
        south.reset_delta_state()
        assert not parent.deploy(_chain("e")).adapters[0].delta
        live.add("e")
        settled("e")  # an edit was handed over; a replace went out
        agent.running.digest ^= 1  # another writer got in: delta-mismatch
        (pushed,) = parent.teardown("c").adapters
        assert pushed.success and not pushed.delta and pushed.messages == 3
        live.discard("c")
        settled("c")
        assert parent.teardown("b").adapters[0].delta
        live.discard("b")
        settled("b")
    finally:
        sanitize.disable()
        sanitize.restore(previous)
    report = state.report()
    assert report.acquisitions > 0
    assert report.ok(), report.render_text()
