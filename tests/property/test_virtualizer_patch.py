"""The acknowledged virtualizer is edited in place into the whole
encode, for the cost of the edit.

The south side of the Unify interface keeps the virtualizer tree its
domain acknowledged and brings it to the current install view by
encoding the ``touched`` members only (``encode_members``) and putting
each one that differs in the place of the one the tree holds
(``edit_virtualizer``).  For drawn views — a substrate seen as one
BiS-BiS, one per domain or its whole topology, with chains on it — and
drawn edits folded in the way the CAL folds them (the DoV is written,
``refresh_members`` re-reads the named members into the install view,
which moves them to the back of the graph), the edited tree is
``nffg_to_virtualizer`` of the whole view leaf for leaf; the script it
returns is ``diff_trees`` of the tree before and that whole encode,
entry for entry and in order (so the wire is what a diff would send);
the digest mask and size growth it returns move the old tree's digest
and size to the whole encode's; and every instance the edit did not
name is the object the tree held before.  An adapter whose edit raises
part-way forgets the tree it was editing: its next push is a replace.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.emu import EmulatedDomain
from repro.netem import Network
from repro.nffg.builder import linear_substrate
from repro.nffg.model import DomainType
from repro.nffg.ops import Touched, refresh_members
from repro.orchestration import EmuDomainAdapter
from repro.virtualizer import convert
from repro.virtualizer.convert import (
    edit_virtualizer,
    encode_members,
    nffg_to_virtualizer,
)
from repro.virtualizer.views import (
    FullTopologyView,
    PerDomainBiSBiSView,
    SingleBiSBiSView,
)
from repro.yang.data import data_from_dict
from repro.yang.diff import diff_trees

KINDS = ("firewall", "nat")
POLICIES = (SingleBiSBiSView("one"), PerDomainBiSBiSView(), FullTopologyView())


@st.composite
def views(draw):
    """A 1-5 node line over up to three domains, as a client sees it."""
    substrate = linear_substrate(draw(st.integers(1, 5)), id="d",
                                 supported_types=KINDS)
    for infra in substrate.infras:
        infra.domain = draw(st.sampled_from(
            [DomainType.INTERNAL, DomainType.SDN, DomainType.OPENSTACK]))
    return draw(st.sampled_from(POLICIES)).build_view(substrate, "view")


def _rule(graph, touched, infra_id, port_id, hop_id, out):
    graph.infra(infra_id).port(port_id).add_flowrule(
        f"in_port={port_id}", f"output={out}", bandwidth=1.0, hop_id=hop_id)
    touched.ports.add((infra_id, port_id))
    if hop_id:
        touched.hops.add(hop_id)


def _deploy(graph, touched, name, host, ingress, transit):
    """One NF on ``host`` between two hops, the second also routed over
    the ``transit`` (infra, port); recorded as ``_mark_dirty`` would."""
    graph.add_nf(name, KINDS[len(name) % 2], num_ports=2)
    touched.nodes.add(name)
    touched.ports.update((link.dst_node, link.dst_port)
                         for link in graph.place_nf(name, host))
    _rule(graph, touched, host, ingress, f"{name}-in", f"{name}-1")
    _rule(graph, touched, host, f"{name}-2", f"{name}-out", ingress)
    if transit is not None:
        _rule(graph, touched, *transit, f"{name}-out", "elsewhere")


def _remove(graph, touched, name):
    hops = {f"{name}-in", f"{name}-out"}
    touched.hops |= hops
    for infra in graph.infras:
        for port in list(infra.ports.values()):
            if any(rule.hop_id in hops for rule in port.flowrules):
                port.flowrules[:] = [rule for rule in port.flowrules
                                     if rule.hop_id not in hops]
                touched.ports.add((infra.id, port.id))
            if port.id.startswith(f"{name}-"):  # the attachment ports go
                del infra.ports[port.id]
                touched.ports.add((infra.id, port.id))
    graph.remove_node(name)
    touched.nodes.add(name)


def _edit(graph, touched, data, counter):
    infras = [infra.id for infra in graph.infras]
    ports = [(infra.id, port.id) for infra in graph.infras
             for port in infra.ports.values()]
    nfs = [nf.id for nf in graph.nfs]
    kind = data.draw(st.sampled_from(
        ["deploy", "hopless", "port", "link"] + ["remove", "move"] * bool(nfs)))
    if kind in ("deploy", "move"):
        name = data.draw(st.sampled_from(nfs)) if kind == "move" \
            else f"nf{next(counter)}"
        if kind == "move":  # to another BiS-BiS, or back onto its own
            _remove(graph, touched, name)
        # chains enter over ports that stay: a port goes with the hops
        # its rules are under (an NF's attachment ports), or it has none
        ports = [pair for pair in ports
                 if not pair[1].startswith(("nf", "loose"))]
        host = data.draw(st.sampled_from(infras))
        ingress = data.draw(st.sampled_from(
            [port for infra_id, port in ports if infra_id == host]))
        transit = data.draw(st.one_of(st.none(), st.sampled_from(ports)))
        _deploy(graph, touched, name, host, ingress, transit)
    elif kind == "remove":
        _remove(graph, touched, data.draw(st.sampled_from(nfs)))
    elif kind == "hopless":  # a rule without a hop id comes, or all go
        infra_id, port_id = data.draw(st.sampled_from(ports))
        port = graph.infra(infra_id).port(port_id)
        if data.draw(st.booleans()):
            _rule(graph, touched, infra_id, port_id, None,
                  f"p{next(counter)}")
        else:
            port.flowrules[:] = [rule for rule in port.flowrules
                                 if rule.hop_id]
            touched.ports.add((infra_id, port_id))
    elif kind == "port":  # a port nothing hangs on comes or goes
        infra = graph.infra(data.draw(st.sampled_from(infras)))
        loose = [port_id for port_id in infra.ports
                 if port_id.startswith("loose")]
        port_id = loose[0] if loose else f"loose{next(counter)}"
        if loose:
            del infra.ports[port_id]
        else:
            infra.add_port(port_id)
        touched.ports.add((infra.id, port_id))
    elif graph.links:
        link = data.draw(st.sampled_from(graph.links))
        link.reserved += 1.0
        link.bandwidth += data.draw(st.sampled_from([0.0, 5.0]))
        touched.edges.add(link.id)


def _instances(tree):
    """(path, instance) of every list instance a patch may adopt."""
    found = []
    nodes = tree.find("nodes/node")
    for node in nodes.instances() if nodes is not None else ():
        found.append((("node", node.key_value), node))
        for kind in ("ports/port", "NF_instances/node", "flowtable/flowentry"):
            holder = node.find(kind)
            for instance in holder.instances() if holder is not None else ():
                found.append(((kind, node.key_value, instance.key_value),
                              instance))
    links = tree.find("links/link")
    for link in links.instances() if links is not None else ():
        found.append((("link", link.key_value), link))
    return found


def _named(touched, opened, path) -> bool:
    kind, key = path[0], path[-1]
    if kind == "link":
        return key in touched.edges
    if kind == "node":
        return key in opened
    if kind == "ports/port":
        return path[1:] in touched.ports
    if kind == "NF_instances/node":
        return key in touched.nodes
    port_id, hopless, _ = key.rpartition("#")
    if hopless:
        return (path[1], port_id) in touched.ports
    port_id, _, hop_id = key.partition(":")
    return (path[1], port_id) in touched.ports and hop_id in touched.hops


@given(views(), st.data())
@settings(max_examples=120, deadline=None)
def test_edited_tree_is_the_whole_encode_and_the_script_its_diff(view, data):
    dov, install = view, view.copy()
    acked = nffg_to_virtualizer(install, install.id).tree
    counter = iter(range(1000))
    for _ in range(data.draw(st.integers(1, 4))):          # pushes
        touched = Touched()
        for _ in range(data.draw(st.integers(1, 3))):      # folds between
            _edit(dov, touched, data, counter)
        touched.edges |= refresh_members(install, dov, touched)
        before, old = dict(_instances(acked)), acked.copy()
        acked.measure()  # measured: the edit moves the tree's cache
        script = edit_virtualizer(
            acked, encode_members(install, touched), touched)
        whole = nffg_to_virtualizer(install, install.id).tree
        assert acked.to_json() == whole.to_json()
        assert acked.validate() == []
        assert script == diff_trees(old, whole)
        assert acked.measure() == whole.measure() == data_from_dict(
            acked.schema, acked.to_dict()).measure()
        opened = ({node_id for node_id, _ in touched.ports}
                  | {install.host_of(nf_id) for nf_id in touched.nodes})
        for path, instance in _instances(acked):
            if not _named(touched, opened, path):
                assert instance is before[path], path


def test_an_edit_that_raises_part_way_forgets_the_acknowledged_tree(
        monkeypatch):
    net = Network()
    domain = EmulatedDomain("emu", net, node_ids=["bb0"])
    domain.add_sap("sap1", "bb0")
    domain.add_sap("sap2", "bb0")
    adapter = EmuDomainAdapter("emu", domain)

    def install(*hops):
        view = domain.domain_view()
        for hop_id in hops:
            view.infra("bb0").port("sap-sap1").add_flowrule(
                f"in_port=sap-sap1;flowclass=tp_dst={hop_id[1:]}",
                "output=sap-sap2", hop_id=hop_id)
        return view

    assert adapter.install(install("h1")).success
    assert adapter._acked_tree is not None
    # the edit has written its first list when the second one fails
    written, write = [], convert._ListEdit.write

    def failing(edit):
        if written:
            raise RuntimeError("edit failed part-way")
        written.append(edit)
        write(edit)

    monkeypatch.setattr(convert._ListEdit, "write", failing)
    touched = Touched(ports={("bb0", "sap-sap1"), ("bb0", "loose")},
                      hops={"h1", "h2"})
    view = install("h2")
    view.infra("bb0").add_port("loose")
    report = adapter.install(view, touched)
    assert not report.success and "part-way" in report.error
    assert written and adapter._acked_tree is None
    monkeypatch.undo()
    resync = adapter.install(view, touched)
    assert resync.success and not resync.delta and resync.messages == 2
    assert adapter._acked_tree.digest() == nffg_to_virtualizer(
        view, view.id).tree.digest()
    assert [entry.cookie for entry in domain.switches["bb0"].table.entries()
            ] == ["h2"]
