"""Property-based tests for the NFFG model (hypothesis)."""

import hypothesis.strategies as st
import networkx as nx
from hypothesis import given, settings

from repro.nffg import (
    NFFG,
    ResourceVector,
    merge_nffgs,
    nffg_from_dict,
    nffg_from_json,
    nffg_to_dict,
    nffg_to_json,
    remaining_nffg,
)
from repro.nffg.model import DomainType, EdgeLink, LinkType, NodeInfra, NodeNF
from repro.nffg.ops import Touched, nffg_facts, refresh_members

from tests.property.test_incremental_dov import canonical

resources = st.builds(
    ResourceVector,
    cpu=st.floats(0, 128, allow_nan=False),
    mem=st.floats(0, 1 << 16, allow_nan=False),
    storage=st.floats(0, 1 << 10, allow_nan=False),
    bandwidth=st.floats(0, 1 << 14, allow_nan=False),
    delay=st.floats(0, 100, allow_nan=False),
)

node_ids = st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8)


@st.composite
def random_nffg(draw):
    """A random but structurally valid NFFG with infras, links, NFs."""
    nffg = NFFG(id=f"g{draw(st.integers(0, 999))}")
    infra_count = draw(st.integers(1, 6))
    domains = list(DomainType)
    for index in range(infra_count):
        nffg.add_infra(f"bb{index}", resources=draw(resources),
                       domain=draw(st.sampled_from(domains)),
                       num_ports=0)
    # random connected-ish links
    for index in range(infra_count - 1):
        src, dst = f"bb{index}", f"bb{index + 1}"
        port_s = nffg.infra(src).add_port(f"to-{dst}")
        port_d = nffg.infra(dst).add_port(f"to-{src}")
        nffg.add_link(src, port_s.id, dst, port_d.id,
                      bandwidth=draw(st.floats(1, 1000, allow_nan=False)),
                      delay=draw(st.floats(0, 10, allow_nan=False)))
    nf_count = draw(st.integers(0, 4))
    for index in range(nf_count):
        nf = nffg.add_nf(f"nf{index}", draw(st.sampled_from(
            ["firewall", "nat", "dpi"])), resources=draw(resources),
            num_ports=2)
        host = f"bb{draw(st.integers(0, infra_count - 1))}"
        if nffg.infra(host).supports(nf.functional_type):
            nffg.place_nf(nf.id, host)
    return nffg


@given(random_nffg())
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip_preserves_everything(nffg):
    clone = nffg_from_dict(nffg_to_dict(nffg))
    assert clone.summary() == nffg.summary()
    assert {n.id for n in clone.nodes} == {n.id for n in nffg.nodes}
    assert {e.id for e in clone.edges} == {e.id for e in nffg.edges}
    for nf in nffg.nfs:
        assert clone.host_of(nf.id) == nffg.host_of(nf.id)


@given(random_nffg())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_is_fixed_point(nffg):
    once = nffg_to_json(nffg)
    assert nffg_to_json(nffg_from_json(once)) == once


@given(random_nffg())
@settings(max_examples=30, deadline=None)
def test_copy_never_aliases(nffg):
    clone = nffg.copy()
    for node in clone.nodes:
        assert node is not nffg.node(node.id)
    assert clone.summary() == nffg.summary()


def _copy_subgraph_by_edge_scan(graph, new_id, node_ids):
    """``NFFG.copy_subgraph`` as it was before it walked the kept nodes'
    adjacency: one pass over every edge of the source graph."""
    clone = NFFG(id=new_id)
    for node_id in node_ids:
        clone.add_node_copy(graph.node(node_id))
    for edge in graph.edges:
        if (isinstance(edge, EdgeLink) and clone.has_node(edge.src_node)
                and clone.has_node(edge.dst_node)):
            clone.add_edge_copy(edge)
    return clone


@given(random_nffg(), st.data())
@settings(max_examples=60, deadline=None)
def test_copy_subgraph_equals_the_edge_scan(nffg, data):
    nfs = [nf.id for nf in nffg.nfs]
    for index, (src, dst) in enumerate(zip(nfs, nfs[1:])):
        nffg.add_sg_hop(src, "1", dst, "2", id=f"hop{index}")
    kept = data.draw(st.lists(st.sampled_from([n.id for n in nffg.nodes]),
                              unique=True))
    walked = nffg.copy_subgraph("sub", kept)
    scanned = _copy_subgraph_by_edge_scan(nffg, "sub", kept)
    assert [node.id for node in walked.nodes] == kept
    assert nffg_facts("", walked) == nffg_facts("", scanned)
    assert ({edge.id: edge.to_dict() for edge in walked.edges}
            == {edge.id: edge.to_dict() for edge in scanned.edges})
    for node_id in kept:
        assert walked.node(node_id) is not nffg.node(node_id)
        assert walked.node(node_id).to_dict() == nffg.node(node_id).to_dict()
        assert ({edge.id for edge in walked.edges_of(node_id)}
                == {edge.id for edge in scanned.edges_of(node_id)})
    assert all(edge is not nffg.edge(edge.id) for edge in walked.edges)
    assert walked.validate() == []


@given(random_nffg(), st.data())
@settings(max_examples=60, deadline=None)
def test_refresh_members_follows_the_named_edits(nffg, data):
    """A copy that re-reads exactly the members an edit wrote — NFs
    that left or arrived with their ports, a flow rule, a reservation —
    ends up equal to a new copy, and shares nothing with the source."""
    follower = nffg.copy()
    touched = Touched()
    placed = [nf.id for nf in nffg.nfs if nffg.host_of(nf.id)]
    for nf_id in data.draw(st.lists(st.sampled_from(placed), unique=True)
                           if placed else st.just([])):
        for link in list(nffg.edges_of(nf_id)):
            infra_id, port_id = ((link.dst_node, link.dst_port)
                                 if link.src_node == nf_id
                                 else (link.src_node, link.src_port))
            nffg.remove_edge(link.id)
            nffg.infra(infra_id).ports.pop(port_id, None)
            touched.ports.add((infra_id, port_id))
        nffg.remove_node(nf_id)
        touched.nodes.add(nf_id)
    host = data.draw(st.sampled_from([infra.id for infra in nffg.infras]))
    if data.draw(st.booleans()):
        nffg.add_nf("arrival", "firewall", num_ports=2)
        touched.nodes.add("arrival")
        touched.ports.update((link.dst_node, link.dst_port)
                             for link in nffg.place_nf("arrival", host))
    ports = [(infra.id, port.id) for infra in nffg.infras
             for port in infra.ports.values()]
    if ports and data.draw(st.booleans()):
        infra_id, port_id = data.draw(st.sampled_from(ports))
        nffg.infra(infra_id).ports[port_id].add_flowrule(
            f"in_port={port_id}", "output=1", hop_id="new-hop")
        touched.ports.add((infra_id, port_id))
        touched.hops.add("new-hop")
    if nffg.links and data.draw(st.booleans()):
        link = data.draw(st.sampled_from(nffg.links))
        link.reserved += 1.0
        touched.edges.add(link.id)
    refresh_members(follower, nffg, touched)
    assert nffg_facts("", follower) == nffg_facts("", nffg)
    assert canonical(follower) == canonical(nffg)  # ports come in any order
    assert follower.validate() == []
    assert all(node is not nffg.node(node.id) for node in follower.nodes)
    assert all(edge is not nffg.edge(edge.id) for edge in follower.edges)
    assert all(port is not nffg.node(node.id).ports[port.id]
               for node in follower.nodes for port in node.ports.values())


def _queries(graph, node_ids):
    """What the adjacency-walking accessors answer, per node."""
    return {node_id: ([edge.id for edge in graph.edges_of(node_id)],
                      graph.host_of(node_id),
                      [nf.id for nf in graph.nfs_on(node_id)],
                      graph.infra_port_of_nf(node_id, "1"),
                      graph.infra_port_of_nf(node_id, "2"))
            for node_id in node_ids}


def _dynamic(edge):
    return isinstance(edge, EdgeLink) and edge.link_type == LinkType.DYNAMIC


def _nx_queries(ref, graph, node_ids):
    """The same accessors as they read a networkx ``MultiDiGraph`` that
    holds ``graph``'s adjacency: the order they must keep."""
    answers = {}
    for node_id in node_ids:
        if node_id not in ref:
            answers[node_id] = ([], None, [], None, None)
            continue
        out = [(dst, key) for _, dst, key in ref.out_edges(node_id, keys=True)]
        into = [(src, key) for src, _, key in ref.in_edges(node_id, keys=True)]
        out_ids = [key for _, key in out]
        hosts = [dst for dst, key in out if _dynamic(graph.edge(key))
                 and isinstance(graph.node(dst), NodeInfra)]
        hosted = [src for src, key in into if _dynamic(graph.edge(key))
                  and isinstance(graph.node(src), NodeNF)]
        bound = {}
        for _, key in out:
            edge = graph.edge(key)
            if _dynamic(edge):
                bound.setdefault(edge.src_port, (edge.dst_node, edge.dst_port))
        answers[node_id] = (
            out_ids + [key for _, key in into if key not in out_ids],
            hosts[0] if hosts else None,
            list(dict.fromkeys(hosted)),
            bound.get("1"), bound.get("2"))
    return answers


def _nx_rebuilt(node_ids, edge_ids, graph):
    """A ``MultiDiGraph`` filled node by node, then edge by edge."""
    ref = nx.MultiDiGraph()
    ref.add_nodes_from(node_ids)
    for edge_id in edge_ids:
        edge = graph.edge(edge_id)
        ref.add_edge(edge.src_node, edge.dst_node, key=edge_id)
    return ref


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_adjacency_walks_in_networkx_order(data):
    """The NFFG's own adjacency, driven through the same adds and
    removals as a networkx ``MultiDiGraph`` (self-loops and parallel
    edges included), answers every adjacency walk in the order networkx
    does — neighbour by first insertion, then edge by insertion — and so
    do its copies.  Encode order and mapping tie-breaks rest on it."""
    pool = [f"n{index}" for index in range(5)]
    nffg, ref = NFFG(id="o"), nx.MultiDiGraph()
    for step in range(data.draw(st.integers(1, 30))):
        present = [node_id for node_id in pool if nffg.has_node(node_id)]
        op = data.draw(st.sampled_from(
            ["node", "edge", "edge", "edge", "drop node", "drop edge"]))
        if op == "node" or not present:
            absent = [node_id for node_id in pool if node_id not in present]
            if absent:
                node_id = data.draw(st.sampled_from(absent))
                kind = data.draw(st.sampled_from(["nf", "sap", "infra"]))
                if kind == "nf":
                    nffg.add_nf(node_id, "firewall", num_ports=2)
                elif kind == "sap":
                    nffg.add_sap(node_id, num_ports=2)
                else:
                    nffg.add_infra(node_id, num_ports=2)
                ref.add_node(node_id)
        elif op == "edge":
            src, dst = (data.draw(st.sampled_from(present)) for _ in "sd")
            src_port, dst_port = (data.draw(st.sampled_from(["1", "2"]))
                                  for _ in "sd")
            kind = data.draw(st.sampled_from(["static", "dynamic", "hop"]))
            edge_id = f"e{step}"
            if kind == "hop":
                nffg.add_sg_hop(src, src_port, dst, dst_port, id=edge_id)
            else:
                nffg.add_link(src, src_port, dst, dst_port, id=edge_id,
                              link_type=LinkType(kind.upper()),
                              bidirectional=False)
            ref.add_edge(src, dst, key=edge_id)
        elif op == "drop node":
            node_id = data.draw(st.sampled_from(present))
            nffg.remove_node(node_id)
            ref.remove_node(node_id)
        elif nffg.edges:
            edge = data.draw(st.sampled_from(nffg.edges))
            nffg.remove_edge(edge.id)
            ref.remove_edge(edge.src_node, edge.dst_node, key=edge.id)
        assert _queries(nffg, pool) == _nx_queries(ref, nffg, pool)

        edge_ids = [edge.id for edge in nffg.edges]
        clone = nffg.copy()
        assert [edge.id for edge in clone.edges] == edge_ids
        assert _queries(clone, pool) == _nx_queries(
            _nx_rebuilt([node.id for node in nffg.nodes], edge_ids, nffg),
            clone, pool)

        kept = data.draw(st.lists(st.sampled_from(
            [node.id for node in nffg.nodes]), unique=True)
            if nffg.nodes else st.just([]))
        walk = [key for src in kept
                for _, dst, key in ref.out_edges(src, keys=True)
                if dst in kept and isinstance(nffg.edge(key), EdgeLink)]
        sub = nffg.copy_subgraph("sub", kept)
        assert [edge.id for edge in sub.edges] == walk
        assert _queries(sub, pool) == _nx_queries(
            _nx_rebuilt(kept, walk, nffg), sub, pool)


@given(random_nffg())
@settings(max_examples=30, deadline=None)
def test_remaining_resources_never_negative(nffg):
    remaining = remaining_nffg(nffg)
    for infra in remaining.infras:
        assert infra.resources.cpu >= 0
        assert infra.resources.mem >= 0
        assert infra.resources.storage >= 0
    for link in remaining.links:
        assert link.bandwidth >= 0
        assert link.reserved == 0


@given(random_nffg())
@settings(max_examples=20, deadline=None)
def test_merge_with_relabeled_copy_preserves_node_count(view):
    data = nffg_to_dict(view)
    relabeled = nffg_to_dict(view)
    rename = {node["id"]: "peer-" + node["id"]
              for node in relabeled["nodes"]}
    for node in relabeled["nodes"]:
        node["id"] = rename[node["id"]]
    for edge in relabeled["edges"]:
        edge["id"] = "peer-" + edge["id"]
        edge["src_node"] = rename[edge["src_node"]]
        edge["dst_node"] = rename[edge["dst_node"]]
    views = [nffg_from_dict(data), nffg_from_dict(relabeled)]
    merged = merge_nffgs(views)
    assert len(merged.nodes) == 2 * len(view.nodes)


@given(resources, resources)
def test_add_then_subtract_is_identity(a, b):
    result = (a + b) - b
    for field_name in ("cpu", "mem", "storage", "bandwidth", "delay"):
        assert abs(getattr(result, field_name)
                   - getattr(a, field_name)) < 1e-6


@given(resources)
def test_fits_within_is_reflexive(a):
    assert a.fits_within(a)
