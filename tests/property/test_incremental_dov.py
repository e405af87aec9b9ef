"""Property-based tests for the control-plane fast paths.

Three invariants guard the perf work:

1. the incrementally maintained derived state (DoV, remaining view,
   substrate index) equals a from-scratch re-derivation — merge of the
   adapter views + replay of every deployed service, ``cal.verify()``
   — after every step of any random sequence of deploy / teardown /
   update operations;
2. the hand-rolled ``NFFG.copy()`` fast path produces exactly what
   ``copy.deepcopy`` used to (flow rules, metadata and all);
3. routes served from the shared :class:`PathCache` are identical to
   routes computed from scratch by the uncached Dijkstra.
"""

import copy

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mapping.base import MappingContext
from repro.mapping.pathcache import PathCache
from repro.nffg import NFFG, ResourceVector, nffg_to_dict
from repro.nffg.builder import mesh_substrate
from repro.nffg.model import DomainType
from repro.orchestration.adapters import DirectDomainAdapter
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.ro import ResourceOrchestrator
from repro.service import ServiceRequestBuilder

# -- canonical comparison ---------------------------------------------------
# Compare graphs on sorted canonical dicts, independent of insertion
# order.  One orchestrator against its own rebuild is ``cal.verify()``.


def canonical(nffg: NFFG) -> dict:
    data = nffg_to_dict(nffg)
    for node in data.get("nodes", ()):
        ports = node.get("ports", [])
        for port in ports:
            port["flowrules"] = sorted(
                port.get("flowrules", []),
                key=lambda rule: (rule.get("hop_id", ""),
                                  rule.get("match", "")))
        node["ports"] = sorted(ports, key=lambda port: str(port["id"]))
    data["nodes"] = sorted(data.get("nodes", ()),
                           key=lambda node: str(node["id"]))
    data["edges"] = sorted(data.get("edges", ()),
                           key=lambda edge: str(edge["id"]))
    return data


def _chain_request(index: int, length: int):
    builder = (ServiceRequestBuilder(f"p{index}")
               .sap("sap1").sap("sap2"))
    names = [f"p{index}n{j}" for j in range(length)]
    for name in names:
        builder.nf(name, "firewall", cpu=0.5, mem=32.0)
    builder.chain("sap1", *names, "sap2", bandwidth=1.0)
    return builder.build().sg


def _fresh_cal() -> ControllerAdaptationLayer:
    mesh = mesh_substrate(12, degree=3, seed=5,
                          supported_types=["firewall"])
    cal = ControllerAdaptationLayer()
    cal.register(DirectDomainAdapter("dom", view=mesh))
    return cal


# each op: (kind, service index); "deploy" maps+commits if not deployed,
# "teardown" removes if deployed, "update" re-maps an existing service
ops = st.lists(
    st.tuples(st.sampled_from(["deploy", "teardown", "update"]),
              st.integers(0, 3)),
    min_size=1, max_size=8)


@given(ops)
@settings(max_examples=25, deadline=None)
def test_incremental_dov_equals_rebuild(operations):
    cal = _fresh_cal()
    ro = ResourceOrchestrator()
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
        assert cal.verify() == []


resources = st.builds(
    ResourceVector,
    cpu=st.floats(0, 64, allow_nan=False),
    mem=st.floats(0, 4096, allow_nan=False),
    storage=st.floats(0, 64, allow_nan=False),
    bandwidth=st.floats(0, 1000, allow_nan=False),
    delay=st.floats(0, 10, allow_nan=False),
)


@st.composite
def decorated_nffg(draw):
    """A random NFFG with the trimmings deepcopy has to get right:
    flow rules, metadata, sap-tagged ports, requirement edges."""
    nffg = NFFG(id=f"g{draw(st.integers(0, 99))}", name="prop")
    nffg.metadata["tenant"] = draw(st.text(max_size=6))
    infra_count = draw(st.integers(2, 5))
    for index in range(infra_count):
        infra = nffg.add_infra(
            f"bb{index}", resources=draw(resources),
            domain=draw(st.sampled_from(list(DomainType))),
            supported_types=["firewall"], num_ports=1)
        infra.metadata["rack"] = str(draw(st.integers(0, 9)))
        if draw(st.booleans()):
            infra.add_port(f"sap-{index}", sap_tag=f"tag{index}")
    for index in range(infra_count - 1):
        src, dst = f"bb{index}", f"bb{index + 1}"
        port_s = nffg.infra(src).add_port(f"to-{dst}")
        port_d = nffg.infra(dst).add_port(f"to-{src}")
        nffg.add_link(src, port_s.id, dst, port_d.id,
                      bandwidth=draw(st.floats(1, 100, allow_nan=False)),
                      delay=draw(st.floats(0, 5, allow_nan=False)))
    for index in range(draw(st.integers(0, 3))):
        nf = nffg.add_nf(f"nf{index}", "firewall",
                         resources=draw(resources), num_ports=2)
        nf.metadata["constraint:infra"] = f"bb{index % infra_count}"
        nffg.place_nf(nf.id, f"bb{index % infra_count}")
        for port in nffg.infra(f"bb{index % infra_count}").ports.values():
            port.add_flowrule(match=f"in_port={port.id}",
                              action="output=1",
                              bandwidth=draw(st.floats(0, 10,
                                                       allow_nan=False)),
                              hop_id=f"hop{index}")
            break
    return nffg


@given(decorated_nffg())
@settings(max_examples=40, deadline=None)
def test_copy_fast_path_equals_deepcopy(nffg):
    fast = nffg.copy()
    slow = copy.deepcopy(nffg)
    assert nffg_to_dict(fast) == nffg_to_dict(slow)
    # no aliasing of mutable structure into the original (immutable
    # Flowrule instances are deliberately shared; their *lists* are not)
    for node in fast.nodes:
        original = nffg.node(node.id)
        assert node is not original
        for port_id, port in node.ports.items():
            assert port is not original.ports[port_id]
            assert port.flowrules is not original.ports[port_id].flowrules \
                or not port.flowrules
            # mutating the copy's rule list must not leak back
            before = len(original.ports[port_id].flowrules)
            port.add_flowrule(match="in_port=x", action="output=y")
            assert len(original.ports[port_id].flowrules) == before
            port.flowrules.pop()
    assert fast.metadata == nffg.metadata
    assert fast.metadata is not nffg.metadata or not nffg.metadata


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.floats(0, 5, allow_nan=False)),
                min_size=1, max_size=12))
@settings(max_examples=30, deadline=None)
def test_path_cache_matches_uncached_routing(queries):
    mesh = mesh_substrate(12, degree=3, seed=9,
                          supported_types=["firewall"])
    service = _chain_request(0, 1)
    cache = PathCache()
    cached_ctx = MappingContext(service, mesh, path_cache=cache)
    plain_ctx = MappingContext(service, mesh)
    for number, (a, b, bandwidth) in enumerate(queries):
        src, dst = f"mesh-bb{a}", f"mesh-bb{b}"
        hop = f"q{number}"
        fast = cached_ctx.route_or_none(hop, src, dst, bandwidth)
        slow = plain_ctx.route_or_none(hop, src, dst, bandwidth)
        if slow is None:
            assert fast is None
            continue
        assert fast is not None
        assert fast.infra_path == slow.infra_path
        assert fast.link_ids == slow.link_ids
        assert abs(fast.delay - slow.delay) < 1e-9
