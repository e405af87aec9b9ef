"""Extensibility tests: ESCAPEv2 "can be extended easily with additional
plug and play components/algorithms, like NF implementations, network
embedding algorithms, NF decomposition models."

Each test registers a user-supplied component and drives it through the
full deploy pipeline.
"""

import pytest

from repro.click.catalog import NFImplementation, NF_CATALOG, register_nf
from repro.click.elements import Element
from repro.click.process import register_element
from repro.mapping import MappingError
from repro.mapping.base import MappingContext
from repro.mapping.decomposition import (
    ComponentSpec,
    DecompositionLibrary,
    DecompositionRule,
)
from repro.mapping.greedy import (GreedyEmbedder, route_ready_hops,
                                  service_order)
from repro.netem.packet import tcp_packet
from repro.nffg import NFFGBuilder, ResourceVector
from repro.orchestration import EmuDomainAdapter, EscapeOrchestrator
from repro.emu import EmulatedDomain
from repro.netem import Network


@pytest.fixture
def stack():
    net = Network()
    emu = EmulatedDomain("x-emu", net, node_ids=["x-bb0", "x-bb1"],
                         links=[("x-bb0", "x-bb1")])
    emu.add_sap("xsap1", "x-bb0")
    emu.add_sap("xsap2", "x-bb1")
    escape = EscapeOrchestrator("x-esc", simulator=net.simulator)
    escape.add_domain(EmuDomainAdapter("x-emu", emu))
    return net, emu, escape


class TestCustomNFImplementation:
    def test_registered_nf_deploys_and_processes(self, stack):
        net, emu, escape = stack

        class Stamper(Element):
            """Marks every packet it sees."""

            def process(self, packet, in_gate):
                packet.metadata["stamped_by"] = self.name
                return [(0, packet)]

        register_element("Stamper", lambda name, args: Stamper(name))
        register_nf(NFImplementation(
            "stamper", "FromPort(0) -> Stamper() -> ToPort(1)",
            ResourceVector(cpu=0.5, mem=32.0, storage=1.0),
            description="test-only custom NF"))
        try:
            emu.supported_types = list(emu.supported_types) + ["stamper"]
            service = (NFFGBuilder("ext").sap("xsap1").sap("xsap2")
                       .nf("ext-st", "stamper")
                       .chain("xsap1", "ext-st", "xsap2",
                              bandwidth=1.0).build())
            report = escape.deploy(service)
            assert report.success, report.error
            h1 = emu.sap_hosts["xsap1"]
            h2 = emu.sap_hosts["xsap2"]
            h1.send(tcp_packet(h1.ip, h2.ip))
            net.run()
            assert h2.received[0].metadata.get("stamped_by")
        finally:
            NF_CATALOG.pop("stamper", None)


class TestCustomEmbedder:
    def test_plug_in_embedder_used_by_orchestrator(self, stack):
        net, emu, escape = stack

        class LastNodeEmbedder(GreedyEmbedder):
            """Places everything on the lexicographically last infra."""

            name = "last-node"

            def _run(self, ctx: MappingContext) -> None:
                target = sorted(infra.id
                                for infra in ctx.resource.infras)[-1]
                for nf_id in service_order(ctx.service):
                    nf = ctx.service.nf(nf_id)
                    if not ctx.ledger.can_host(nf,
                                               ctx.resource.infra(target)):
                        raise MappingError("last node full")
                    ctx.place(nf_id, target)
                    route_ready_hops(ctx, set(ctx.routes))
                route_ready_hops(ctx, set(ctx.routes))

        escape.ro.embedder = LastNodeEmbedder()
        service = (NFFGBuilder("emb").sap("xsap1").sap("xsap2")
                   .nf("emb-fw", "firewall")
                   .chain("xsap1", "emb-fw", "xsap2", bandwidth=1.0).build())
        report = escape.deploy(service)
        assert report.success, report.error
        assert report.mapping.nf_placement["emb-fw"] == "x-bb1"


class TestCustomDecompositionModel:
    def test_plug_in_rule_drives_expansion(self, stack):
        net, emu, escape = stack
        library = DecompositionLibrary()
        library.mark_abstract("secure-pipe")
        library.add_rule(DecompositionRule(
            "secure-pipe-v1", "secure-pipe",
            components=(
                ComponentSpec("fw", "firewall",
                              ResourceVector(cpu=1.0, mem=128.0,
                                             storage=1.0)),
                ComponentSpec("mon", "monitor",
                              ResourceVector(cpu=0.5, mem=64.0,
                                             storage=2.0)),
            )))
        escape.ro.decomposition_library = library
        service = (NFFGBuilder("dec").sap("xsap1").sap("xsap2")
                   .nf("dec-sp", "secure-pipe")
                   .chain("xsap1", "dec-sp", "xsap2", bandwidth=1.0)
                   .build())
        report = escape.deploy(service)
        assert report.success, report.error
        assert report.mapping.decompositions["dec-sp"] == "secure-pipe-v1"
        attached = [nf for switch in emu.switches.values()
                    for nf in switch.attached_nfs()]
        assert sorted(attached) == ["dec-sp.fw", "dec-sp.mon"]
        h1, h2 = emu.sap_hosts["xsap1"], emu.sap_hosts["xsap2"]
        h1.send(tcp_packet(h1.ip, h2.ip, tp_dst=80))
        net.run()
        assert len(h2.received) == 1
