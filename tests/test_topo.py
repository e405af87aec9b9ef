"""Tests for the reference testbeds."""


from repro.mapping import BacktrackingEmbedder
from repro.nffg.model import DomainType
from repro.topo import build_emulated_testbed, build_reference_multidomain


class TestReferenceMultidomain:
    def test_builds_all_four_domains(self):
        testbed = build_reference_multidomain()
        assert testbed.emu and testbed.sdn and testbed.cloud and testbed.un
        assert len(testbed.escape.cal.adapters) == 4

    def test_sap_hosts_reachable(self):
        testbed = build_reference_multidomain()
        assert set(testbed.sap_hosts) == {"sap1", "sap2", "sap3"}
        for sap_id in testbed.sap_hosts:
            assert testbed.host(sap_id).ports()

    def test_scalable_parameters(self):
        testbed = build_reference_multidomain(emu_switches=4,
                                              sdn_switches=3,
                                              cloud_leaves=3,
                                              cloud_hosts_per_leaf=1)
        view = testbed.escape.resource_view()
        emu_nodes = [i for i in view.infras
                     if i.domain == DomainType.INTERNAL]
        sdn_nodes = [i for i in view.infras if i.domain == DomainType.SDN]
        assert len(emu_nodes) == 4
        assert len(sdn_nodes) == 3

    def test_custom_embedder(self):
        testbed = build_reference_multidomain(embedder=BacktrackingEmbedder())
        assert testbed.escape.ro.embedder.name == "backtrack"

    def test_decompositions_default_on(self):
        testbed = build_reference_multidomain()
        assert testbed.escape.ro.decomposition_library is not None
        plain = build_reference_multidomain(use_default_decompositions=False)
        assert plain.escape.ro.decomposition_library is None

    def test_boot_delays_configurable(self):
        testbed = build_reference_multidomain(vm_boot_delay_ms=10.0,
                                              container_start_delay_ms=1.0)
        assert testbed.cloud.nova.boot_delay_ms == 10.0
        assert testbed.un.runtime.start_delay_ms == 1.0


class TestEmulatedTestbed:
    def test_shape(self):
        testbed = build_emulated_testbed(switches=5)
        view = testbed.escape.resource_view()
        assert len(view.infras) == 5
        assert set(testbed.sap_hosts) == {"sap1", "sap2"}
