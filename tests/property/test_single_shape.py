"""One southbound data model, and nothing lost in it.

Every NETCONF-managed domain is programmed through the virtualizer.
Over the Fig. 1 testbed, after every step of a drawn deploy / update /
teardown / refusal sequence — NFs pinned to drawn hosts in the emulated,
cloud and UN domains, so updates move them between switches and between
domains — what each local orchestrator *decoded* from the trees and edit
scripts it was sent equals the CAL's install view of its domain: every
NF with its type, cpu / mem / storage, ports and host; on every infra
port the flow rules by hop id with match, action and bandwidth.  And
what it runs is what it decoded.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.resilience import FaultKind, FaultPlan
from repro.service import ServiceRequestBuilder
from repro.topo import build_reference_multidomain

HOSTS = ["emu-bb0", "emu-bb1", "cloud-bisbis", "un-bisbis"]
SAP_PAIRS = list(itertools.permutations(("sap1", "sap2", "sap3"), 2))
LOCAL = ("emu", "cloud", "un")


def _service(index, pair, hosts, cpu, bandwidth):
    src, dst = pair
    builder = ServiceRequestBuilder(f"one{index}").sap(src).sap(dst)
    names = []
    for place, (kind, host) in enumerate(zip(("firewall", "nat"), hosts)):
        names.append(f"one{index}-{kind}")
        builder.nf(names[-1], kind, cpu=cpu, mem=64.0 * (place + 1),
                   storage=1.0 + place, pin_to=host)
    builder.chain(src, *names, dst, bandwidth=bandwidth,
                  flowclass=f"tp_dst={20000 + index}")
    return builder.build().sg


def _wanted(install):
    """What an install view asks of its domain."""
    nfs = {nf.id: (nf.functional_type, nf.resources.cpu, nf.resources.mem,
                   nf.resources.storage, sorted(map(str, nf.ports)),
                   install.host_of(nf.id))
           for nf in install.nfs}
    rules = {(infra.id, port.id): {
        rule.hop_id: (rule.match, rule.action, rule.bandwidth)
        for rule in port.flowrules}
        for infra in install.infras for port in infra.ports.values()
        if port.flowrules}
    return nfs, rules


def _decoded(orchestrator):
    """The same, as the local orchestrator read it off the wire."""
    # one flow table, kept two ways
    assert orchestrator.entries == {
        (port[0], key): (port[1], rule)
        for port, members in orchestrator.rules.items()
        for key, rule in members.items()}
    nfs = {nf_id: (nf.functional_type, nf.resources.cpu, nf.resources.mem,
                   nf.resources.storage, sorted(nf.ports), host)
           for (host, nf_id), nf in orchestrator.nfs.items()}
    rules = {port: {rule.hop_id: (rule.match, rule.action, rule.bandwidth)
                    for rule in members.values()}
             for port, members in orchestrator.rules.items()}
    return nfs, rules


def _running(orchestrator) -> set[str]:
    for record in ("_deployed_nfs", "_nf_vms", "_nf_containers"):
        if hasattr(orchestrator, record):
            return set(getattr(orchestrator, record))
    raise AssertionError(orchestrator)


def _assert_decoded_is_the_install_view(escape, step, refusals=0) -> None:
    cal = escape.cal
    # a refused teardown or rollback left a domain behind: replay it,
    # past as many refusals as are still armed
    for _ in range(refusals + 1):
        if cal.pending_reconciliation():
            cal.reconcile(force_probe=True)
    assert not cal.pending_reconciliation(), step
    cal._prepare_push()
    assert cal.verify() == []
    for name in LOCAL:
        adapter = cal.adapters[name]
        wanted = _wanted(cal._install_for(adapter))
        assert _decoded(adapter.orchestrator) == wanted, (step, name)
        assert _running(adapter.orchestrator) == set(wanted[0]), (step, name)


operation = st.tuples(
    st.sampled_from(["deploy", "deploy", "update", "teardown", "refuse"]),
    st.integers(0, 3),
    st.sampled_from(SAP_PAIRS),
    st.lists(st.sampled_from(HOSTS), min_size=1, max_size=2),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.sampled_from([1.0, 2.0, 4.0]),
    st.sampled_from(LOCAL))


@given(st.lists(operation, min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_local_orchestrators_decode_what_the_cal_holds(operations):
    testbed = build_reference_multidomain(vm_boot_delay_ms=50.0,
                                          container_start_delay_ms=20.0)
    escape = testbed.escape
    plan = FaultPlan()
    for name in LOCAL:
        escape.cal.adapters[name].client.fault_hook = plan.netconf_hook(name)
    try:
        _assert_decoded_is_the_install_view(escape, "built")
        for step, (kind, index, *spec, domain) in enumerate(operations):
            service_id = f"one{index}"
            deployed = service_id in escape.deployed_services()
            if kind == "refuse":
                # the named domain refuses its next commit, whenever an
                # operation gets to it: that one fails and is rolled back
                plan.add(domain, "rpc:commit", kind=FaultKind.FATAL, count=1)
            elif kind == "teardown":
                if deployed:
                    escape.teardown(service_id)
            elif kind == "update" or not deployed:
                escape.update(_service(index, *spec))
            _assert_decoded_is_the_install_view(escape, (step, kind),
                                                len(operations))
        for service_id in list(escape.deployed_services()):
            escape.teardown(service_id)
        _assert_decoded_is_the_install_view(escape, "drained",
                                            len(operations))
    finally:
        escape.cal.dispatcher.shutdown()
