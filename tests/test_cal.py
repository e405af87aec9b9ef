"""Tests for the CAL: the per-domain view cache and its staleness,
sap-tag stitching, touched-set push planning, the ownership map that
keeps pushes O(domain), and ``verify()`` — the one check of every
derived store."""

from repro.nffg import NFFG, ResourceVector
from repro.orchestration.adapters import DirectDomainAdapter
from repro.orchestration.cal import ControllerAdaptationLayer
from repro.orchestration.escape import EscapeOrchestrator
from repro.perf import counters
from repro.resilience import BreakerState, FaultPlan, FaultyAdapter
from repro.resilience.retry import RetryPolicy
from repro.service import ServiceRequestBuilder


def domain_view(name, *, peer_tag=None):
    """A one-infra domain view whose node/sap ids are all prefixed by
    the domain name, so any number of them merge without collisions."""
    view = NFFG(id=name)
    infra = view.add_infra(
        f"{name}-bb0",
        resources=ResourceVector(cpu=8.0, mem=8192.0, storage=64.0,
                                 bandwidth=10_000.0, delay=0.1),
        supported_types=["firewall"])
    for sap_id in (f"{name}-sap1", f"{name}-sap2"):
        sap = view.add_sap(sap_id)
        port = infra.add_port(f"to-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, next(iter(sap.ports)), infra.id, port.id,
                      bandwidth=1_000.0, delay=0.0)
    if peer_tag is not None:
        infra.add_port(f"peer-{peer_tag}", sap_tag=peer_tag)
    return view


class CountingAdapter(DirectDomainAdapter):
    """Counts view fetches; optionally breakable."""

    retry_policy = RetryPolicy(max_attempts=1)

    def __init__(self, name, view):
        super().__init__(name, view)
        self.view_fetches = 0
        self.broken = False

    def get_view(self):
        self.view_fetches += 1
        return super().get_view()

    def _push(self, install, touched=None):
        if self.broken:
            raise RuntimeError(f"{self.name} down")
        super()._push(install, touched)


def _cal(names, **kwargs):
    cal = ControllerAdaptationLayer(**kwargs)
    adapters = {name: cal.register(CountingAdapter(name, domain_view(name)))
                for name in names}
    return cal, adapters


def _pinned_service(index, domain):
    """A sap-nf-sap chain pinned entirely inside one domain."""
    return (ServiceRequestBuilder(f"s{index}")
            .sap(f"{domain}-sap1").sap(f"{domain}-sap2")
            .nf(f"s{index}-fw", "firewall", cpu=0.5, mem=32.0,
                pin_to=f"{domain}-bb0")
            .chain(f"{domain}-sap1", f"s{index}-fw", f"{domain}-sap2",
                   bandwidth=1.0)
            .build().sg)


class TestDomainStaleness:
    def test_mark_stale_refetches_only_the_named_domain(self):
        cal, adapters = _cal(["a", "b"])
        cal.dov                               # first merge fetches both
        base = {n: a.view_fetches for n, a in adapters.items()}
        cal.mark_stale(domains=("a",))
        cal.dov
        assert adapters["a"].view_fetches == base["a"] + 1
        assert adapters["b"].view_fetches == base["b"]

    def test_fresh_domains_are_reused_across_a_rebuild_of_another(self):
        cal, _ = _cal(["a", "b"])
        cal.dov
        before = counters.snapshot("cal.fetch")
        cal.mark_stale(domains=("b",))
        cal.dov
        after = counters.snapshot("cal.fetch")
        assert after.get("cal.fetch", 0) - before.get("cal.fetch", 0) == 1
        assert after.get("cal.fetch.reused", 0) \
            - before.get("cal.fetch.reused", 0) == 1

    def test_pristine_view_refetches_every_domain(self):
        cal, adapters = _cal(["a", "b"])
        cal.dov
        base = {n: a.view_fetches for n, a in adapters.items()}
        cal.pristine_view()                   # heal semantics: all fresh
        assert all(a.view_fetches == base[n] + 1
                   for n, a in adapters.items())

    def test_registering_a_domain_fetches_only_that_domain(self):
        cal, adapters = _cal(["a", "b"])
        cal.dov
        adapters["c"] = cal.register(CountingAdapter("c", domain_view("c")))
        cal.dov
        assert {n: a.view_fetches for n, a in adapters.items()} == {
            "a": 1, "b": 1, "c": 1}

    def test_failed_fetch_stays_stale_and_is_retried(self):
        cal, adapters = _cal(["a", "b"])
        original = adapters["a"].get_view

        def boom():
            raise RuntimeError("view unavailable")
        adapters["a"].get_view = boom
        cal.dov
        assert cal.last_view_failures == {"a"}
        assert not cal.dov.has_node("a-bb0")
        fetches = {n: a.view_fetches for n, a in adapters.items()}
        adapters["a"].get_view = original
        cal.mark_stale(domains=())            # drop derived state only
        assert cal.dov.has_node("a-bb0")      # retried at the next stitch
        assert cal.last_view_failures == set()
        assert adapters["a"].view_fetches == fetches["a"] + 1
        assert adapters["b"].view_fetches == fetches["b"]


class TestStitching:
    def test_sap_tag_pairs_stitch_once(self):
        cal = ControllerAdaptationLayer()
        cal.register(CountingAdapter("a", domain_view("a", peer_tag="ab")))
        cal.register(CountingAdapter("b", domain_view("b", peer_tag="ab")))
        dov = cal.dov
        stitched = [edge for edge in dov.links
                    if edge.id == "interdomain-ab"]
        assert len(stitched) == 1
        # the cached domain views are never stitched themselves
        for view in cal._fetched.values():
            assert not any(edge.id.startswith("interdomain-")
                           for edge in view.links)


class TestPushPlanning:
    def _escape(self):
        escape = EscapeOrchestrator("planner")
        adapters = {}
        for name in ("dom-a", "dom-b"):
            adapters[name] = CountingAdapter(name, domain_view(name))
            escape.add_domain(adapters[name])
        return escape, adapters

    def test_planned_push_targets_only_touched_domains(self):
        escape, adapters = self._escape()
        first = escape.deploy(_pinned_service(0, "dom-a"),
                              wait_activation=False)
        assert first, first.error
        # first deploy rides a full rebuild: everything is dirty
        assert {r.domain for r in first.adapters} == {"dom-a", "dom-b"}
        pushes_b = adapters["dom-b"].installs

        before = counters.snapshot("cal.push.")
        second = escape.deploy(_pinned_service(1, "dom-a"),
                               wait_activation=False)
        assert second, second.error
        assert [r.domain for r in second.adapters] == ["dom-a"]
        assert adapters["dom-b"].installs == pushes_b
        after = counters.snapshot("cal.push.")
        assert after.get("cal.push.planned", 0) \
            - before.get("cal.push.planned", 0) == 1
        assert after.get("cal.push.skipped", 0) \
            - before.get("cal.push.skipped", 0) == 1

    def test_teardown_pushes_only_the_touched_domain(self):
        escape, adapters = self._escape()
        escape.deploy(_pinned_service(0, "dom-a"), wait_activation=False)
        escape.deploy(_pinned_service(1, "dom-b"), wait_activation=False)
        pushes_a = adapters["dom-a"].installs
        report = escape.teardown("s1")
        assert report, report.error
        assert [r.domain for r in report.adapters] == ["dom-b"]
        assert adapters["dom-a"].installs == pushes_a

    def test_pending_domain_joins_the_next_planned_push(self):
        escape, adapters = self._escape()
        escape.deploy(_pinned_service(0, "dom-b"), wait_activation=False)
        adapters["dom-b"].broken = True
        failed = escape.deploy(_pinned_service(1, "dom-b"),
                               wait_activation=False)
        assert not failed
        assert "dom-b" in escape.cal.pending_reconciliation()

        adapters["dom-b"].broken = False
        report = escape.deploy(_pinned_service(2, "dom-a"),
                               wait_activation=False)
        assert report, report.error
        # the planner folds the queued replay into the same fan-out
        assert {r.domain for r in report.adapters} == {"dom-a", "dom-b"}
        assert escape.cal.pending_reconciliation() == set()

    def test_push_all_still_fans_out_everywhere(self):
        escape, adapters = self._escape()
        escape.deploy(_pinned_service(0, "dom-a"), wait_activation=False)
        reports = escape.cal.push_all()
        assert {r.domain for r in reports} == {"dom-a", "dom-b"}

    def test_push_all_with_an_open_breaker_and_a_pending_domain(self):
        """Pinned on the separate ``push_all`` body this fan-out
        replaced: every domain reported in registration order, the
        open breaker skipped and kept pending, the pending domain with
        a closed breaker pushed and settled."""
        cal, adapters = _cal(["a", "b", "c"], breaker_failure_threshold=2,
                             breaker_clock=lambda: 0.0)
        cal.push_all()
        adapters["b"].broken = True
        cal.push_all()
        cal.push_all()                        # second failure: b opens
        adapters["c"].broken = True
        cal.push_all()                        # c fails once: pending only
        adapters["c"].broken = False
        assert cal.breakers["b"].state is BreakerState.OPEN
        assert cal.pending_reconciliation() == {"b", "c"}
        installs = {n: a.installs for n, a in adapters.items()}

        reports = cal.push_all()
        assert [(r.domain, r.success, r.skipped) for r in reports] == [
            ("a", True, False), ("b", False, True), ("c", True, False)]
        assert cal.pending_reconciliation() == {"b"}
        assert {n: a.installs - installs[n]
                for n, a in adapters.items()} == {"a": 1, "b": 0, "c": 1}
        assert cal.breakers["b"].state is BreakerState.OPEN
        assert cal.breakers["c"].state is BreakerState.CLOSED


class TestInstallCaches:
    def test_push_never_fetches_a_view(self):
        """Slicing reads the ownership map the merge wrote: the only
        ``get_view()`` calls are the merges themselves."""
        cal, adapters = _cal(["a"])
        cal.dov                               # the merge: one fetch
        cal.push_all()
        cal.push_all()
        assert adapters["a"].view_fetches == 1
        assert cal.owned_infras("a") == ["a-bb0"]
        cal.mark_stale(domains=["a"])         # topology bump
        cal.dov                               # re-merge: one more
        cal.push_all()
        assert adapters["a"].view_fetches == 2

    def test_push_leaves_a_get_view_fault_unconsumed(self):
        plan = FaultPlan(seed=1)
        cal = ControllerAdaptationLayer()
        inner = CountingAdapter("a", domain_view("a"))
        cal.register(FaultyAdapter(inner, plan))
        cal.dov
        plan.add("a", "get_view", message="view down")
        reports = cal.push_all()
        assert [r.success for r in reports] == [True]
        assert plan.history == []             # the fault is still armed
        assert not plan.exhausted()

    def test_install_slices_carry_only_own_nodes(self):
        escape, adapters = self._escape_pair()
        escape.deploy(_pinned_service(0, "dom-a"), wait_activation=False)
        escape.deploy(_pinned_service(1, "dom-b"), wait_activation=False)
        for name, adapter in adapters.items():
            last = adapter.installed
            assert {infra.id for infra in last.infras} == {f"{name}-bb0"}
            assert all(nf.id.endswith("-fw") for nf in last.nfs)

    def _escape_pair(self):
        escape = EscapeOrchestrator("slices")
        adapters = {}
        for name in ("dom-a", "dom-b"):
            adapters[name] = CountingAdapter(name, domain_view(name))
            escape.add_domain(adapters[name])
        return escape, adapters


class TestVerify:
    """``verify()`` names each seeded drift — and nothing else."""

    def _deployed(self):
        escape = EscapeOrchestrator("verify")
        for name in ("dom-a", "dom-b"):
            escape.add_domain(CountingAdapter(name, domain_view(name)))
        for index, name in enumerate(("dom-a", "dom-b")):
            assert escape.deploy(_pinned_service(index, name),
                                 wait_activation=False)
        cal = escape.cal
        assert cal.verify() == []
        return cal

    def test_clean_after_teardown_and_without_io(self):
        cal = self._deployed()
        fetches = [a.view_fetches for a in cal.adapters.values()]
        cal.remove_service("s0")
        assert cal.verify() == []
        assert [a.view_fetches for a in cal.adapters.values()] == fetches
        cal.mark_stale()                      # nothing live to compare
        assert cal.verify() == []

    def test_names_a_link_residual_tampered_in_the_view_only(self):
        cal = self._deployed()
        link = cal.resource_view().links[0]
        link.bandwidth -= 5.0
        assert cal.verify() == [
            f"remaining view bandwidth of {link.id}: live "
            f"({link.bandwidth}, 0.0) != rebuilt ({link.bandwidth + 5.0}, 0.0)"]

    def test_names_a_link_residual_tampered_in_the_index_only(self):
        cal = self._deployed()
        link_id = cal.resource_view().links[0].id
        cal.substrate_index.link_free[link_id] -= 5.0
        problems = cal.verify()
        assert len(problems) == 1
        assert problems[0].startswith(
            f"index free bandwidth of {link_id}: live ")

    def test_names_a_ghost_nf_left_in_the_dov(self):
        cal = self._deployed()
        cal.dov.add_nf("ghost-nf", "firewall")
        assert cal.verify() == ["ghost DoV node ghost-nf (live only)"]

    def test_names_a_missing_flow_rule(self):
        cal = self._deployed()
        port = cal.dov.infra("dom-a-bb0").ports["to-dom-a-sap1"]
        assert port.flowrules
        port.flowrules.clear()
        problems = cal.verify()
        assert len(problems) == 1
        assert problems[0].startswith(
            "DoV flow rules on dom-a-bb0.to-dom-a-sap1: live [] != rebuilt")

    def test_names_a_stale_flow_rule_left_in_an_install_view(self):
        cal = self._deployed()
        infra = cal._views["dom-a"].graph.infra("dom-a-bb0")
        infra.ports["to-dom-a-sap1"].add_flowrule(
            "in_port=to-dom-a-sap1", "output=nowhere", hop_id="gone-hop")
        count, rules = cal.verify()
        assert count == ("install view of dom-a flow rule count: "
                         "live 2 != rebuilt 3")
        assert rules.startswith(
            "install view of dom-a flow rules on dom-a-bb0.to-dom-a-sap1: "
            "live [('gone-hop', ")

    def test_names_an_nf_missing_from_an_install_view(self):
        cal = self._deployed()
        cal._views["dom-b"].graph.remove_node("s1-fw")
        count, *missing = cal.verify()
        assert count == "install view of dom-b NF count: live 1 != rebuilt 0"
        assert "missing install view of dom-b node s1-fw" in missing
        assert all(problem.startswith("missing install view of dom-b ")
                   for problem in missing)  # the NF and its four links

    def test_install_view_owed_a_reread_is_not_a_drift(self):
        cal = self._deployed()
        cal.remove_service("s0")              # folded, not pushed yet
        assert cal._views["dom-a"].graph.has_node("s0-fw")
        assert cal.verify() == []
        cal.push_planned()
        assert not cal._views["dom-a"].graph.has_node("s0-fw")
        assert cal.verify() == []

    def test_names_a_stale_ownership_entry(self):
        cal = self._deployed()
        cal._owner["gone-bb0"] = "dom-a"
        assert cal.verify() == ["ownership map and its inverse disagree",
                                "ghost owner of gone-bb0 (live only)"]


class TestDerivedStateFollowsItsSources:
    def test_remaining_view_carries_no_deployment_ports(self):
        """A re-derived remaining view used to inherit the NF ports of
        every deployed service from the DoV, so the same ids could not
        be deployed again after a teardown."""
        escape = EscapeOrchestrator("redeploy")
        escape.add_domain(CountingAdapter("d", domain_view("d")))
        assert escape.deploy(_pinned_service(0, "d"), wait_activation=False)
        escape.cal.rebuild()                  # re-derive with s0 deployed
        assert set(escape.cal.resource_view().infra("d-bb0").ports) \
            == {"to-d-sap1", "to-d-sap2"}
        assert escape.teardown("s0")
        again = escape.deploy(_pinned_service(0, "d"), wait_activation=False)
        assert again, again.error

    def test_a_refresh_that_moved_drops_the_live_dov(self):
        """``heal()`` on a failed link no service uses re-embeds nothing,
        but the dead link must still leave the DoV (and come back)."""
        view = domain_view("d")
        spare = view.add_infra("d-bb1", supported_types=["firewall"])
        view.add_link("d-bb0", view.infra("d-bb0").add_port("to-bb1").id,
                      "d-bb1", spare.add_port("to-bb0").id, id="d-spare")
        adapter = CountingAdapter("d", view)
        escape = EscapeOrchestrator("moved")
        escape.add_domain(adapter)
        assert escape.deploy(_pinned_service(0, "d"), wait_activation=False)
        epoch = escape.cal.topology_generation

        full, adapter._view = adapter._view, domain_view("d")
        assert escape.heal() == {}
        assert not escape.cal.dov.has_edge("d-spare")
        assert escape.cal.topology_generation > epoch
        assert escape.cal.verify() == []

        adapter._view = full
        assert escape.heal() == {}
        assert escape.cal.dov.has_edge("d-spare")
        assert escape.cal.verify() == []

