"""CP-3 — deploy latency vs domain count.

The scaling claim behind the per-domain view cache and the touched-set
push planner: per-deploy control-plane work is proportional to the domains a
service *touches*, not to the domains the orchestrator *manages*.  We
sweep the domain count with a fixed single-domain service shape; every
deploy touches exactly one domain, so a flat CAL's full fan-out (and
full per-domain re-slice) would grow linearly while the planned push
stays O(1) in pushes — only the DoV copy inside the embedder scales
with the substrate.

Gate (full run): deploy latency at 100 domains must come in at or
under 0.4x the linear extrapolation from the 10-domain point.  The
smoke sweep (10/30) applies the analogous bound at its largest size.
"""

import time

from benchmarks.conftest import SMOKE, bench_sizes, emit
from repro import perf
from repro.nffg import NFFG, ResourceVector
from repro.orchestration.adapters import DirectDomainAdapter
from repro.orchestration.escape import EscapeOrchestrator
from repro.service import ServiceRequestBuilder

DOMAIN_COUNTS = bench_sizes([10, 30, 100, 300], [10, 30])
TIMED_DEPLOYS = 6 if SMOKE else 12


def _domain_view(name: str) -> NFFG:
    """One BiSBiS + two SAPs, every id prefixed by the domain name so
    hundreds of these merge into one DoV without collisions."""
    view = NFFG(id=name)
    infra = view.add_infra(
        f"{name}-bb0",
        resources=ResourceVector(cpu=64.0, mem=65536.0, storage=512.0,
                                 bandwidth=40_000.0, delay=0.1),
        supported_types=["firewall"])
    for sap_id in (f"{name}-sap1", f"{name}-sap2"):
        sap = view.add_sap(sap_id)
        port = infra.add_port(f"to-{sap_id}", sap_tag=sap_id)
        view.add_link(sap_id, next(iter(sap.ports)), infra.id, port.id,
                      bandwidth=10_000.0, delay=0.0)
    return view


def _service(index: int, domain: str) -> NFFG:
    """A sap-nf-sap chain pinned inside one domain — the deploy's
    touched-set is exactly ``{domain}`` regardless of fleet size."""
    return (ServiceRequestBuilder(f"svc{index}")
            .sap(f"{domain}-sap1").sap(f"{domain}-sap2")
            .nf(f"svc{index}-fw", "firewall", cpu=0.5, mem=64.0,
                pin_to=f"{domain}-bb0")
            .chain(f"{domain}-sap1", f"svc{index}-fw", f"{domain}-sap2",
                   bandwidth=1.0)
            .build().sg)


def _measure(domains: int) -> dict:
    escape = EscapeOrchestrator(f"scale{domains}")
    names = [f"d{index}" for index in range(domains)]
    for name in names:
        escape.add_domain(DirectDomainAdapter(name, _domain_view(name)))

    # warmup: first deploy pays the full merge + path-cache build +
    # worker-pool spin-up, and (riding the rebuild) a full fan-out
    warmup = escape.deploy(_service(0, names[0]), wait_activation=False)
    assert warmup.success, warmup.error

    perf.reset()
    started = time.perf_counter()
    for index in range(1, TIMED_DEPLOYS + 1):
        domain = names[index % domains]
        report = escape.deploy(_service(index, domain),
                               wait_activation=False)
        assert report.success, report.error
        assert [r.domain for r in report.adapters] == [domain]
    elapsed_ms = (time.perf_counter() - started) * 1e3
    snapshot = perf.snapshot()

    # planner effectiveness: one push per deploy, everything else
    # skipped; steady state never refetches a domain view
    assert snapshot.get("cal.push.planned", 0) == TIMED_DEPLOYS
    assert snapshot.get("cal.push.skipped", 0) \
        == TIMED_DEPLOYS * (domains - 1)
    assert snapshot.get("cal.fetch", 0) == 0
    assert snapshot.get("dov.rebuild", 0) == 0

    return {
        "domains": domains,
        "deploys": TIMED_DEPLOYS,
        "ms_per_deploy": elapsed_ms / TIMED_DEPLOYS,
        "pushes": snapshot.get("cal.push.planned", 0),
        "skipped": snapshot.get("cal.push.skipped", 0),
        "fetches": snapshot.get("cal.fetch", 0),
    }


def test_bench_deploy_latency_vs_domain_count():
    """The CP-3 table, plus the sub-linear scaling gate."""
    rows = [_measure(domains) for domains in DOMAIN_COUNTS]
    base = rows[0]
    for row in rows[1:]:
        linear = base["ms_per_deploy"] * row["domains"] / base["domains"]
        row["linear_ms"] = linear
        row["vs_linear"] = row["ms_per_deploy"] / linear
    emit("CP-3: deploy latency vs managed domain count (single-domain "
         "service, planned push)", rows, group="control_plane")

    # the 0.4x factor is calibrated for the 100-domain point; the
    # reduced smoke sweep tops out at 30 domains, where the fixed
    # per-deploy cost dominates both sides — gate it at sub-linear
    # instead of a factor tuned for a 10x extrapolation
    gated = next((row for row in rows if row["domains"] == 100), rows[-1])
    factor = 0.4 if gated["domains"] >= 100 else 0.8
    assert gated["ms_per_deploy"] <= factor * gated["linear_ms"], (
        f"{gated['domains']}-domain deploy "
        f"{gated['ms_per_deploy']:.2f} ms exceeds {factor}x the linear "
        f"extrapolation {gated['linear_ms']:.2f} ms from "
        f"{base['domains']} domains")
