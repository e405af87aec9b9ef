"""Controller adaptation layer (CAL).

Owns the registered domain adapters, builds the **Domain Virtualizer's
global view (DoV)** by merging the per-domain views (inter-domain
sap-tagged ports become stitched links), keeps it up to date as
services are deployed/torn down, and fans mapped configurations out to
the adapters.

Two things are *state*: the adapters' views and ``_deployed``, the
journaled books ``service id -> (service graph, mapping)``.  Everything
else is **derived**, with one writer and one place it is dropped each
(table in ``docs/architecture.md``):

- **domain views + ownership map** — the view each adapter's last
  fetch returned is cached (None: that fetch failed); ``_refresh``
  refetches only the stale domains, in one dispatcher batch, and
  records which adapter contributed which infra; the pristine view is
  one stitch of the cached views in registration order;
- **live DoV + inverse records, remaining view + substrate index** —
  ``_derive`` replays the books onto a fresh stitch; afterwards
  ``commit_mapping``/``remove_service``/``restore_service`` fold one
  ``(service, mapping, +-1)`` at a time through the same two writers:
  :func:`~repro.mapping.base.apply_mapping` (or its recorded inverse)
  on the DoV, :meth:`SubstrateIndex.fold` on index + remaining view;
  a links-only refetch is folded in too.  ``_invalidate`` is the only
  place they are dropped;
- **dirty set** — the folds record the domains a mapping touches and
  :meth:`push_planned`, the one fan-out, consumes it (:meth:`push_all`
  dirties everything first, :meth:`reconcile` replays queued domains);
- **install views + touched sets** — one graph per adapter, sliced out
  of the DoV by ``_install_for`` at the adapter's first push of a
  topology epoch; the folds record which of its members they wrote
  and ``_current_view`` re-reads exactly those before each later push,
  handing the adapter the view and the ids; a dropped view's graph
  waits in ``_replaced`` for the next slice to be compared with it;
- ``topology_generation`` is the only epoch: it moves when the substrate
  topology may have and is what ``PathCache.sync`` and
  ``SubstrateIndex.sync`` take.

:meth:`verify` re-derives all of it from the cached domain views plus
the books — no adapter I/O — and names every difference.

Fan-out is **concurrent**: pushes and view fetches go through a
:class:`~repro.orchestration.dispatch.DomainDispatcher` (distinct
domains in parallel, one in-flight op per domain).  Shared bookkeeping
(the reconciliation queue, perf counters, fault plans) is locked;
breakers, adapter delta state and a domain's install view are only
touched by that domain's in-flight operation; all other derived state
is only written on the orchestrator's thread, before any fan-out
starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro import obs
from repro.mapping.base import (
    MappingResult,
    ServiceDelta,
    apply_mapping,
    remove_mapping,
    touched_infra_ids,
)
from repro.mapping.index import SubstrateIndex
from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import DomainType, EdgeLink, NodeNF, NodeSAP
from repro.orchestration.adapters import DomainAdapter
from repro.nffg.ops import (
    Touched,
    differing_members,
    merge_nffgs,
    nffg_facts,
    refresh_members,
    remaining_nffg,
)
from repro.orchestration.dispatch import DEFAULT_MAX_WORKERS, DomainDispatcher
from repro.orchestration.report import AdapterReport
from repro.perf import counters, observe, set_gauge
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.sanitize import make_lock


class ControllerAdaptationLayer:
    """Adapter registry + incremental DoV maintenance + install fan-out."""

    def __init__(self, *, breaker_failure_threshold: int = 3,
                 breaker_recovery_s: float = 30.0,
                 breaker_clock: Callable[[], float] = time.monotonic,
                 push_workers: int = DEFAULT_MAX_WORKERS) -> None:
        self.adapters: dict[str, DomainAdapter] = {}
        #: concurrent per-domain fan-out; ``push_workers <= 1`` degrades
        #: to strictly serial pushes on the caller's thread
        self.dispatcher = DomainDispatcher(push_workers,
                                           serial=push_workers <= 1)
        #: adapter name -> the view its last fetch returned (None: that
        #: fetch failed); the pristine view is stitched from these
        self._fetched: dict[str, Optional[NFFG]] = {}
        #: domains whose cached view is refetched at the next stitch; a
        #: failed fetch stays here, so every later stitch retries it
        self._stale: set[str] = set()
        #: domains holding stale configuration (push skipped/failed),
        #: replayed by reconcile; mutated by concurrent ``_push_one``
        #: calls on dispatcher workers, hence the lock
        self._pending: set[str] = set()  # guarded-by: _pending_lock
        self._pending_lock = make_lock("cal.pending")
        #: adapters grouped by DomainType, maintained at register time
        self._adapters_by_type: dict[DomainType, list[DomainAdapter]] = {}
        self._dov: Optional[NFFG] = None
        #: deployed services: service id -> (service graph, mapping
        #: result); the result is the RO's graph-free record —
        #: placement and routes, what a journal record holds — so a
        #: resident service costs O(service).  This map IS the desired
        #: state the write-ahead intent journal protects — only the
        #: annotated mutators may write it, and their callers must hold
        #: an open intent scope (lint rule CC007).
        self._deployed: dict[str, tuple[NFFG, MappingResult]] = (
            {}  # journaled: commit_mapping remove_service restore_service
        )
        #: per-service inverse records, valid for the *live* ``_dov``
        #: only; None marks a booking whose replay was deferred
        self._deltas: dict[str, Optional[ServiceDelta]] = {}
        #: northbound remaining-capacity view: derived together with
        #: the DoV, then maintained by the index's fold
        self._remaining: Optional[NFFG] = None
        #: mapping-layer index bound to ``_remaining`` (candidate sets,
        #: capacity buckets, ledger seed maps, topology tables); handed
        #: to the RO so embedders skip their O(substrate) rescans
        self.substrate_index = SubstrateIndex()
        #: substrate topology version, the only epoch: bumped whenever
        #: the domain views may have changed
        self.topology_generation = 0
        #: per-adapter circuit breakers (created on register)
        self.breakers: dict[str, CircuitBreaker] = {}
        self.breaker_failure_threshold = breaker_failure_threshold
        self.breaker_recovery_s = breaker_recovery_s
        self.breaker_clock = breaker_clock
        #: domains whose cumulative configuration changed since the
        #: last planned push; consumed by :meth:`push_planned`, written
        #: on the orchestrator's thread only (before any fan-out starts)
        self._dirty: set[str] = set()
        #: infra id -> owning adapter name and its inverse (adapter ->
        #: its infra ids in view order), written by ``_refresh``
        self._owner: dict[str, str] = {}
        self._owned: dict[str, list[str]] = {}
        #: adapter name -> its install view: what ``_install_for``
        #: slices out of the DoV, made at the adapter's first push of a
        #: topology epoch and edited in place from then on.  An entry is
        #: written by ``_current_view`` under that domain's dispatcher
        #: mutex and nowhere else; ``_invalidate`` drops them all
        self._views: dict[str, _InstallView] = {}
        #: adapter name -> the members of its install view the folds
        #: wrote since ``_current_view`` last brought it up to date;
        #: written by the folds on the orchestrator's thread, taken by
        #: ``_current_view`` (no fold runs during a fan-out)
        self._touched: dict[str, Touched] = {}
        #: adapter name -> the graph it was last handed, of an install
        #: view ``_invalidate`` dropped: what its next slice is an edit
        #: of, taken by ``_current_view`` as soon as that slice exists
        self._replaced: dict[str, NFFG] = {}
        #: service id -> (graph, mapping, delta) withdrawn since the last push
        self._withdrawn: dict[str, tuple] = {}

    # -- adapter registry ---------------------------------------------------

    def register(self, adapter: DomainAdapter) -> DomainAdapter:
        if adapter.name in self.adapters:
            raise ValueError(f"duplicate adapter {adapter.name!r}")
        self.adapters[adapter.name] = adapter
        self._adapters_by_type.setdefault(
            adapter.domain_type, []).append(adapter)
        self.breakers[adapter.name] = CircuitBreaker(
            adapter.name,
            failure_threshold=self.breaker_failure_threshold,
            recovery_time_s=self.breaker_recovery_s,
            clock=self.breaker_clock)
        # topology changed, but only the new domain needs a fetch — the
        # other cached views are still current
        self.mark_stale(domains=(adapter.name,))
        return adapter

    # -- global view --------------------------------------------------------------

    def pristine_view(self, *, refresh: bool = True) -> NFFG:
        """Merge of all current adapter views (no deployment state).

        Every *stale* domain is refetched (one concurrent dispatcher
        batch); the others are served from the cache.  The global view
        is then stitched from the cached views (sap-tag pairs fused
        here, and only here).

        With ``refresh`` (the default) every domain is marked stale
        first: direct callers — ``heal()`` probing for outages — expect
        current domain truth, not caches; the rebuild path passes
        ``refresh=False`` and pays only for domains something
        invalidated.  A refetch that differs from the cached view moves
        ``topology_generation`` (see ``_refresh``).

        Degrades gracefully: a domain whose breaker is open is not even
        asked, one whose fetch fails after retries is left out of the
        merge; both land in :attr:`last_view_failures` so ``heal()``
        can evacuate their services.
        """
        if refresh:
            self._stale.update(self.adapters)
        stale = [name for name in self.adapters if name in self._stale]
        if stale:
            counters.incr("cal.fetch", len(stale))
        if len(self.adapters) > len(stale):
            counters.incr("cal.fetch.reused", len(self.adapters) - len(stale))
        self._refresh(stale)
        return self._stitch()

    @property
    def last_view_failures(self) -> set[str]:
        """Domains whose view could not enter the latest pristine merge
        (breaker open, or fetch failed after retries)."""
        return {name for name, view in self._fetched.items() if view is None}

    def _stitch(self) -> NFFG:
        """The global pristine view fused from the cached domain views."""
        views = [view for view in map(self._fetched.get, self.adapters)
                 if view is not None]
        if not views:
            return NFFG(id="dov-empty")
        started = time.perf_counter()
        counters.incr("cal.stitch")
        merged = merge_nffgs(views, merged_id="dov")
        observe("cal.stitch_s", time.perf_counter() - started)
        return merged

    def _fetch_view(self, adapter: DomainAdapter) -> Optional[NFFG]:
        """One domain's view fetch with breaker quarantine/probing."""
        with obs.span(f"view/{adapter.name}", domain=adapter.name):
            breaker = self.breakers[adapter.name]
            if breaker.state is BreakerState.OPEN:
                counters.incr("resilience.view.quarantined")
                return None
            try:
                view = adapter.fetch_view()
            except Exception:  # noqa: BLE001 - degrade, don't abort
                counters.incr("resilience.view.unreachable")
                breaker.record_failure()
                return None
            if breaker.state is BreakerState.HALF_OPEN:
                # the fetch was the probe: the domain answered
                breaker.record_success()
            return view

    def _refresh(self, names: list[str]) -> None:
        """Refetch the named domains' views (one dispatcher batch, so
        distinct domains fan out in parallel), cache them and rewrite
        their ownership entries.  A failed fetch stays stale, so the
        next stitch retries the domain.  A refetch that differs moves
        the topology generation and drops the derived state, or folds
        links-only moves."""
        fetched = self.dispatcher.run(
            (name, lambda adapter=self.adapters[name]:
             self._fetch_view(adapter)) for name in names)
        moves = []
        for name, view in zip(names, fetched):
            for infra_id in self._owned.pop(name, ()):
                self._owner.pop(infra_id, None)
            if view is not None:  # a failed fetch stays stale
                self._stale.discard(name)
                owned = self._owned[name] = [infra.id for infra in view.infras]
                self._owner.update(dict.fromkeys(owned, name))
            moves.append(_link_moves(self._fetched.get(name), view))
            self._fetched[name] = view
        if None in moves or any(map(any, moves)):
            self.topology_generation += 1
            if None in moves or self._dov is None:
                # the live DoV was built from views that no longer exist
                self._invalidate()
            else:
                self._fold_links(set().union(*(gone for gone, _ in moves)),
                                 [link for _, came in moves for link in came])

    def _fold_links(self, gone: set[str], came: list[EdgeLink]) -> None:
        """Fold a links-only refetch into the live views as a rebuild would
        change them: a service routed over a lost link leaves (until
        ``heal()`` re-routes it), a deferred one whose links are all back
        re-enters; each install view is owed the links of its own."""
        counters.incr("cal.fold_links")
        for service_id, (service, result) in self._deployed.items():
            delta = self._deltas.get(service_id)
            if delta is not None and not gone.isdisjoint(
                    link_id for route in result.hop_routes.values()
                    for link_id in route.link_ids):
                self._deltas[service_id] = None
                self._withdraw(service_id, service, result, delta)
        for link in [*map(self._dov.edge, gone), *came]:
            name = (self._owner.get(link.src_node)
                    or self._owner.get(link.dst_node))
            if name is not None:
                self._touched.setdefault(name, Touched()).edges.add(link.id)
        for link_id in gone:
            self._dov.remove_edge(link_id)
        for link in came:
            self._dov.add_edge_copy(link)
        self.substrate_index.relink(gone, came, self.topology_generation)
        for service_id in self._deployed:
            if self._deltas[service_id] is None:
                self._rejoin(service_id)
        self._settle()

    @property
    def dov(self) -> NFFG:
        """The global view including everything deployed so far."""
        if self._dov is None:
            self._rebuild_dov()
        return self._dov

    def mark_stale(self, domains: Optional[Iterable[str]] = None) -> None:
        """Declare the substrate topology changed (adapter added, link
        failure observed): drop the derived state so the next access
        re-merges fresh domain views.

        ``domains`` narrows the refetch to the named domains (the other
        cached views are reused at the next stitch); ``None`` — location
        unknown — stales every domain.
        """
        names = self.adapters if domains is None else domains
        self._invalidate(name for name in names if name in self.adapters)
        self.topology_generation += 1

    def rebuild(self) -> NFFG:
        """Force a from-scratch re-merge (every domain refetched) now."""
        self._invalidate(self.adapters)
        return self.dov

    def _invalidate(self, stale: Iterable[str] = ()) -> None:
        """The one place derived state is dropped: live DoV, inverse
        records, remaining view (the index unbinds with it) and the
        install views go together; ``stale`` domains are marked for a refetch
        first; an install view's graph stays behind in ``_replaced``."""
        self._stale.update(stale)
        for name, held in self._views.items():
            self._replaced.setdefault(name, held.graph)
        self._dov = None
        self._deltas.clear()
        self._remaining = None
        self._views.clear()
        self._touched.clear()
        self._withdrawn.clear()

    def _derive(self, dov: NFFG,
                index: SubstrateIndex) -> tuple[NFFG, dict]:
        """Turn a pristine stitch into the DoV by replaying the books
        onto it; derive the remaining view next to it and bind ``index``
        to that.  Returns (remaining view, inverse records) and writes
        nothing on ``self`` — the rebuild and :meth:`verify` share it."""
        remaining = remaining_nffg(dov, new_id="dov-remaining",
                                   include_deployed=False)
        index.sync(remaining, epoch=self.topology_generation)
        return remaining, {
            service_id: _replay(dov, index, service, result)
            for service_id, (service, result) in self._deployed.items()}

    def _rebuild_dov(self) -> None:
        counters.incr("dov.rebuild")
        started = time.perf_counter()
        with obs.span("dov/rebuild"):
            dov = self.pristine_view(refresh=False)
            self._remaining, self._deltas = self._derive(
                dov, self.substrate_index)
            self._dov = dov
        # a None delta: the service's substrate vanished from the merge
        # (domain quarantined or unreachable) — booked, but left out of
        # the view until heal() evacuates it or a refresh re-applies it
        skipped = sum(delta is None for delta in self._deltas.values())
        if skipped:
            counters.incr("dov.replay_skipped", skipped)
        # every domain's desired config may have shifted (deferred
        # replays re-entered, substrate came back): full fan-out once
        self._dirty.update(self.adapters)
        observe("dov.rebuild_s", time.perf_counter() - started)

    def resource_view(self) -> NFFG:
        """What the RO should map against: the substrate with remaining
        resources.  Deployed NFs are netted out of the capacities but
        not advertised themselves — the northbound view stays
        substrate-sized no matter how much is deployed.

        This is the live view the substrate index is bound to, kept
        current by the commit/remove folds at O(service) cost: treat it
        as read-only (embedders do: reservations live in the mapping
        ledger) and copy it for anyone who might not."""
        if self._dov is None:
            self._rebuild_dov()
        return self._remaining

    def resource_view_without(self, service_ids: Iterable[str]) -> NFFG:
        """A private copy of the remaining view with the named services'
        demands folded back in: what is free of everything *else*.  A
        Unify agent advertises this to the client that owns them, which
        replays its own books onto whatever it fetches: once per
        get-virtualizer (a view refetch), never on the deploy path.  The
        throwaway index counts as any other (``mapping.index.rebuild``,
        ``.apply`` per service, ``nffg.copy``).  A service the client
        rolled back but could not yet take down here is still folded
        back, until the reconcile that removes it."""
        view = self.resource_view().copy("dov-remaining")
        index = SubstrateIndex().sync(view)
        for service_id in service_ids:
            # a deferred replay (None) was never netted out of the view
            if self._deltas.get(service_id) is not None:
                index.fold(*self._deployed[service_id], -1.0)
        return view

    def verify(self) -> list[str]:
        """Re-derive every derived store — DoV, remaining view,
        substrate index, ownership, install views — from the cached
        domain views plus the books and name each difference from
        the live one (empty = consistent).  An install view is held
        against a fresh slice of the live DoV, after a copy of it took
        the re-reads still owed to it.  No adapter I/O and no repair; a
        dropped (not yet re-derived) DoV has nothing to compare."""
        by_inverse = {infra_id: name for name, ids in self._owned.items()
                      for infra_id in ids}
        problems = ([] if by_inverse == self._owner else
                    ["ownership map and its inverse disagree"])
        problems += _differences(
            {f"owner of {infra_id}": name
             for infra_id, name in self._owner.items()},
            {f"owner of {infra.id}": name
             for name, view in self._fetched.items()
             if view is not None for infra in view.infras})
        if self._dov is None:
            return problems
        self._owe_withdrawn()
        dov, index = self._stitch(), SubstrateIndex()
        remaining, _ = self._derive(dov, index)
        for name, held in self._views.items():
            view, owed = held.graph, self._touched.get(name)
            what = f"install view of {name}"
            counted = {f"{what} NF count": held.nfs,
                       f"{what} flow rule count": held.flowrules}
            recounted = dict(zip(counted, _requested(view, None)))
            if owed:
                view = view.copy()
                refresh_members(view, self._dov, owed)
            problems += _differences(
                {**counted, **nffg_facts(what, view)},
                {**recounted, **nffg_facts(what, self._install_for(
                    self.adapters[name], dov))})
        return problems + _differences(
            {**nffg_facts("DoV", self._dov),
             **nffg_facts("remaining view", self._remaining),
             **self.substrate_index.facts()},
            {**nffg_facts("DoV", dov),
             **nffg_facts("remaining view", remaining), **index.facts()})

    # -- deployment ---------------------------------------------------------------------

    def _mark_dirty(self, result: MappingResult,
                    delta: Optional[ServiceDelta] = None,
                    moved: Optional[set[str]] = None) -> None:
        """Record a mapping's touched domains for the push planner; a
        mapping whose owners cannot be resolved (ownership map not
        built yet, foreign replay) dirties everything — correctness
        over planning.  With the ``delta`` a fold wrote into (or took
        out of) the live DoV, also record which members of which
        domain's install view that was: its NFs and SAPs, the infra
        ports that gained or lost an NF attachment or a flow rule (and
        under which hop ids), the links the DoV still has whose
        reservation moved — of the NFs and hops in ``moved`` only."""
        touched = self.adapter_names_for(result)
        self._dirty.update(touched if touched else self.adapters)
        if delta is None:
            return

        def kept(table: dict) -> Iterable:
            return table.items() if moved is None else [
                (key, value) for key, value in table.items() if key in moved]

        attach = self.substrate_index.sap_attachments()
        flow_ports = kept(delta.flow_ports)
        for infra_id, kind, member in (
                *((host, "nodes", nf_id)
                  for nf_id, host in kept(result.nf_placement)),
                *((attach[sap_id][0], "nodes", sap_id)
                  for sap_id in delta.sap_ids if sap_id in attach),
                *((port[0], "ports", port) for _, ports in (
                    *kept(delta.nf_ports), *flow_ports) for port in ports),
                *((self._dov.edge(link_id).src_node, "edges", link_id)
                  for _, (link_ids, _) in kept(delta.reservations)
                  for link_id in link_ids if self._dov.has_edge(link_id))):
            name = self._owner.get(infra_id)
            if name is not None:
                getattr(self._touched.setdefault(name, Touched()),
                        kind).add(member)
        for name in {self._owner.get(port[0])
                     for _, ports in flow_ports for port in ports}:
            if name is not None:
                self._touched[name].hops.update(hop for hop, _ in flow_ports)

    def _mark_committed(self, service_id: str, service: NFFG,
                        result: MappingResult, delta: Optional[ServiceDelta]) -> None:
        """Mark what a (re-)commit wrote — of a service withdrawn since the
        last push, in both versions, only the NFs and hops that moved."""
        withdrawn = (self._withdrawn.pop(service_id, None)
                     if delta is not None else None)
        moved = None
        if withdrawn is not None:
            now = (service, result)
            moved = {nf_id for nf_id in withdrawn[1].nf_placement.keys()
                     | result.nf_placement
                     if _state(withdrawn, nf_id) != _state(now, nf_id)}
            moved |= {hop.id for graph in (withdrawn[0], service)
                      for hop in graph.sg_hops
                      if _state(withdrawn, hop.id) != _state(now, hop.id)
                      or not moved.isdisjoint((hop.src_node, hop.dst_node))}
            self._mark_dirty(*withdrawn[1:], moved)
        self._mark_dirty(result, delta, moved)

    def _withdraw(self, service_id: str, service: NFFG,
                  result: MappingResult, delta: ServiceDelta) -> None:
        """Take a service out of the live DoV and index; owe its members."""
        remove_mapping(self._dov, delta)
        self.substrate_index.fold(service, result, -1.0)
        self._withdrawn[service_id] = (service, result, delta)

    def _owe_withdrawn(self) -> None:
        """No re-commit came: owe the install views all they wrote."""
        for _, result, delta in self._withdrawn.values():
            self._mark_dirty(result, delta)
        self._withdrawn.clear()

    def commit_mapping(self, service_id: str, service: NFFG,
                       result: MappingResult) -> None:
        """Record a successful mapping into the DoV (in place)."""
        delta = _replay(self.dov, self.substrate_index, service, result)
        if delta is None:
            raise NFFGError(f"mapping of {service_id!r} references "
                            "substrate missing from the DoV")
        self._deltas[service_id] = delta
        self._deployed[service_id] = (service, result)
        self._mark_committed(service_id, service, result, delta)
        counters.incr("dov.apply_inplace")
        self._settle()

    def remove_service(self, service_id: str) -> bool:
        if service_id not in self._deployed:
            return False
        service, result = self._deployed.pop(service_id)
        self._mark_dirty(result)
        # None: a deferred replay never entered the (dropped) DoV
        delta = self._deltas.pop(service_id, None)
        if delta is not None:
            self._withdraw(service_id, service, result, delta)
            counters.incr("dov.remove_inplace")
        self._settle()
        return True

    def snapshot_service(self, service_id: str) -> tuple[NFFG, MappingResult]:
        """The (service graph, mapping) pair recorded for a service."""
        return self._deployed[service_id]

    def restore_service(self, service_id: str,
                        snapshot: tuple[NFFG, MappingResult]) -> None:
        """Put a previously snapshotted service back (rollback path)."""
        self._deployed[service_id] = snapshot
        if self._dov is not None:
            self._rejoin(service_id)
        else:
            self._mark_dirty(snapshot[1])
        self._settle()

    def _rejoin(self, service_id: str) -> None:
        """Replay a booked service into the live DoV, or defer it (None)."""
        booked = self._deployed[service_id]
        delta = self._deltas[service_id] = _replay(
            self._dov, self.substrate_index, *booked)
        counters.incr("dov.apply_inplace" if delta is not None
                      else "dov.replay_skipped")
        self._mark_committed(service_id, *booked, delta)

    def _settle(self) -> None:
        """After a fold: an id that no longer resolved left the index
        stale — drop it with everything derived alongside instead of
        serving a wrong capacity."""
        if not self.substrate_index.covers(self._remaining):
            self._invalidate()
        set_gauge("cal.services_deployed", len(self._deployed))

    def deployed_services(self) -> list[str]:
        return list(self._deployed)

    def push_all(self) -> list[AdapterReport]:
        """Push the cumulative per-domain configuration to every domain.

        Domain orchestrators reconcile against the full config, so the
        push is idempotent and also serves teardown (a domain that no
        longer appears gets an empty graph).  :meth:`push_planned` with
        every domain marked dirty: what rollback, state import and
        recovery use.
        """
        self._dirty.update(self.adapters)
        return self.push_planned()

    def push_planned(self) -> list[AdapterReport]:
        """Push the domains whose configuration may have changed.

        The planner unions the touched-domain sets recorded by
        ``commit_mapping``/``remove_service``/``restore_service`` since
        the last push with the queued reconciliations whose breaker
        admits a push again, and submits dispatcher ops for exactly
        those domains — per-deploy push work is proportional to the
        domains a service touches, not to the number registered.

        A domain whose circuit breaker is open is skipped — its report
        carries ``skipped=True`` and its configuration joins the
        reconciliation queue, replayed by :meth:`reconcile` or the next
        planned push after the breaker half-opens.  Distinct domains
        are pushed concurrently; reports keep registration order.
        """
        self._prepare_push()  # a rebuild marks every domain dirty
        targets = self._dirty | self._admitted(self.pending_reconciliation())
        counters.incr("cal.push.planned", len(targets))
        if len(targets) < len(self.adapters):
            counters.incr("cal.push.skipped",
                          len(self.adapters) - len(targets))
        return self._fan_out(targets)

    def _admitted(self, names: Iterable[str]) -> set[str]:
        """The named domains whose breaker lets a push through."""
        return {name for name in names if self.breakers[name].allow()}

    def _fan_out(self, targets: set[str]) -> list[AdapterReport]:
        """The one push loop: one dispatcher op per target domain,
        reports in registration order."""
        self._dirty -= targets
        return self.dispatcher.run(
            (name, lambda adapter=adapter: self._push_one(adapter))
            for name, adapter in self.adapters.items() if name in targets)

    def _prepare_push(self) -> None:
        """Materialize (and, when degraded, refresh) the DoV on the
        caller's thread before any fan-out: ``_current_view`` runs on
        dispatcher workers and must only *read* it — a lazy rebuild
        there would re-enter the dispatcher under a domain's mutex."""
        if self._dov is not None and (
                self.last_view_failures or None in self._deltas.values()):
            # merged without some domain, or a booking's replay was
            # deferred: re-merge, so a returned domain's substrate and
            # its stranded services re-enter the view
            self._invalidate(self.adapters)
        if self._dov is None:
            self._rebuild_dov()
        self._owe_withdrawn()

    def _push_one(self, adapter: DomainAdapter) -> AdapterReport:
        """One domain's push, traced: the ``push/<domain>`` span covers
        the attempt *including* the breaker bookkeeping, so a
        ``breaker.trip`` event carries the span id of the push that
        tripped it.  Runs on a dispatcher worker, under the domain's
        FIFO mutex."""
        with obs.span(f"push/{adapter.name}",
                      domain=adapter.name) as span:
            report = self._push_one_traced(adapter)
            span.set(outcome=("skipped" if report.skipped
                              else "ok" if report.success else "failed"),
                     delta=report.delta, attempts=report.attempts)
            obs.event("push", domain=adapter.name, success=report.success,
                      skipped=report.skipped, delta=report.delta,
                      attempts=report.attempts, error=report.error,
                      push_ms=round(report.push_time_s * 1e3, 3))
        if not report.skipped:
            observe("push.latency_s", report.push_time_s,
                    domain=adapter.name)
        return report

    def _push_one_traced(self, adapter: DomainAdapter) -> AdapterReport:
        breaker = self.breakers[adapter.name]
        with self._pending_lock:
            was_pending = adapter.name in self._pending
        if not breaker.allow():
            counters.incr("resilience.breaker.skip")
            report = AdapterReport(
                domain=adapter.name, success=False, skipped=True,
                error=(f"circuit open after "
                       f"{breaker.consecutive_failures} consecutive "
                       "failures; push queued for reconciliation"))
        else:
            # delta pushes need an agreed base: after a skipped/failed
            # push (every reconcile target is one) or on a breaker's
            # half-open probe the domain's state is not trusted, so the
            # cumulative config goes out in full
            in_doubt = was_pending or breaker.state is BreakerState.HALF_OPEN
            started = time.perf_counter()
            try:
                held, touched = self._current_view(adapter)
            except Exception as exc:  # noqa: BLE001 - slicing needs the view
                report = AdapterReport(
                    domain=adapter.name, success=False,
                    error=f"{type(exc).__name__}: {exc}")
            else:
                sliced = time.perf_counter()
                if in_doubt:
                    # a full push re-establishes the base: every member
                    # is in doubt, not just the ones written since
                    adapter.reset_delta_state()
                    touched = None
                if touched is None:
                    counters.incr("cal.view.whole")
                report = adapter.install(held.graph, touched)
                report.slice_time_s = sliced - started
                report.nfs_requested = held.nfs
                report.flowrules_requested = held.flowrules
            breaker.record(report.success)
            if not report.success:
                # server state unknown: never diff against it again
                # until a full push re-establishes the base
                adapter.reset_delta_state()
        with self._pending_lock:
            if report.success:
                self._pending.discard(adapter.name)
                if was_pending:
                    counters.incr("resilience.breaker.reconcile")
            else:
                self._pending.add(adapter.name)
            depth = len(self._pending)
        set_gauge("cal.pending_reconcile", depth)
        return report

    def reconcile(self, *, force_probe: bool = False) -> list[AdapterReport]:
        """Replay the cumulative configuration to every domain whose
        last push was skipped or failed.

        With ``force_probe`` an open breaker is advanced to half-open
        first (operator signal: "the domain is back, try it"); without
        it only domains whose breaker already admits a push are tried.

        A DoV last merged while some domain was unreachable is
        re-merged first, so a returned domain's substrate and deferred
        service replays are back in the view before its cumulative
        configuration is re-pushed.
        """
        if force_probe:
            # a breaker can be open purely from view-fetch failures
            # (nothing pending): probe all — the refresh is the probe
            for breaker in self.breakers.values():
                breaker.force_half_open()
        self._prepare_push()
        # replays re-establish the delta base with a full push: their
        # domains are pending
        return self._fan_out(self._admitted(self.pending_reconciliation()))

    def pending_reconciliation(self) -> set[str]:
        """Domains holding stale configuration (push skipped/failed)."""
        with self._pending_lock:
            return set(self._pending)

    def quarantined_domains(self) -> set[str]:
        """Domains currently unusable: breaker open, or excluded from
        the latest pristine merge because their view was unreachable."""
        quarantined = {name for name, breaker in self.breakers.items()
                       if breaker.state is BreakerState.OPEN}
        return quarantined | self.last_view_failures

    # -- resilience state persistence ---------------------------------------

    def export_resilience(self) -> dict:
        """Serializable breaker + pending-replay state.

        A snapshot taken mid-storm must not forget which domains hold
        stale configuration awaiting replay, nor reset tripped
        breakers — an importer would otherwise hammer a domain the
        exporter had already quarantined.
        """
        return {
            "breakers": {name: breaker.export_state()
                         for name, breaker in self.breakers.items()},
            "pending": sorted(self.pending_reconciliation()),
        }

    def import_resilience(self, data: dict) -> None:
        """Restore :meth:`export_resilience` state onto the registered
        adapters.  Entries naming adapters this CAL does not have are
        skipped — a failover successor may front a subset (or renamed
        set) of the exporter's domains."""
        if not data:
            return
        for name, record in (data.get("breakers") or {}).items():
            breaker = self.breakers.get(name)
            if breaker is not None:
                breaker.import_state(record)
        restored = [name for name in data.get("pending") or ()
                    if name in self.adapters]
        with self._pending_lock:
            self._pending.update(restored)
            depth = len(self._pending)
        if restored:
            counters.incr("recovery.pending.restored", len(restored))
        set_gauge("cal.pending_reconcile", depth)

    def adapter_names_for(self, result: MappingResult) -> set[str]:
        """The adapters whose substrate a mapping actually touches
        (placements + route hops), per the latest merged ownership."""
        touched = touched_infra_ids(result.nf_placement, result.hop_routes)
        return {self._owner[infra_id] for infra_id in touched
                if infra_id in self._owner}

    def owned_infras(self, adapter_name: str) -> list[str]:
        """The infra ids the named adapter contributed to the latest
        merge, in its view's order (empty when its view was missing)."""
        return list(self._owned.get(adapter_name, ()))

    def _current_view(self, adapter: DomainAdapter,
                      ) -> tuple["_InstallView", Optional[Touched]]:
        """The adapter's install view brought up to date with the DoV,
        and what that changed in it since the view was last handed out:
        the members the folds recorded plus the links that came and went
        with them; for a view only just sliced, the members on which it
        differs from the graph of the view it replaces — None when
        there is none, or no edit leads from one to the other.  Runs
        under the domain's dispatcher mutex, which is what makes this
        the single writer of the adapter's ``_views`` entry."""
        name = adapter.name
        touched = self._touched.pop(name, None) or Touched()
        held = self._views.get(name)
        if held is None:
            counters.incr("cal.view.slice")
            graph = self._install_for(adapter)
            self._views[name] = held = _InstallView(
                graph, *_requested(graph, None))
            replaced = self._replaced.pop(name, None)
            if replaced is None:
                return held, None
            counters.incr("cal.view.compare")
            return held, differing_members(replaced, graph)
        counters.incr("cal.view.refresh")
        before = _requested(held.graph, touched)
        touched.edges |= refresh_members(held.graph, self._dov, touched)
        after = _requested(held.graph, touched)
        held.nfs += after[0] - before[0]
        held.flowrules += after[1] - before[1]
        return held, touched

    def _install_for(self, adapter: DomainAdapter,
                     dov: Optional[NFFG] = None) -> NFFG:
        """The adapter's install slice, computed directly from the DoV
        (``dov``: from a re-derived one): what its install view starts
        as and is checked against.

        Members are the adapter's own infras, the NFs placed on them
        and the SAPs attached via its own sap-tagged ports; links
        survive exactly when both endpoints are members, so
        inter-domain stitches, SG hops and requirements never enter an
        install view: O(domain) per push.  The graph id is
        deterministic per adapter so the delta machinery diffs against a
        stable base — ``<dov>@<type>``, suffixed ``@<name>`` when the
        DomainType is shared.
        """
        dov = dov or self.dov
        own_present = [infra_id for infra_id in self._owned.get(adapter.name, ())
                       if dov.has_node(infra_id)]
        if not own_present:
            return NFFG(id=f"{adapter.name}-empty")
        members: list[str] = list(own_present)
        for infra_id in own_present:
            for nf in dov.nfs_on(infra_id):
                members.append(nf.id)
        seen_tags: set[str] = set()
        for infra_id in own_present:
            infra = dov.infra(infra_id)
            for port in infra.ports.values():
                tag = port.sap_tag
                if (tag is not None and tag not in seen_tags
                        and dov.has_node(tag)
                        and isinstance(dov.node(tag), NodeSAP)):
                    seen_tags.add(tag)
                    members.append(tag)
        domain = adapter.domain_type.value
        shared_type = len(self._adapters_by_type.get(
            adapter.domain_type, ())) > 1
        install_id = (f"{dov.id}@{domain}@{adapter.name}" if shared_type
                      else f"{dov.id}@{domain}")
        return dov.copy_subgraph(install_id, members,
                                 name=f"install view for {domain}")

    def ready(self) -> bool:
        return all(adapter.ready() for adapter in self.adapters.values())


@dataclass
class _InstallView:
    """One adapter's install graph and the count of what it asks of the
    domain (what ``AdapterReport`` carries), kept as the graph is edited."""

    graph: NFFG
    nfs: int
    flowrules: int


def _requested(graph: NFFG, touched: Optional[Touched]) -> tuple[int, int]:
    """(NFs, flow rules) among the ``touched`` members ``graph`` holds
    (None: in all of it)."""
    if touched is None:
        nodes = graph.nodes
        ports = (port for infra in graph.infras
                 for port in infra.ports.values())
    else:
        nodes = map(graph.node, filter(graph.has_node, touched.nodes))
        ports = (graph.node(node_id).ports.get(port_id)
                 for node_id, port_id in touched.ports
                 if graph.has_node(node_id))
    return (sum(isinstance(node, NodeNF) for node in nodes),
            sum(len(port.flowrules) for port in ports if port is not None))


def _replay(dov: NFFG, index: SubstrateIndex, service: NFFG,
            result: MappingResult) -> Optional[ServiceDelta]:
    """Fold one booked mapping into derived state: placements,
    reservations and flow rules into ``dov``, its demands out of
    ``index`` and the remaining view bound to it.  Returns the inverse
    record, or None — nothing written — when substrate the mapping
    references is absent from ``dov`` (its domain is missing from a
    degraded merge)."""
    touched = touched_infra_ids(result.nf_placement, result.hop_routes)
    if not (all(map(dov.has_node, touched)) and all(
            dov.has_edge(link_id) for route in result.hop_routes.values()
            for link_id in route.link_ids)):
        return None
    delta = apply_mapping(dov, service, result.nf_placement,
                          result.hop_routes, index.sap_attachments())
    index.fold(service, result, 1.0)
    return delta


def _link_moves(old: Optional[NFFG], new: Optional[NFFG],
                ) -> Optional[tuple[set[str], list[EdgeLink]]]:
    """(ids of the links gone, the links that came) between two fetches
    of a domain's view; None when anything else differs — a node came, went
    or changed its record, or an edge both hold changed."""
    if old is None or new is None:
        return (set(), []) if old is new else None
    if ({node.id: node.__dict__ for node in old.nodes}
            != {node.id: node.__dict__ for node in new.nodes}):
        return None
    gone = {edge.id: edge for edge in old.edges}
    came = [edge for edge in new.edges if edge.id not in gone]
    if any(gone.pop(edge.id, edge) != edge for edge in new.edges):
        return None
    return set(gone), came


def _state(booked: tuple, element_id: str) -> tuple:
    """(host or route, record) of an NF or a hop in a booked service."""
    graph, result = booked[:2]
    if graph.has_node(element_id):
        return result.nf_placement.get(element_id), vars(
            graph.node(element_id))
    return (result.hop_routes.get(element_id), graph.edge(element_id)
            if graph.has_edge(element_id) else None)


def _differences(live: dict[str, object],
                 rebuilt: dict[str, object]) -> list[str]:
    """Name every fact two fact maps disagree on (floats within 1e-6:
    a fold and its inverse do not cancel to the last bit)."""
    def close(a, b) -> bool:
        if isinstance(a, float) and isinstance(b, float):
            return abs(a - b) <= 1e-6
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            return len(a) == len(b) and all(map(close, a, b))
        return a == b

    return sorted(
        [f"ghost {name} (live only)" for name in live.keys() - rebuilt.keys()]
        + [f"missing {name}" for name in rebuilt.keys() - live.keys()]
        + [f"{name}: live {live[name]!r} != rebuilt {rebuilt[name]!r}"
           for name in live.keys() & rebuilt.keys()
           if not close(live[name], rebuilt[name])])
