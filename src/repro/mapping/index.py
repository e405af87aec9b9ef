"""Persistent substrate index over a resource view.

Every mapping run used to redo O(substrate) work from scratch: a fresh
:class:`~repro.mapping.base.ResourceLedger` scan, a fresh SAP-attachment
walk, a fresh adjacency/node-delay build, and a full `resource.infras`
scan *per NF* inside every embedder.  :class:`SubstrateIndex` hoists all
of that out of the run and keeps it alive across requests:

- **candidate sets** per functional type (explicitly supporting infras
  plus the wildcard pool) and per technology domain, so embedders ask
  for the top-K feasible hosts instead of scanning the substrate;
- **residual-capacity buckets** (power-of-two CPU classes, mirroring
  :func:`repro.mapping.pathcache.bandwidth_class`) ordered
  cheapest-first within a class, walked largest-class-first for top-K
  host selection;
- **ledger seed maps** (free compute per infra, free bandwidth per
  link) handed to :class:`ResourceLedger` as copy-on-write bases — a
  ledger becomes O(1) to build instead of O(substrate);
- **cached topology tables**: infra adjacency, node delays, SAP
  attachments, and a shared single-source delay memo that persists
  across mapping runs (it depends on topology only, never on the
  ledger);
- **scarce specialists**: which hosts support a scarce functional type
  (:func:`~repro.mapping.greedy.scarce_specialists`), the facts greedy's
  scarcity tier reads — built on first use like the topology tables.

The index is owned by the CAL and bound to its live DoV, the view the
embedders map against: :meth:`sync` is called with a pristine stitch
and the CAL's ``topology_generation`` exactly like ``PathCache.sync()``
(any epoch or identity change triggers a full :meth:`rebuild`) before
the books are replayed onto it.  The view then holds topology and
capacities, the index every *free* amount: :meth:`fold` is the single
writer of residual capacities — it nets a deploy/teardown delta out of
the free maps and writes no graph, as :meth:`relink` moves the free
bandwidth of links that came or went in the view.  An id that no longer
resolves marks the index stale and tells the caller to drop the view;
``ControllerAdaptationLayer.verify()`` rebuilds both from scratch and
compares :meth:`facts`.

Thread-safety: like the CAL's live DoV, the index is only mutated on
the orchestrator thread (commits/removals/rebuilds happen before any
push fan-out starts), so it takes no locks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Iterable, Optional

from repro.mapping.base import build_sap_attachments
from repro.mapping.greedy import scarce_specialists
from repro.nffg.graph import NFFG, NFFGError
from repro.nffg.model import EdgeLink, InfraType, ResourceVector
from repro.perf import counters

_EMPTY_SET: frozenset[str] = frozenset()

#: consumable ResourceVector dimensions :meth:`SubstrateIndex.facts`
#: states (node bandwidth and delay are capabilities, not allocations)
_DIMS = ("cpu", "mem", "storage")


def net_free(free: ResourceVector, demand: ResourceVector,
             sign: float) -> ResourceVector:
    """``free`` less ``sign`` times the consumable part of ``demand``,
    each dimension clamped at 0."""
    return ResourceVector(
        cpu=max(free.cpu - sign * demand.cpu, 0.0),
        mem=max(free.mem - sign * demand.mem, 0.0),
        storage=max(free.storage - sign * demand.storage, 0.0),
        bandwidth=free.bandwidth, delay=free.delay)


def cpu_class(cpu: float) -> int:
    """Bucket a free-CPU amount by power of two (class 0 = exhausted)."""
    if cpu <= 0.0:
        return 0
    return max(1, math.frexp(cpu)[1])


class SubstrateIndex:
    """Incrementally-maintained candidate/capacity index over one view."""

    def __init__(self) -> None:
        #: the exact view object this index describes (identity-checked)
        self.resource: Optional[NFFG] = None
        self._epoch: Optional[int] = None
        self._stale = False
        #: ledger seed: infra id -> free compute (every infra, switches too)
        self.free: dict[str, ResourceVector] = {}
        #: ledger seed: link id -> free bandwidth
        self.link_free: dict[str, float] = {}
        #: functional type -> infras listing it in ``supported_types``
        self._by_type: dict[str, set[str]] = {}
        #: NF-capable infras with an empty (wildcard) supported set
        self._wildcard: set[str] = set()
        #: infra id -> DomainType value string
        self._domain_of: dict[str, str] = {}
        self._cost_of: dict[str, float] = {}
        #: capacity buckets over NF-capable infras: class -> sorted
        #: [(cost_per_cpu, infra_id)]; walked high class -> low for top-K
        self._buckets: dict[int, list[tuple[float, str]]] = {}
        self._bucket_of: dict[str, int] = {}
        #: lazily built topology tables, dropped on rebuild
        self._adjacency: Optional[dict[str, list[EdgeLink]]] = None
        self._node_delays: Optional[dict[str, float]] = None
        self._sap_attach: Optional[dict[str, tuple[str, str]]] = None
        #: lazily built, dropped on rebuild; supported types never move
        #: in a fold or relink
        self._specialists: Optional[dict[str, frozenset[str]]] = None
        #: shared single-source delay memo (topology-only, so it is
        #: valid across mapping runs until the next rebuild)
        self.delay_memo: dict[str, dict[str, float]] = {}
        self.applies = 0
        self.rebuilds = 0

    # -- lifecycle ---------------------------------------------------------

    def sync(self, resource: NFFG, epoch: Optional[int] = None
             ) -> "SubstrateIndex":
        """Bind the index to the current view, rebuilding when the view
        object, the topology epoch, or a detected inconsistency moved —
        the :meth:`PathCache.sync` idiom."""
        if (self.resource is resource and not self._stale
                and (epoch is None or epoch == self._epoch)):
            return self
        self.rebuild(resource, epoch=epoch)
        return self

    def covers(self, resource: NFFG) -> bool:
        """True when the index describes exactly this view object."""
        return self.resource is resource and not self._stale

    def mark_stale(self) -> None:
        self._stale = True

    def rebuild(self, resource: NFFG, epoch: Optional[int] = None) -> None:
        """Full re-derivation from a view (the escape hatch everything
        falls back to)."""
        self.resource = resource
        self._epoch = epoch
        self._stale = False
        self.free = {}
        self.link_free = {}
        self._by_type = {}
        self._wildcard = set()
        self._domain_of = {}
        self._cost_of = {}
        self._buckets = {}
        self._bucket_of = {}
        self._adjacency = None
        self._node_delays = None
        self._sap_attach = None
        self._specialists = None
        self.delay_memo = {}
        # net out placed NFs in one edge-table pass (ledger idiom); the
        # CAL's pristine stitch carries none, a mapped graph may
        consumed: dict[str, ResourceVector] = {}
        for infra_id, nf in resource.placed_nfs():
            total = consumed.get(infra_id)
            consumed[infra_id] = (nf.resources if total is None
                                  else total + nf.resources)
        for infra in resource.infras:
            used = consumed.get(infra.id)
            free = (infra.resources if used is None
                    else infra.resources - used)
            self.free[infra.id] = free
            self._domain_of[infra.id] = infra.domain.value
            self._cost_of[infra.id] = infra.cost_per_cpu
            if infra.infra_type == InfraType.SDN_SWITCH:
                continue
            if infra.supported_types:
                for functional_type in infra.supported_types:
                    self._by_type.setdefault(functional_type,
                                             set()).add(infra.id)
            else:
                self._wildcard.add(infra.id)
            self._bucket_add(infra.id)
        for link in resource.links:
            self.link_free[link.id] = link.available_bandwidth
        self.rebuilds += 1
        counters.incr("mapping.index.rebuild")

    # -- capacity buckets --------------------------------------------------

    def _bucket_add(self, infra_id: str) -> None:
        cls = cpu_class(self.free[infra_id].cpu)
        self._bucket_of[infra_id] = cls
        insort(self._buckets.setdefault(cls, []),
               (self._cost_of[infra_id], infra_id))

    def _bucket_remove(self, infra_id: str) -> None:
        cls = self._bucket_of.pop(infra_id)
        bucket = self._buckets[cls]
        entry = (self._cost_of[infra_id], infra_id)
        pos = bisect_left(bucket, entry)
        if pos >= len(bucket) or bucket[pos] != entry:
            raise KeyError(infra_id)
        del bucket[pos]
        if not bucket:
            del self._buckets[cls]

    # -- incremental maintenance -------------------------------------------

    def fold(self, service: NFFG, result, sign: float) -> bool:
        """Fold a mapping deployed to (``sign=1``) or removed from
        (``sign=-1``) the substrate into the free maps and buckets —
        the one place residuals are computed; the bound view holds
        capacities and is not written.  Touches only the placed infras
        and routed links.  Returns False, with the index marked stale,
        when an id no longer resolves: the caller must drop the view
        with it."""
        if self.resource is None or self._stale:
            return False
        try:
            for nf_id, infra_id in result.nf_placement.items():
                updated = self.free[infra_id] = net_free(
                    self.free[infra_id], service.nf(nf_id).resources, sign)
                if (infra_id in self._bucket_of and cpu_class(updated.cpu)
                        != self._bucket_of[infra_id]):
                    self._bucket_remove(infra_id)
                    self._bucket_add(infra_id)
            for route in result.hop_routes.values():
                for link_id in route.link_ids:
                    self.link_free[link_id] = max(
                        self.link_free[link_id] - sign * route.bandwidth, 0.0)
        except (KeyError, NFFGError):
            self.mark_stale()
            counters.incr("mapping.index.stale")
            return False
        self.applies += 1
        counters.incr("mapping.index.apply")
        return True

    def relink(self, gone: Iterable[str], came: Iterable[EdgeLink],
               epoch: Optional[int]) -> None:
        """Follow links that left and entered the bound view into the
        ledger seed, and move to the topology ``epoch``, without a
        rebuild: the topology tables and the delay memo derive again on
        use."""
        for link_id in gone:
            del self.link_free[link_id]
        for link in came:
            self.link_free[link.id] = link.available_bandwidth
        self._epoch = epoch
        self._adjacency = self._sap_attach = None
        self.delay_memo = {}

    # -- ledger seeding ----------------------------------------------------

    def ledger_seed(self) -> tuple[dict[str, ResourceVector],
                                   dict[str, float]]:
        """Base maps for a copy-on-write :class:`ResourceLedger` — the
        ledger overlays its tentative allocations without mutating
        these."""
        return self.free, self.link_free

    # -- topology tables ---------------------------------------------------

    def adjacency(self) -> dict[str, list[EdgeLink]]:
        if self._adjacency is None:
            from repro.mapping.paths import build_infra_adjacency
            self._adjacency = build_infra_adjacency(self.resource)
        return self._adjacency

    def node_delays(self) -> dict[str, float]:
        if self._node_delays is None:
            from repro.mapping.paths import build_node_delays
            self._node_delays = build_node_delays(self.resource)
        return self._node_delays

    def sap_attachments(self) -> dict[str, tuple[str, str]]:
        if self._sap_attach is None:
            self._sap_attach = build_sap_attachments(self.resource)
        return self._sap_attach

    def scarce_specialists(self) -> dict[str, frozenset[str]]:
        if self._specialists is None:
            self._specialists = scarce_specialists(self.resource)
        return self._specialists

    # -- candidate queries -------------------------------------------------

    def supporters(self, functional_type: str) -> int:
        """How many NF-capable infras can run this type."""
        return (len(self._by_type.get(functional_type, _EMPTY_SET))
                + len(self._wildcard))

    def candidate_ids(self, functional_type: str, *,
                      domain: Optional[str] = None,
                      k: Optional[int] = None,
                      min_cpu: float = 0.0,
                      near: Optional[str] = None) -> list[str]:
        """Candidate host ids for one NF.

        With ``k`` the result is a pruned top-K: up to half the slots go
        to hosts found by a bounded BFS around ``near`` (the embedder's
        anchor — keeps delay detours small), the rest come from the
        capacity buckets, largest free-CPU class first and cheapest
        first within a class.  Without ``k`` the *full* supporting set
        is returned (buckets below ``min_cpu``'s class are skipped —
        they provably cannot host the demand)."""
        counters.incr("mapping.index.candidates")
        typed = self._by_type.get(functional_type, _EMPTY_SET)
        wild = self._wildcard
        out: list[str] = []
        seen: set[str] = set()

        def admit(infra_id: str) -> None:
            if infra_id in seen:
                return
            seen.add(infra_id)
            if infra_id not in typed and infra_id not in wild:
                return
            if domain is not None and self._domain_of.get(infra_id) != domain:
                return
            out.append(infra_id)

        if k is not None and near is not None:
            self._admit_near(admit, near, min_cpu,
                             quota=max(1, k // 2), out=out)
        floor_cls = cpu_class(min_cpu) if min_cpu > 0.0 else 0
        for cls in sorted(self._buckets, reverse=True):
            if cls < floor_cls:
                break
            if k is not None and len(out) >= k:
                break
            for _cost, infra_id in self._buckets[cls]:
                if k is not None and len(out) >= k:
                    break
                admit(infra_id)
        return out

    def _admit_near(self, admit, near: str, min_cpu: float, *,
                    quota: int, out: list[str]) -> None:
        """Breadth-first walk of the substrate around an anchor,
        admitting up to ``quota`` capacity-plausible hosts.  The visit
        budget bounds the walk so an anchor stranded far from any
        supporter cannot degenerate into a full scan."""
        adjacency = self.adjacency()
        budget = max(32, 8 * quota)
        frontier: deque[str] = deque((near,))
        visited = {near}
        while frontier and budget > 0 and len(out) < quota:
            current = frontier.popleft()
            budget -= 1
            free = self.free.get(current)
            if free is not None and free.cpu >= min_cpu:
                admit(current)
            for link in adjacency.get(current, ()):
                neighbour = link.dst_node
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)

    def facts(self) -> dict[str, object]:
        """Everything the index claims, as flat named facts — what the
        CAL's ``verify()`` diffs against a from-scratch rebuild."""
        facts: dict[str, object] = {
            "index candidate types": {
                functional_type: sorted(members)
                for functional_type, members in self._by_type.items()},
            "index wildcard hosts": sorted(self._wildcard)}
        for infra_id, free in self.free.items():
            facts[f"index free capacity of {infra_id}"] = tuple(
                getattr(free, dim) for dim in _DIMS)
        for infra_id, cls in self._bucket_of.items():
            facts[f"index cpu class of {infra_id}"] = cls
        for link_id, bandwidth in self.link_free.items():
            facts[f"index free bandwidth of {link_id}"] = bandwidth
        return facts

    def stats(self) -> dict[str, int]:
        return {"infras": len(self.free), "links": len(self.link_free),
                "types": len(self._by_type), "wildcard": len(self._wildcard),
                "applies": self.applies, "rebuilds": self.rebuilds}

    def __repr__(self) -> str:
        view = self.resource.id if self.resource is not None else None
        return (f"<SubstrateIndex view={view!r} infras={len(self.free)} "
                f"stale={self._stale}>")
