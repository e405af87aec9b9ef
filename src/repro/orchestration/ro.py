"""The resource orchestration layer.

"The task of the resource orchestrator is to map the configurations of
different client virtualizations to a configuration at the underlying
domain virtualizer."  The RO wraps a pluggable embedder and (optionally)
the NF decomposition library, and validates every mapping's placement
and routes independently before it is allowed to reach any domain.  It
returns plain data and writes no graph: the CAL writes the mapping into
the DoV and counts its flow rules there.
"""

from __future__ import annotations

from typing import Optional, Union

from repro import obs
from repro.mapping.base import Embedder, MappingResult
from repro.mapping.decomposition import (
    DecompositionLibrary,
    map_with_decomposition,
)
from repro.mapping.greedy import GreedyEmbedder
from repro.mapping.registry import make_embedder
from repro.mapping.validate import validate_mapping
from repro.nffg.graph import NFFG
from repro.perf import observe


class ResourceOrchestrator:
    """Embedding + decomposition + verification, behind one call."""

    def __init__(self, embedder: Optional[Union[Embedder, str]] = None,
                 decomposition_library: Optional[DecompositionLibrary] = None,
                 max_decomposition_options: int = 16):
        if isinstance(embedder, str):
            embedder = make_embedder(embedder)
        self.embedder = embedder or GreedyEmbedder()
        self.decomposition_library = decomposition_library
        self.max_decomposition_options = max_decomposition_options
        self.mappings_attempted = 0
        self.mappings_succeeded = 0

    def orchestrate(self, service: NFFG, resource_view: NFFG,
                    path_cache=None, index=None) -> MappingResult:
        """Map a service graph onto a resource view.

        When a decomposition library is configured, abstract NFs are
        expanded and alternatives tried cheapest-first.  The winning
        mapping is re-validated from scratch (defense against embedder
        bugs) before being returned as successful.  The result is the
        graph-free record the CAL's books, the reports and heal's
        repairs keep.  ``path_cache`` — a
        :class:`repro.mapping.pathcache.PathCache` owned by the caller —
        is shared across requests hitting the same substrate, and
        ``index`` — the CAL's :class:`repro.mapping.index.SubstrateIndex`
        — seeds each run's ledger and candidate sets when it covers
        ``resource_view``.
        """
        self.mappings_attempted += 1
        with obs.span("map/embed", embedder=self.embedder.name):
            if self.decomposition_library is not None:
                result = map_with_decomposition(
                    self.embedder, service, resource_view,
                    self.decomposition_library,
                    max_options=self.max_decomposition_options,
                    path_cache=path_cache, index=index)
            else:
                result = self.embedder.map(service, resource_view,
                                           path_cache=path_cache, index=index)
        if result.success:
            effective_service = result.service if result.service is not None \
                else service
            with obs.span("map/validate"):
                problems = validate_mapping(effective_service,
                                            resource_view, result)
            if problems:
                result.success = False
                result.failure_reason = "mapping verification failed: " \
                    + "; ".join(d.message for d in problems)
        if result.success:
            self.mappings_succeeded += 1
        observe("map.latency_s", result.runtime_s,
                embedder=self.embedder.name)
        return result

    @property
    def acceptance_ratio(self) -> float:
        if self.mappings_attempted == 0:
            return 0.0
        return self.mappings_succeeded / self.mappings_attempted

    def __repr__(self) -> str:
        return (f"<ResourceOrchestrator embedder={self.embedder.name} "
                f"decomposition={'on' if self.decomposition_library else 'off'}>")
