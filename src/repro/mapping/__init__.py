"""Embedding (mapping) algorithms and NF decomposition.

"The task of the resource orchestrator is to map the configurations of
different client virtualizations to a configuration at the underlying
domain virtualizer."  Concretely: given a *service graph* (NFs, SAPs,
SG hops, requirements) and a *resource view* (BiS-BiS topology), decide

1. which BiS-BiS hosts each NF (respecting capacities and supported NF
   types), and
2. which substrate path realizes each SG hop (respecting link
   bandwidths and end-to-end delay requirements),

then express the decision as NF placements + flow rules.  ESCAPEv2
treats the algorithm as a plugin (:mod:`repro.mapping.registry`); two
are provided here — greedy, the default, which protects scarce NF types
itself, and backtracking search — plus the NF-decomposition machinery
of ref [2] (Sahhaf et al.).
"""

from repro.mapping.base import (
    Embedder,
    MappingContext,
    MappingError,
    MappingResult,
    ResourceLedger,
)
from repro.mapping.greedy import GreedyEmbedder
from repro.mapping.backtrack import BacktrackingEmbedder
from repro.mapping.index import SubstrateIndex
from repro.mapping.registry import (
    EMBEDDERS,
    embedder_names,
    make_embedder,
    register_embedder,
)
from repro.mapping.decomposition import (
    Decomposition,
    DecompositionLibrary,
    DecompositionRule,
    default_decomposition_library,
    expand_service,
)
from repro.mapping.validate import validate_mapping

__all__ = [
    "Embedder",
    "MappingContext",
    "MappingError",
    "MappingResult",
    "ResourceLedger",
    "GreedyEmbedder",
    "BacktrackingEmbedder",
    "SubstrateIndex",
    "EMBEDDERS",
    "embedder_names",
    "make_embedder",
    "register_embedder",
    "Decomposition",
    "DecompositionLibrary",
    "DecompositionRule",
    "default_decomposition_library",
    "expand_service",
    "validate_mapping",
]
