"""The graph a mapping makes, for the tests that inspect one.

A :class:`~repro.mapping.base.MappingResult` is plain data: placement
and routes, no graph.  The mapped graph is that result written into a
copy of the view it was mapped against, by the one writer the CAL uses
on its DoV.
"""

from repro.mapping.base import MappingResult, apply_mapping, build_sap_attachments
from repro.nffg.graph import NFFG


def mapped_graph(resource: NFFG, result: MappingResult) -> NFFG:
    """A copy of ``resource`` with ``result`` applied to it."""
    mapped = resource.copy(f"{resource.id}-mapped")
    apply_mapping(mapped, result.service, result.nf_placement,
                  result.hop_routes, build_sap_attachments(resource))
    return mapped
