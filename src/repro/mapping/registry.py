"""Embedder registry: name -> class, for the RO and the CLI.

ESCAPEv2 treats the embedding algorithm as a plugin selected by name;
this registry is that seam.  Out-of-tree embedders register with
:func:`register_embedder` and become constructible everywhere an
embedder name is accepted (``ResourceOrchestrator(embedder="greedy")``,
``repro perf --embedder backtrack``, ...).  Two are built in: ``greedy``
(the default) and ``backtrack``.
"""

from __future__ import annotations

from typing import Type

from repro.mapping.backtrack import BacktrackingEmbedder
from repro.mapping.base import Embedder
from repro.mapping.greedy import GreedyEmbedder

EMBEDDERS: dict[str, Type[Embedder]] = {
    GreedyEmbedder.name: GreedyEmbedder,
    BacktrackingEmbedder.name: BacktrackingEmbedder,
}


def register_embedder(cls: Type[Embedder]) -> Type[Embedder]:
    """Register an embedder class under its ``name`` (usable as a
    decorator); re-registration of the same name must be deliberate."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"embedder {cls!r} needs a concrete name")
    EMBEDDERS[cls.name] = cls
    return cls


def embedder_names() -> list[str]:
    return sorted(EMBEDDERS)


def make_embedder(name: str) -> Embedder:
    """Construct a registered embedder by name."""
    try:
        cls = EMBEDDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown embedder {name!r}; registered: "
            f"{', '.join(embedder_names())}") from None
    return cls()
