"""Mininet-like emulated domain.

The paper keeps "our Mininet based domain orchestrated by a dedicated
ESCAPEv2 entity via NETCONF and OpenFlow control channels.  Here, the
NFs are run as isolated Click processes."  This package provides:

- :class:`EmulatedDomain` — a topology of NF-hosting switches (BiS-BiS
  nodes) and SAP hosts on the shared packet simulator;
- :class:`EmuDomainOrchestrator` — the domain-local orchestrator: a
  NETCONF server that accepts virtualizers, starts/stops Click NFs and
  programs steering flow rules through an internal OpenFlow controller.
"""

from repro.emu.domain import EmulatedDomain
from repro.emu.orchestrator import EmuDomainOrchestrator

__all__ = ["EmulatedDomain", "EmuDomainOrchestrator"]
