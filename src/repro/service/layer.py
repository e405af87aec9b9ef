"""The service layer's orchestration side.

Contains the *service orchestrator* of the paper: requests are mapped
onto the view the lower layer exposes.  When the view is a single
BiS-BiS the task is trivial (the paper's delegation case) — the
service layer just forwards the graph; against richer views it can run
its own embedder before delegating.
"""

from __future__ import annotations

from typing import Optional

from repro.nffg.graph import NFFG
from repro.orchestration.escape import EscapeOrchestrator
from repro.orchestration.report import DeployReport
from repro.service.request import ServiceRequest, ServiceState


class ServiceLayer:
    """Request lifecycle management on top of an orchestrator.

    ``requests`` holds the deployed requests only: a request that
    failed or was terminated is dropped, so the layer's memory follows
    what is resident, not every request it has served.  The caller's
    :class:`ServiceRequest` keeps its final state and error.
    """

    def __init__(self, orchestrator: EscapeOrchestrator,
                 name: str = "service-layer"):
        self.name = name
        self.orchestrator = orchestrator
        self.requests: dict[str, ServiceRequest] = {}

    # -- lifecycle ----------------------------------------------------------

    def submit(self, request: ServiceRequest) -> DeployReport:
        """Validate and deploy a request; keep it while it is deployed."""
        if request.id in self.requests:
            return DeployReport(service_id=request.id, success=False,
                                error="already deployed")
        problems = request.sg.validate()
        if problems:
            request.state = ServiceState.FAILED
            request.error = "; ".join(problems)
            return DeployReport(service_id=request.id, success=False,
                                error=request.error)
        report = self.orchestrator.deploy(request.sg)
        if report.success:
            request.state = ServiceState.DEPLOYED
            self.requests[request.id] = request
        else:
            request.state = ServiceState.FAILED
            request.error = report.error
        return report

    def terminate(self, request_id: str) -> bool:
        request = self.requests.get(request_id)
        if request is None or not self.orchestrator.teardown(request_id):
            return False
        request.state = ServiceState.TERMINATED
        del self.requests[request_id]
        return True

    def status(self, request_id: str) -> Optional[ServiceState]:
        """DEPLOYED for a resident request, None for any other."""
        request = self.requests.get(request_id)
        return request.state if request is not None else None

    def active_requests(self) -> list[ServiceRequest]:
        return list(self.requests.values())

    # -- introspection -----------------------------------------------------------

    def topology_view(self) -> NFFG:
        """The virtual view this layer plans against."""
        return self.orchestrator.resource_view()

    def __repr__(self) -> str:
        return f"<ServiceLayer {self.name}: {len(self.requests)} deployed>"
