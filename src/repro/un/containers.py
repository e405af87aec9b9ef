"""Docker-like container runtime for Universal Node NFs."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.click.catalog import NF_CATALOG, make_nf_process
from repro.click.process import ClickProcess
from repro.sim.kernel import Simulator


class ContainerState(str, enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"


@dataclass
class Container:
    id: str
    name: str
    image: str                    #: NF functional type (image tag)
    cpu_limit: float
    mem_limit_mb: float
    state: ContainerState = ContainerState.CREATED
    process: Optional[ClickProcess] = None
    started_at: float = 0.0
    _on_running: list[Callable[["Container"], None]] = field(
        default_factory=list, repr=False)

    def on_running(self, callback: Callable[["Container"], None]) -> None:
        if self.state == ContainerState.RUNNING:
            callback(self)
        else:
            self._on_running.append(callback)


class ContainerRuntime:
    """Container lifecycle with start latency on the virtual clock.

    Containers start an order of magnitude faster than cloud VMs —
    the UN's selling point for high-churn NFs.  ``containers`` holds
    the created and running ones: a stop forgets the container.
    """

    def __init__(self, simulator: Simulator, *, node_name: str = "un",
                 cpu_capacity: float = 16.0, mem_capacity_mb: float = 16384.0,
                 start_delay_ms: float = 300.0):
        self.simulator = simulator
        self.node_name = node_name
        self.cpu_capacity = cpu_capacity
        self.mem_capacity_mb = mem_capacity_mb
        self.start_delay_ms = start_delay_ms
        self.containers: dict[str, Container] = {}
        self._id_seq = itertools.count(1)
        self.starts = 0

    # -- capacity -----------------------------------------------------------

    @property
    def cpu_used(self) -> float:
        return sum(c.cpu_limit for c in self.containers.values())

    @property
    def mem_used(self) -> float:
        return sum(c.mem_limit_mb for c in self.containers.values())

    def can_run(self, cpu: float, mem_mb: float) -> bool:
        return (self.cpu_used + cpu <= self.cpu_capacity + 1e-9
                and self.mem_used + mem_mb <= self.mem_capacity_mb + 1e-9)

    # -- lifecycle -------------------------------------------------------------

    def run(self, name: str, image: str, *, cpu: float = 1.0,
            mem_mb: float = 128.0) -> Container:
        """`docker run`: create + start (async on the virtual clock)."""
        if image not in NF_CATALOG:
            raise KeyError(f"unknown image {image!r}")
        if not self.can_run(cpu, mem_mb):
            raise RuntimeError(
                f"{self.node_name}: out of capacity for container {name!r}")
        container = Container(id=f"ctr-{next(self._id_seq)}", name=name,
                              image=image, cpu_limit=cpu, mem_limit_mb=mem_mb)
        self.containers[container.id] = container
        self.starts += 1
        self.simulator.schedule(self.start_delay_ms, self._start, container.id)
        return container

    def _start(self, container_id: str) -> None:
        container = self.containers.get(container_id)
        if container is None or container.state != ContainerState.CREATED:
            return
        container.process = make_nf_process(container.name, container.image)
        container.state = ContainerState.RUNNING
        container.started_at = self.simulator.now
        callbacks, container._on_running = container._on_running, []
        for callback in callbacks:
            callback(container)

    def stop(self, container_id: str) -> None:
        container = self.containers.pop(container_id, None)
        if container is None:
            return
        if container.process is not None:
            container.process.stop()
        container.state = ContainerState.STOPPED

    def by_name(self, name: str) -> Optional[Container]:
        for container in self.containers.values():
            if container.name == name:
                return container
        return None

    def running(self) -> list[Container]:
        return [c for c in self.containers.values()
                if c.state == ContainerState.RUNNING]
