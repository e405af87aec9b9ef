"""Nova-style compute service.

Reproduces the OpenStack scheduling pipeline at the fidelity the UNIFY
local orchestrator exercises: flavors and images, hypervisor hosts with
vCPU/RAM/disk inventories, a FilterScheduler (filters prune, weighers
rank) and VM lifecycle (BUILD -> ACTIVE after a boot delay on the
virtual clock, DELETED on teardown).  The compute service keeps only
live instances: a delete forgets the VM, whose record the caller may
still hold, reading DELETED.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.sim.kernel import Simulator


class NoValidHost(RuntimeError):
    """Raised when scheduling finds no host (Nova's NoValidHost)."""


@dataclass(frozen=True)
class Flavor:
    name: str
    vcpus: float
    ram_mb: float
    disk_gb: float


@dataclass(frozen=True)
class Image:
    name: str
    #: the NF functional type this image boots into (our images *are*
    #: packaged NF implementations)
    functional_type: str
    min_ram_mb: float = 0.0
    min_disk_gb: float = 0.0


class VMState(str, enum.Enum):
    BUILD = "BUILD"
    ACTIVE = "ACTIVE"
    ERROR = "ERROR"
    DELETED = "DELETED"


@dataclass
class VMInstance:
    id: str
    name: str
    flavor: Flavor
    image: Image
    host: str
    state: VMState = VMState.BUILD
    booted_at: float = 0.0
    #: callbacks fired when the VM reaches ACTIVE
    _on_active: list[Callable[["VMInstance"], None]] = field(
        default_factory=list, repr=False)

    def on_active(self, callback: Callable[["VMInstance"], None]) -> None:
        if self.state == VMState.ACTIVE:
            callback(self)
        else:
            self._on_active.append(callback)


@dataclass
class ComputeHost:
    name: str
    vcpus: float
    ram_mb: float
    disk_gb: float
    vcpus_used: float = 0.0
    ram_used: float = 0.0
    disk_used: float = 0.0

    def fits(self, flavor: Flavor) -> bool:
        return (self.vcpus_used + flavor.vcpus <= self.vcpus + 1e-9
                and self.ram_used + flavor.ram_mb <= self.ram_mb + 1e-9
                and self.disk_used + flavor.disk_gb <= self.disk_gb + 1e-9)

    def claim(self, flavor: Flavor) -> None:
        self.vcpus_used += flavor.vcpus
        self.ram_used += flavor.ram_mb
        self.disk_used += flavor.disk_gb

    def release(self, flavor: Flavor) -> None:
        self.vcpus_used -= flavor.vcpus
        self.ram_used -= flavor.ram_mb
        self.disk_used -= flavor.disk_gb

    @property
    def free_ram(self) -> float:
        return self.ram_mb - self.ram_used

    @property
    def free_vcpus(self) -> float:
        return self.vcpus - self.vcpus_used


# -- scheduler ---------------------------------------------------------------

FilterFn = Callable[[ComputeHost, Flavor, Image], bool]
WeigherFn = Callable[[ComputeHost], float]


def compute_filter(host: ComputeHost, flavor: Flavor, image: Image) -> bool:
    return host.fits(flavor)


def image_properties_filter(host: ComputeHost, flavor: Flavor,
                            image: Image) -> bool:
    return (flavor.ram_mb >= image.min_ram_mb
            and flavor.disk_gb >= image.min_disk_gb)


def ram_weigher(host: ComputeHost) -> float:
    return host.free_ram


def cpu_weigher(host: ComputeHost) -> float:
    return host.free_vcpus


class FilterScheduler:
    """Nova's filter scheduler: prune with filters, rank with weighers."""

    def __init__(self,
                 filters: Optional[Iterable[FilterFn]] = None,
                 weighers: Optional[Iterable[tuple[WeigherFn, float]]] = None):
        self.filters = list(filters or (compute_filter,
                                        image_properties_filter))
        self.weighers = list(weighers or ((ram_weigher, 1.0),
                                          (cpu_weigher, 1.0)))

    def select_host(self, hosts: Iterable[ComputeHost], flavor: Flavor,
                    image: Image) -> ComputeHost:
        candidates = [host for host in hosts
                      if all(f(host, flavor, image) for f in self.filters)]
        if not candidates:
            raise NoValidHost(
                f"no valid host for flavor {flavor.name!r} / "
                f"image {image.name!r}")
        return max(candidates,
                   key=lambda host: (sum(weight * weigher(host)
                                         for weigher, weight in self.weighers),
                                     host.name))


# -- compute API -----------------------------------------------------------------

DEFAULT_FLAVORS = {
    "m1.tiny": Flavor("m1.tiny", vcpus=0.5, ram_mb=64.0, disk_gb=1.0),
    "m1.small": Flavor("m1.small", vcpus=1.0, ram_mb=128.0, disk_gb=2.0),
    "m1.medium": Flavor("m1.medium", vcpus=2.0, ram_mb=512.0, disk_gb=8.0),
    "m1.large": Flavor("m1.large", vcpus=4.0, ram_mb=2048.0, disk_gb=16.0),
}


def flavor_for(vcpus: float, ram_mb: float, disk_gb: float) -> Flavor:
    """Smallest default flavor covering the demand, or a custom one."""
    for flavor in sorted(DEFAULT_FLAVORS.values(), key=lambda f: f.vcpus):
        if (flavor.vcpus >= vcpus and flavor.ram_mb >= ram_mb
                and flavor.disk_gb >= disk_gb):
            return flavor
    return Flavor(f"custom-{vcpus}c{ram_mb}m", vcpus=vcpus, ram_mb=ram_mb,
                  disk_gb=disk_gb)


class NovaCompute:
    """The compute API: boot/delete/list with virtual-time boot delay."""

    def __init__(self, simulator: Simulator, *,
                 scheduler: Optional[FilterScheduler] = None,
                 boot_delay_ms: float = 1500.0):
        self.simulator = simulator
        self.scheduler = scheduler or FilterScheduler()
        self.boot_delay_ms = boot_delay_ms
        self.hosts: dict[str, ComputeHost] = {}
        self.instances: dict[str, VMInstance] = {}
        self.images: dict[str, Image] = {}
        self._id_seq = itertools.count(1)
        self.boots = 0
        self.scheduling_failures = 0

    def add_host(self, host: ComputeHost) -> ComputeHost:
        self.hosts[host.name] = host
        return host

    def register_image(self, image: Image) -> Image:
        self.images[image.name] = image
        return image

    def boot(self, name: str, flavor: Flavor, image: Image) -> VMInstance:
        """Schedule + boot a VM; ACTIVE after ``boot_delay_ms``."""
        try:
            host = self.scheduler.select_host(self.hosts.values(), flavor,
                                              image)
        except NoValidHost:
            self.scheduling_failures += 1
            raise
        host.claim(flavor)
        vm = VMInstance(id=f"vm-{next(self._id_seq)}", name=name,
                        flavor=flavor, image=image, host=host.name)
        self.instances[vm.id] = vm
        self.boots += 1
        self.simulator.schedule(self.boot_delay_ms, self._activate, vm.id)
        return vm

    def _activate(self, vm_id: str) -> None:
        vm = self.instances.get(vm_id)
        if vm is None or vm.state != VMState.BUILD:
            return
        vm.state = VMState.ACTIVE
        vm.booted_at = self.simulator.now
        callbacks, vm._on_active = vm._on_active, []
        for callback in callbacks:
            callback(vm)

    def delete(self, vm_id: str) -> None:
        vm = self.instances.pop(vm_id, None)
        if vm is None:
            return
        self.hosts[vm.host].release(vm.flavor)
        vm.state = VMState.DELETED

    def list_instances(self) -> list[VMInstance]:
        return list(self.instances.values())

    def capacity(self) -> tuple[float, float, float]:
        """(free vcpus, free ram, free disk) across the cell."""
        return (sum(h.free_vcpus for h in self.hosts.values()),
                sum(h.free_ram for h in self.hosts.values()),
                sum(h.disk_gb - h.disk_used for h in self.hosts.values()))
