"""Cluster construction: machines, the network fabric, and the DFS.

A :class:`Cluster` owns one simulation :class:`Environment` plus all the
hardware on it.  Helper constructors build the paper's cluster shapes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import HDD, MB, SSD, MachineSpec
from repro.errors import ConfigError
from repro.cluster.hdfs import Dfs, DEFAULT_BLOCK_BYTES
from repro.cluster.machine import Machine
from repro.simulator import Environment, Network, RngStreams

__all__ = ["Cluster", "hdd_cluster", "ssd_cluster"]


class Cluster:
    """A simulated cluster of identical workers."""

    def __init__(self, num_machines: int, spec: MachineSpec,
                 replication: int = 3,
                 block_bytes: float = DEFAULT_BLOCK_BYTES,
                 seed: int = 0) -> None:
        if num_machines < 1:
            raise ConfigError("cluster needs at least one machine")
        self.env = Environment()
        self.spec = spec
        self.rng = RngStreams(seed)
        self.network = Network(self.env)
        self.machines: List[Machine] = [
            Machine(self.env, machine_id, spec, self.network)
            for machine_id in range(num_machines)
        ]
        self.dfs = Dfs(num_machines, len(spec.disks), replication=replication,
                       block_bytes=block_bytes)

    @property
    def num_machines(self) -> int:
        """Workers in the cluster."""
        return len(self.machines)

    @property
    def total_cores(self) -> int:
        """Cores across all workers."""
        return sum(m.spec.cores for m in self.machines)

    def machine(self, machine_id: int) -> Machine:
        """Look up one worker by id."""
        return self.machines[machine_id]

    def set_tracker_retention(self, retention_s: Optional[float]) -> None:
        """Bound every hardware busy-tracker's change log to roughly
        ``retention_s`` of history (``None`` retains everything).

        An always-on serving run keeps its telemetry in a sliding
        window; the trackers feeding that telemetry must forget on the
        same horizon or their change logs grow without bound.  Queries
        older than the horizon are answered by proration (documented on
        :class:`~repro.simulator.resources.BusyTracker`).
        """
        for machine in self.machines:
            machine.cpu.tracker.set_retention(retention_s)
            for disk in machine.disks:
                disk.tracker.set_retention(retention_s)
        for tracker in self.network.rx_trackers.values():
            tracker.set_retention(retention_s)
        for tracker in self.network.tx_trackers.values():
            tracker.set_retention(retention_s)

    def degrade_machine(self, machine_id: int, cpu_factor: float = 1.0,
                        disk_factor: float = 1.0) -> None:
        """Slow one machine's hardware (before running any job).

        The paper's introduction asks "Is hardware degradation leading to
        poor performance?" -- this injects such degradation so the
        monotask-based diagnosis (:mod:`repro.model.diagnosis`) can find
        it.  Factors are relative speeds: 0.5 means half speed.
        """
        from dataclasses import replace as _replace
        if cpu_factor <= 0 or disk_factor <= 0:
            raise ConfigError("degradation factors must be positive")
        machine = self.machine(machine_id)
        machine.cpu.speed_factor = cpu_factor
        for disk in machine.disks:
            disk.spec = _replace(
                disk.spec,
                throughput_bps=disk.spec.throughput_bps * disk_factor)

    def restore_machine(self, machine_id: int) -> None:
        """Undo :meth:`degrade_machine`: full-speed CPU and disks.

        Used by transient-slowdown fault injection to end the slowdown.
        """
        machine = self.machine(machine_id)
        machine.cpu.speed_factor = 1.0
        for disk in machine.disks:
            disk.spec = disk.base_spec

    def aggregate_disk_throughput_bps(self) -> float:
        """Sum of sequential disk bandwidth across the cluster."""
        return sum(m.aggregate_disk_throughput_bps() for m in self.machines)

    def aggregate_network_bps(self) -> float:
        """Sum of one-direction NIC bandwidth across the cluster."""
        return sum(m.spec.network_bps for m in self.machines)

    def describe(self) -> str:
        """One-line human description of the hardware."""
        spec = self.spec
        disks = "+".join(d.kind for d in spec.disks)
        return (f"{self.num_machines} machines x ({spec.cores} cores, "
                f"{disks}, {spec.network_bps / MB:.0f} MB/s net)")


def hdd_cluster(num_machines: int, num_disks: int = 2, cores: int = 8,
                seed: int = 0, replication: int = 3,
                **spec_overrides) -> Cluster:
    """The paper's m2.4xlarge-style cluster: HDD workers."""
    spec = MachineSpec(cores=cores, disks=(HDD,) * num_disks,
                       **spec_overrides)
    return Cluster(num_machines, spec, seed=seed, replication=replication)


def ssd_cluster(num_machines: int, num_disks: int = 2, cores: int = 8,
                seed: int = 0, replication: int = 3,
                **spec_overrides) -> Cluster:
    """The paper's i2.2xlarge-style cluster: SSD workers."""
    spec = MachineSpec(cores=cores, disks=(SSD,) * num_disks,
                       **spec_overrides)
    return Cluster(num_machines, spec, seed=seed, replication=replication)
