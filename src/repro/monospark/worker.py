"""A MonoSpark worker: the Local DAG Scheduler plus per-resource schedulers.

One compute scheduler admits a monotask per core; one disk scheduler per
disk admits 1 (HDD) or a configurable number (flash, default 4) of
monotasks; the network scheduler lives at the receiver and admits the
requests of four multitasks (§3.3).  All are ordinary
:class:`~repro.monospark.schedulers.ResourceScheduler` instances with
different concurrency limits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.cluster.machine import Machine
from repro.datasvc.monotasks import DataSvcMonotask
from repro.errors import SimulationError
from repro.metrics.events import CPU, DISK, NETWORK
from repro.monospark.localdag import DagShape, LocalDagScheduler
from repro.monospark.monotask import (ComputeMonotask, DiskMonotask,
                                      Monotask, NetworkFetchMonotask)
from repro.monospark.schedulers import ResourceScheduler
from repro.simulator import Event

if TYPE_CHECKING:
    from repro.monospark.engine import MonoSparkEngine

__all__ = ["MonoWorker"]


class MonoWorker:
    """Per-machine monotask execution state."""

    def __init__(self, engine: "MonoSparkEngine", machine: Machine) -> None:
        self.engine = engine
        self.machine = machine
        self.env = machine.env
        rr = engine.round_robin_phases
        prefix = f"m{machine.machine_id}"
        self.compute_scheduler = ResourceScheduler(
            self.env, machine.spec.cores, f"{prefix}.cpu", rr)
        self.disk_schedulers: List[ResourceScheduler] = []
        prefer_writes = None
        if engine.prioritize_writes_under_memory_pressure:
            prefer_writes = (self.memory_pressure, "write")
        for index, disk in enumerate(machine.disks):
            concurrency = engine.disk_concurrency(disk.spec)
            self.disk_schedulers.append(ResourceScheduler(
                self.env, concurrency, f"{prefix}.disk{index}", rr,
                prefer_phases_when=prefer_writes))
        self.network_scheduler = ResourceScheduler(
            self.env, engine.network_limit, f"{prefix}.net", rr)
        self.dag_scheduler = LocalDagScheduler(self.env, self._route)

    def submit_multitask(self, monotasks: List[Monotask],
                         shape: DagShape) -> Event:
        """Hand a multitask's DAG to the Local DAG Scheduler."""
        return self.dag_scheduler.submit_multitask(monotasks, shape)

    def submit_ready(self, monotask: Monotask) -> None:
        """Route a dependency-free monotask straight to its scheduler
        (used for remote shuffle-serve disk reads)."""
        self._route(monotask)

    def _route(self, monotask: Monotask) -> None:
        if isinstance(monotask, ComputeMonotask):
            self.compute_scheduler.submit(monotask)
        elif isinstance(monotask, DiskMonotask):
            if monotask.disk_index is None:
                # Deferred placement: choose the disk when the write is
                # actually ready, so queue lengths reflect real load.
                monotask.disk_index = self.pick_output_disk()
            self.disk_schedulers[monotask.disk_index].submit(monotask)
        elif isinstance(monotask, (NetworkFetchMonotask, DataSvcMonotask)):
            # Data-service puts/fetches occupy the network resource on
            # the compute side; storage-side disk work runs on the
            # service's own schedulers.
            self.network_scheduler.submit(monotask)
        else:
            raise SimulationError(f"unroutable monotask: {monotask!r}")

    def pick_output_disk(self) -> int:
        """Disk for a new write monotask, per the engine's write policy.

        The paper's prototype balances writes "across available disks,
        independent of load" and suggests writing to the disk with the
        shorter queue as future work (§8, "Disk scheduling"); both
        policies are implemented, selected by
        ``MonoSparkEngine(write_disk_policy=...)``.
        """
        if self.engine.write_disk_policy == "shortest_queue":
            loads = [scheduler.queue_length + scheduler.running
                     for scheduler in self.disk_schedulers]
            if min(loads) != max(loads):
                return loads.index(min(loads))
        return self.machine.pick_write_disk()

    def fail_all(self) -> None:
        """Machine crash: every scheduler rejects and kills its work."""
        for scheduler in self._all_schedulers():
            scheduler.fail_all()

    def revive(self) -> None:
        """The machine restarted: schedulers accept monotasks again."""
        for scheduler in self._all_schedulers():
            scheduler.revive()

    def _all_schedulers(self) -> List[ResourceScheduler]:
        return ([self.compute_scheduler] + self.disk_schedulers +
                [self.network_scheduler])

    def memory_pressure(self) -> bool:
        """True when task data exceeds the §3.5 pressure threshold."""
        memory = self.machine.memory
        return memory.used > memory.capacity * \
            self.engine.memory_pressure_fraction

    def queue_lengths(self) -> Dict[str, int]:
        """Per-resource queue lengths: the visible face of contention."""
        lengths = {CPU: self.compute_scheduler.queue_length,
                   NETWORK: self.network_scheduler.queue_length}
        for index, scheduler in enumerate(self.disk_schedulers):
            lengths[f"{DISK}{index}"] = scheduler.queue_length
        return lengths
