"""Applies a :class:`~repro.faults.plan.FaultPlan` to a running engine.

One driver process walks the sorted plan, sleeping until each fault's
time and invoking the engine's fault entry points
(:meth:`crash_machine`, :meth:`fail_disk`) or the cluster's degradation
knobs.  Restarts and recoveries are scheduled as separate processes so
a crash-with-restart does not block later faults.  Every action is
recorded as a :class:`~repro.metrics.events.FaultEventRecord` so traces
under the same (plan, seed) are byte-identical.

Gray faults targeting a machine that is already dead at fault time are
skipped and recorded with ``detail="target down"`` -- degrading a
corpse is meaningless and restoring it later would fight the crash
recovery path.
"""

from __future__ import annotations

from typing import Generator

from repro.faults.plan import (BlockCorruption, DiskFault, DriverCrash,
                               DriverPartition, FaultPlan, LinkPartition,
                               MachineCrash, NetworkDegradation,
                               StorageNodeCrash, TransientSlowdown)
from repro.metrics.events import FaultEventRecord

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives a fault plan against an engine during a run."""

    def __init__(self, engine, plan: FaultPlan) -> None:
        self.engine = engine
        self.env = engine.env
        self.plan = plan

    def start(self) -> None:
        """Spawn the driver process; call before ``run_jobs``."""
        self.env.process(self._drive())

    def _record(self, kind: str, machine_id: int, detail: str = "") -> None:
        self.engine.metrics.record_event(FaultEventRecord(
            kind=kind, machine_id=machine_id, at=self.env.now, detail=detail))

    def _target_down(self, machine_id: int) -> bool:
        return self.engine.machine_is_dead(machine_id)

    def _drive(self) -> Generator:
        network = self.engine.cluster.network
        for fault in self.plan:
            if fault.at > self.env.now:
                yield self.env.timeout(fault.at - self.env.now)
            if isinstance(fault, MachineCrash):
                self.engine.crash_machine(fault.machine_id)
                self._record("machine-crash", fault.machine_id)
                if fault.restart_after is not None:
                    self.env.process(self._restart(fault))
            elif isinstance(fault, DiskFault):
                if self._target_down(fault.machine_id):
                    self._record("disk-failure-skipped", fault.machine_id,
                                 detail="target down")
                    continue
                self.engine.fail_disk(fault.machine_id, fault.disk_index)
                self._record("disk-failure", fault.machine_id,
                             detail=f"disk {fault.disk_index}")
            elif isinstance(fault, TransientSlowdown):
                if self._target_down(fault.machine_id):
                    self._record("slowdown-skipped", fault.machine_id,
                                 detail="target down")
                    continue
                self.engine.cluster.degrade_machine(
                    fault.machine_id,
                    cpu_factor=1.0 / fault.cpu_factor,
                    disk_factor=1.0 / fault.disk_factor)
                self._record("slowdown", fault.machine_id,
                             detail=f"for {fault.duration:g}s")
                self.env.process(self._restore(fault))
            elif isinstance(fault, NetworkDegradation):
                if self._target_down(fault.machine_id):
                    self._record("net-degradation-skipped", fault.machine_id,
                                 detail="target down")
                    continue
                network.degrade_link(
                    fault.machine_id,
                    up_factor=1.0 / fault.up_factor,
                    down_factor=1.0 / fault.down_factor)
                duration = ("permanent" if fault.duration is None
                            else f"for {fault.duration:g}s")
                self._record("net-degradation", fault.machine_id,
                             detail=f"{fault.up_factor:g}x/"
                                    f"{fault.down_factor:g}x {duration}")
                if fault.duration is not None:
                    self.env.process(self._restore_link(fault))
            elif isinstance(fault, LinkPartition):
                killed = network.partition_link(
                    fault.src_machine_id, fault.dst_machine_id)
                heal = ("permanent" if fault.heal_after is None
                        else f"heals in {fault.heal_after:g}s")
                self._record("link-partition", fault.src_machine_id,
                             detail=f"-> {fault.dst_machine_id}, "
                                    f"{killed} flows killed, {heal}")
                if fault.heal_after is not None:
                    self.env.process(self._heal(fault))
            elif isinstance(fault, StorageNodeCrash):
                service = self._service(fault)
                if service is None:
                    continue
                if service.nodes[fault.node_index].down:
                    self._record(
                        "storage-crash-skipped",
                        service.node_machine_id(fault.node_index),
                        detail="target down")
                    continue
                service.crash_node(fault.node_index)
                self._record("storage-crash",
                             service.node_machine_id(fault.node_index),
                             detail=f"storage node {fault.node_index}")
                if fault.restart_after is not None:
                    self.env.process(self._restart_node(fault, service))
            elif isinstance(fault, BlockCorruption):
                service = self._service(fault)
                if service is None:
                    continue
                block_id = service.corrupt_block(fault.node_index,
                                                 fault.block_seq)
                machine_id = service.node_machine_id(fault.node_index)
                if not block_id:
                    self._record("block-corruption-skipped", machine_id,
                                 detail="no blocks held")
                    continue
                self._record("block-corruption", machine_id,
                             detail=f"block {block_id} on storage "
                                    f"node {fault.node_index}")
            elif isinstance(fault, DriverCrash):
                plane = self._controlplane(fault)
                if plane is None:
                    continue
                if plane.driver_is_down(fault.driver_id):
                    self._record("driver-crash-skipped", -1,
                                 detail="target down")
                    continue
                plane.crash_driver(fault.driver_id)
                self._record("driver-crash", -1,
                             detail=f"driver {fault.driver_id}")
                if fault.restart_after is not None:
                    self.env.process(self._restart_driver(fault, plane))
            elif isinstance(fault, DriverPartition):
                plane = self._controlplane(fault)
                if plane is None:
                    continue
                if plane.driver_is_down(fault.driver_id):
                    self._record("driver-partition-skipped", -1,
                                 detail="target down")
                    continue
                if plane.driver_is_partitioned(fault.driver_id):
                    self._record("driver-partition-skipped", -1,
                                 detail="already partitioned")
                    continue
                plane.partition_driver(fault.driver_id)
                heal = ("permanent" if fault.heal_after is None
                        else f"heals in {fault.heal_after:g}s")
                self._record("driver-partition", -1,
                             detail=f"driver {fault.driver_id}, {heal}")
                if fault.heal_after is not None:
                    self.env.process(self._heal_driver(fault, plane))

    def _controlplane(self, fault) -> object:
        """The engine's control plane, or None (recorded as skipped)."""
        kind = ("driver-crash" if isinstance(fault, DriverCrash)
                else "driver-partition")
        plane = getattr(self.engine, "controlplane", None)
        if plane is None:
            self._record(f"{kind}-skipped", -1, detail="no control plane")
            return None
        if not (0 <= fault.driver_id < plane.num_drivers):
            self._record(f"{kind}-skipped", -1,
                         detail=f"no driver {fault.driver_id}")
            return None
        return plane

    def _restart_driver(self, fault: DriverCrash, plane) -> Generator:
        yield self.env.timeout(fault.restart_after)
        plane.restart_driver(fault.driver_id)
        self._record("driver-restart", -1,
                     detail=f"driver {fault.driver_id}")

    def _heal_driver(self, fault: DriverPartition, plane) -> Generator:
        yield self.env.timeout(fault.heal_after)
        if plane.driver_is_down(fault.driver_id):
            self._record("driver-partition-heal-skipped", -1,
                         detail="target down")
            return
        plane.heal_driver(fault.driver_id)
        self._record("driver-partition-heal", -1,
                     detail=f"driver {fault.driver_id}")

    def _service(self, fault) -> object:
        """The engine's data service, or None (recorded as skipped)."""
        service = getattr(self.engine, "datasvc", None)
        if service is None:
            self._record(f"{self._storage_kind(fault)}-skipped", -1,
                         detail="no data service")
            return None
        if not (0 <= fault.node_index < service.num_nodes):
            self._record(f"{self._storage_kind(fault)}-skipped", -1,
                         detail=f"no storage node {fault.node_index}")
            return None
        return service

    @staticmethod
    def _storage_kind(fault) -> str:
        return ("storage-crash" if isinstance(fault, StorageNodeCrash)
                else "block-corruption")

    def _restart_node(self, fault: StorageNodeCrash,
                      service) -> Generator:
        yield self.env.timeout(fault.restart_after)
        service.restart_node(fault.node_index)
        self._record("storage-restart",
                     service.node_machine_id(fault.node_index),
                     detail=f"storage node {fault.node_index}")

    def _restart(self, fault: MachineCrash) -> Generator:
        yield self.env.timeout(fault.restart_after)
        self.engine.restart_machine(fault.machine_id)
        self._record("machine-restart", fault.machine_id)

    def _restore(self, fault: TransientSlowdown) -> Generator:
        yield self.env.timeout(fault.duration)
        if self._target_down(fault.machine_id):
            self._record("slowdown-end-skipped", fault.machine_id,
                         detail="target down")
            return
        self.engine.cluster.restore_machine(fault.machine_id)
        self._record("slowdown-end", fault.machine_id)

    def _restore_link(self, fault: NetworkDegradation) -> Generator:
        yield self.env.timeout(fault.duration)
        if self._target_down(fault.machine_id):
            self._record("net-degradation-end-skipped", fault.machine_id,
                         detail="target down")
            return
        self.engine.cluster.network.restore_link(fault.machine_id)
        self._record("net-degradation-end", fault.machine_id)

    def _heal(self, fault: LinkPartition) -> Generator:
        yield self.env.timeout(fault.heal_after)
        self.engine.cluster.network.heal_link(
            fault.src_machine_id, fault.dst_machine_id)
        self._record("link-heal", fault.src_machine_id,
                     detail=f"-> {fault.dst_machine_id}")
