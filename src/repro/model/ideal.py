"""The monotasks performance model (§6.1).

"Decomposing jobs into monotasks leads to a simple model for job
completion time": per stage,

* ideal CPU time   = sum of compute monotask seconds / total cores
* ideal disk time  = sum of bytes moved to/from disk / aggregate disk
  throughput
* ideal network time = sum of bytes received over the network /
  aggregate NIC bandwidth

and the ideal stage completion time is the maximum of the three -- the
time spent on the bottleneck resource.  A job is the sum of its stages.

:class:`StageProfile` holds the measured inputs (straight from monotask
self-reports); :class:`HardwareProfile` the cluster's capacities;
:func:`model_stage` combines them.  What-if questions (§6.2-§6.4) are
answered by editing one or both and re-evaluating -- see
:mod:`repro.model.predictor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.errors import ModelError
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import (CPU, DISK, NETWORK, PHASE_INPUT_READ)

__all__ = ["StageProfile", "HardwareProfile", "StageModel", "profile_job",
           "hardware_profile", "model_stage", "model_job_seconds"]

#: Model resources.
RESOURCES = (CPU, DISK, NETWORK)


@dataclass
class StageProfile:
    """Measured monotask totals for one stage."""

    job_id: int
    stage_id: int
    name: str
    measured_duration_s: float
    #: Total compute monotask seconds, split into phases.
    compute_s: float = 0.0
    deserialize_s: float = 0.0
    serialize_s: float = 0.0
    #: Deserialization attributable to reading *input* data (map stages);
    #: subtracted for the "input stored deserialized" what-if (§6.3).
    input_deserialize_s: float = 0.0
    #: Disk bytes by phase (input_read, shuffle_write, ...).
    disk_bytes: Dict[str, float] = field(default_factory=dict)
    network_bytes: float = 0.0

    @property
    def total_disk_bytes(self) -> float:
        """Bytes moved to or from disk, all phases."""
        return sum(self.disk_bytes.values())

    @property
    def reads_dfs_input(self) -> bool:
        """True for map stages that read DFS blocks."""
        return self.disk_bytes.get(PHASE_INPUT_READ, 0.0) > 0


@dataclass(frozen=True)
class HardwareProfile:
    """Aggregate cluster capacities the model divides by."""

    num_machines: int
    cores_per_machine: int
    disks_per_machine: int
    disk_throughput_bps: float  # per disk
    network_bps: float  # per machine, one direction

    @property
    def total_cores(self) -> int:
        """Cores across the cluster."""
        return self.num_machines * self.cores_per_machine

    @property
    def aggregate_disk_bps(self) -> float:
        """Sequential disk bandwidth across the cluster."""
        return (self.num_machines * self.disks_per_machine
                * self.disk_throughput_bps)

    @property
    def aggregate_network_bps(self) -> float:
        """One-direction NIC bandwidth across the cluster."""
        return self.num_machines * self.network_bps

    def scaled(self, machines: Optional[int] = None,
               disks_per_machine: Optional[int] = None,
               disk_throughput_bps: Optional[float] = None,
               network_bps: Optional[float] = None,
               cores_per_machine: Optional[int] = None) -> "HardwareProfile":
        """A copy with some capacities changed (the what-if hardware)."""
        return HardwareProfile(
            num_machines=machines or self.num_machines,
            cores_per_machine=cores_per_machine or self.cores_per_machine,
            disks_per_machine=(disks_per_machine
                               if disks_per_machine is not None
                               else self.disks_per_machine),
            disk_throughput_bps=(disk_throughput_bps
                                 if disk_throughput_bps is not None
                                 else self.disk_throughput_bps),
            network_bps=network_bps or self.network_bps)


@dataclass
class StageModel:
    """Ideal per-resource completion times for one stage."""

    ideal_cpu_s: float
    ideal_disk_s: float
    ideal_network_s: float

    @property
    def ideal_completion_s(self) -> float:
        """Time on the bottleneck resource (the stage model, §6.1)."""
        return max(self.ideal_cpu_s, self.ideal_disk_s, self.ideal_network_s)

    @property
    def bottleneck(self) -> str:
        """The resource with the longest ideal time."""
        times = {CPU: self.ideal_cpu_s, DISK: self.ideal_disk_s,
                 NETWORK: self.ideal_network_s}
        return max(times, key=times.get)

    def without(self, resource: str) -> float:
        """Ideal completion if ``resource`` were infinitely fast (§6.5)."""
        times = {CPU: self.ideal_cpu_s, DISK: self.ideal_disk_s,
                 NETWORK: self.ideal_network_s}
        if resource not in times:
            raise ModelError(f"unknown resource {resource!r}")
        del times[resource]
        return max(times.values())


def hardware_profile(cluster: Cluster) -> HardwareProfile:
    """Describe a simulated cluster for the model."""
    spec = cluster.spec
    return HardwareProfile(
        num_machines=cluster.num_machines,
        cores_per_machine=spec.cores,
        disks_per_machine=len(spec.disks),
        disk_throughput_bps=spec.disks[0].throughput_bps,
        network_bps=spec.network_bps)


def profile_job(metrics: MetricsCollector, job_id: int) -> List[StageProfile]:
    """Build per-stage profiles from a job's monotask self-reports."""
    stage_spans = metrics.stage_records(job_id)
    if not stage_spans:
        raise ModelError(f"no stages recorded for job {job_id}")
    profiles = [StageProfile(job_id=job_id, stage_id=span.attrs["stage_id"],
                             name=span.name,
                             measured_duration_s=span.duration)
                for span in stage_spans]
    by_stage = {profile.stage_id: profile for profile in profiles}
    for (stage_id, resource, phase, _, start, end, _, nbytes, deserialize_s,
         _, serialize_s) in metrics.monotask_scan(job_id):
        profile = by_stage.get(stage_id)
        if profile is None:
            continue
        if resource == CPU:
            profile.compute_s += end - start
            profile.deserialize_s += deserialize_s
            profile.serialize_s += serialize_s
        elif resource == DISK:
            profile.disk_bytes[phase] = (
                profile.disk_bytes.get(phase, 0.0) + nbytes)
        elif resource == NETWORK:
            profile.network_bytes += nbytes
    for profile in profiles:
        if profile.reads_dfs_input:
            # Map stages deserialize only their input, so all measured
            # deserialization time is input deserialization.
            profile.input_deserialize_s = profile.deserialize_s
    if all(p.compute_s == 0 for p in profiles):
        raise ModelError(
            f"job {job_id} has no compute monotask records; was it run on "
            f"the MonoSpark engine?")
    return profiles


def model_stage(profile: StageProfile,
                hardware: HardwareProfile) -> StageModel:
    """The §6.1 model for one stage on the given hardware."""
    return StageModel(
        ideal_cpu_s=profile.compute_s / hardware.total_cores,
        ideal_disk_s=profile.total_disk_bytes / hardware.aggregate_disk_bps,
        ideal_network_s=(profile.network_bytes
                         / hardware.aggregate_network_bps))


def model_job_seconds(profiles: List[StageProfile],
                      hardware: HardwareProfile) -> float:
    """Modeled job completion time: sum of the stages' ideal times."""
    return sum(model_stage(profile, hardware).ideal_completion_s
               for profile in profiles)
