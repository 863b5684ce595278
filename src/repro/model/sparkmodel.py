"""Can the model be used for Spark? (§6.6, Figures 15-17)

Three progressively better -- and still inadequate -- ways to model a
Spark-style engine, reproducing the paper's negative results:

* **Slot model** (Fig 15): Spark's only scheduling dimension is slots,
  so the natural prediction scales runtime by the slot ratio; hardware
  changes that do not change the slot count predict *no* change.

* **Slot-share attribution** (Fig 16): when jobs run concurrently, a
  user can only attribute an executor's total resource use to stages in
  proportion to the slots their tasks held.  Jobs with different
  resource profiles make this estimate wrong by large factors, whereas
  monotask self-reports attribute exactly.

* **Measured-utilization model** (Fig 17): even with per-stage resource
  totals measured in isolation (our simulator's ground truth, standing
  in for executor-level counters), feeding them into the §6.1 model
  mispredicts because Spark's fine-grained interleaving changes
  *effective* resource throughput (HDD seek contention), and because
  deserialization time cannot be separated out (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.errors import ModelError
from repro.metrics.collector import MetricsCollector
from repro.model.ideal import HardwareProfile, StageProfile

__all__ = [
    "slot_model_prediction",
    "spark_stage_profiles",
    "AttributionEstimate",
    "true_stage_usage",
    "slot_share_stage_usage",
    "attribution_errors",
]


# ---------------------------------------------------------------------------
# Fig 15: the slot model
# ---------------------------------------------------------------------------

def slot_model_prediction(measured_s: float, old_slots: int,
                          new_slots: int) -> float:
    """Runtime predicted from slot counts alone.

    "if a job took 10 seconds to complete on a cluster with 8 slots, it
    should take 5 seconds to complete on a cluster with 16 slots."
    """
    if old_slots < 1 or new_slots < 1:
        raise ModelError("slot counts must be >= 1")
    return measured_s * (old_slots / new_slots)


# ---------------------------------------------------------------------------
# Fig 17: the measured-utilization model
# ---------------------------------------------------------------------------

def spark_stage_profiles(metrics: MetricsCollector,
                         job_id: int) -> List[StageProfile]:
    """Stage profiles from a *Spark* run's resource-usage ground truth.

    This approximates the paper's restricted measurement: per-stage
    executor resource totals gathered while the job runs in isolation.
    Deserialization time is not separable in Spark (§6.3), so the
    in-memory what-ifs cannot be evaluated from these profiles
    (``input_deserialize_s`` stays zero, and disk bytes are not broken
    out by phase).
    """
    stage_spans = metrics.stage_records(job_id)
    if not stage_spans:
        raise ModelError(f"no stages recorded for job {job_id}")
    profiles = []
    for stage_span in stage_spans:
        stage_id = stage_span.attrs["stage_id"]
        usage = metrics.usage_for_stage(job_id, stage_id)
        if not usage:
            raise ModelError(
                f"no Spark resource-usage records for job {job_id} stage "
                f"{stage_id}")
        profile = StageProfile(
            job_id=job_id, stage_id=stage_id, name=stage_span.name,
            measured_duration_s=stage_span.duration)
        for record in usage:
            profile.compute_s += record.cpu_s
            profile.disk_bytes["measured"] = (
                profile.disk_bytes.get("measured", 0.0)
                + record.disk_bytes_read + record.disk_bytes_written)
            profile.network_bytes += record.network_bytes
        profiles.append(profile)
    return profiles


# ---------------------------------------------------------------------------
# Fig 16: attributing resource use across concurrent jobs
# ---------------------------------------------------------------------------

@dataclass
class AttributionEstimate:
    """Resource use attributed to one stage of one job."""

    cpu_s: float = 0.0
    disk_bytes: float = 0.0
    network_bytes: float = 0.0

    def relative_errors(self, truth: "AttributionEstimate"
                        ) -> Dict[str, float]:
        """Per-resource relative error against ``truth``."""
        errors = {}
        for name in ("cpu_s", "disk_bytes", "network_bytes"):
            true_value = getattr(truth, name)
            if true_value <= 0:
                continue
            errors[name] = abs(getattr(self, name) - true_value) / true_value
        return errors


def true_stage_usage(metrics: MetricsCollector, job_id: int,
                     stage_id: int) -> AttributionEstimate:
    """Ground truth from per-task accounting (or monotask reports)."""
    estimate = AttributionEstimate()
    usage = metrics.usage_for_stage(job_id, stage_id)
    if usage:
        for record in usage:
            estimate.cpu_s += record.cpu_s
            estimate.disk_bytes += (record.disk_bytes_read
                                    + record.disk_bytes_written)
            estimate.network_bytes += record.network_bytes
        return estimate
    # MonoSpark: monotask self-reports are the (exact) measurement.
    for record in metrics.stage_monotasks(job_id, stage_id):
        if record.resource == "cpu":
            estimate.cpu_s += record.duration
        elif record.resource == "disk":
            estimate.disk_bytes += record.nbytes
        elif record.resource == "network":
            estimate.network_bytes += record.nbytes
    return estimate


def _overlap(start_a: float, end_a: float, start_b: float,
             end_b: float) -> float:
    return max(0.0, min(end_a, end_b) - max(start_a, start_b))


def slot_share_stage_usage(metrics: MetricsCollector, cluster: Cluster,
                           job_id: int,
                           stage_id: int) -> AttributionEstimate:
    """What a Spark user can estimate: machine totals scaled by the
    fraction of slot time the stage's tasks held (§6.6)."""
    window_start, window_end = metrics.stage_window(job_id, stage_id)
    estimate = AttributionEstimate()
    for machine in cluster.machines:
        machine_id = machine.machine_id
        stage_slot_s = 0.0
        total_slot_s = 0.0
        for span in metrics.attempts:
            if span.machine_id != machine_id:
                continue
            slot_s = _overlap(span.start, span.end, window_start,
                              window_end)
            total_slot_s += slot_s
            attrs = span.attrs
            if attrs["job_id"] == job_id and attrs["stage_id"] == stage_id:
                stage_slot_s += slot_s
        if total_slot_s <= 0 or stage_slot_s <= 0:
            continue
        share = stage_slot_s / total_slot_s
        cpu_s = machine.cpu.tracker.busy_time(window_start, window_end)
        disk_bytes = sum(
            nbytes
            for disk in machine.disks
            for (when, nbytes, _kind) in disk.transfer_log
            if window_start <= when <= window_end)
        network_bytes = sum(
            nbytes
            for (when, nbytes, dst, _src) in machine.network.completion_log
            if dst == machine_id and window_start <= when <= window_end)
        estimate.cpu_s += cpu_s * share
        estimate.disk_bytes += disk_bytes * share
        estimate.network_bytes += network_bytes * share
    return estimate


def attribution_errors(metrics: MetricsCollector, cluster: Cluster,
                       job_id: int) -> Dict[int, Dict[str, float]]:
    """Per-stage relative attribution errors for one job (Fig 16)."""
    errors: Dict[int, Dict[str, float]] = {}
    for stage_span in metrics.stage_records(job_id):
        stage_id = stage_span.attrs["stage_id"]
        truth = true_stage_usage(metrics, job_id, stage_id)
        estimate = slot_share_stage_usage(metrics, cluster, job_id,
                                          stage_id)
        errors[stage_id] = estimate.relative_errors(truth)
    return errors
