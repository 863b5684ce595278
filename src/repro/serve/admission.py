"""Admission control: performance clarity applied online.

Before a request is queued, its cost is *estimated* and the controller
decides whether the system can absorb it.  The estimate is where the
paper's §6 model earns its keep outside of offline what-if analysis:

* On MonoSpark, the estimator keeps the last completed instance's
  monotask profiles and asks :func:`repro.model.predict` what the job
  would cost *on the machines currently schedulable* -- so after a
  crash, or after the health monitor excludes a fail-slow machine, the
  admission controller immediately prices jobs on the shrunken cluster.
* On Spark there are no monotask records (§6.6), so the estimator can
  only smooth previously measured runtimes, and it cannot correct for
  lost machines.  The contrast is the paper's clarity argument, online.

Shedding is deterministic: a request is rejected iff a configured bound
(queue length, or estimated backlog seconds) would be exceeded, and the
decision depends only on simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.base import BaseEngine, JobResult
from repro.errors import ConfigError, ModelError
from repro.metrics.collector import MetricsCollector
from repro.model import (HardwareProfile, StageProfile, WhatIf,
                         hardware_profile, predict)

__all__ = ["CostEstimator", "AdmissionController"]

#: EWMA weight of a template's newest measured duration.
SMOOTHING = 0.5


class CostEstimator:
    """Per-template service-time estimates learned from completed jobs."""

    def __init__(self, engine: BaseEngine) -> None:
        self.engine = engine
        self.hardware: HardwareProfile = hardware_profile(engine.cluster)
        #: template -> smoothed measured duration (all engines).
        self._measured: Dict[str, float] = {}
        #: template -> monotask profiles of the latest completed instance
        #: (MonoSpark only; Spark jobs produce no monotask records).
        self._profiles: Dict[str, List[StageProfile]] = {}

    def observe(self, template: str, metrics: MetricsCollector,
                result: JobResult) -> None:
        """Fold one completed instance into the template's estimate."""
        previous = self._measured.get(template)
        if previous is None:
            self._measured[template] = result.duration
        else:
            self._measured[template] = (
                SMOOTHING * result.duration
                + (1.0 - SMOOTHING) * previous)
        try:
            self._profiles[template] = metrics.stage_profiles(result.job_id)
        except ModelError:
            pass  # Spark engine: no monotask records to profile.

    def estimate(self, template: str) -> Optional[float]:
        """Estimated service seconds for one instance, or None if the
        template has never completed (first instances are admitted on
        faith)."""
        measured = self._measured.get(template)
        if measured is None:
            return None
        estimate = measured
        profiles = self._profiles.get(template)
        usable = self.engine.schedulable_machine_count
        if profiles is not None and usable != 0 \
                and usable != self.hardware.num_machines:
            # The model re-prices the job on the machines it can actually
            # be placed on -- alive and not excluded by the health monitor
            # -- only possible because monotask profiles separate the
            # job's resource demand from the hardware it ran on.
            degraded = WhatIf(hardware=self.hardware.scaled(machines=usable))
            estimate = predict(profiles, measured, self.hardware,
                               degraded).predicted_s
        # With a disaggregated data tier, lost storage nodes concentrate
        # reads/writes on the survivors; scale the estimate by the lost
        # service fraction (coarse but directionally honest pricing).
        svc = getattr(self.engine, "datasvc", None)
        if svc is not None and 0 < svc.live_node_count < svc.num_nodes:
            estimate *= svc.num_nodes / svc.live_node_count
        return estimate


@dataclass(frozen=True)
class AdmissionController:
    """Bounded-queue admission with estimate-based load shedding.

    ``max_queued_jobs`` bounds how many admitted requests may wait for
    dispatch; ``max_backlog_s`` bounds the *estimated* seconds of queued
    service time (requests without an estimate count as zero -- a
    template's first instance is never shed by the backlog bound).
    """

    max_queued_jobs: Optional[int] = None
    max_backlog_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queued_jobs is not None and self.max_queued_jobs < 0:
            raise ConfigError(
                f"max_queued_jobs must be >= 0: {self.max_queued_jobs}")
        if self.max_backlog_s is not None and not (self.max_backlog_s > 0):
            raise ConfigError(
                f"max_backlog_s must be > 0: {self.max_backlog_s}")

    def decide(self, estimate_s: Optional[float],
               queued_estimates: Sequence[Optional[float]]
               ) -> Tuple[bool, str]:
        """(admit, reason); shed reasons are deterministic strings."""
        if self.max_queued_jobs is not None and \
                len(queued_estimates) >= self.max_queued_jobs:
            return False, f"queue full ({self.max_queued_jobs} jobs)"
        if self.max_backlog_s is not None:
            backlog = sum(e for e in queued_estimates if e is not None)
            added = estimate_s if estimate_s is not None else 0.0
            if backlog + added > self.max_backlog_s:
                return False, (f"backlog {backlog + added:.1f}s over "
                               f"{self.max_backlog_s:.1f}s")
        return True, ""
