"""The MonoSpark engine: monotask execution with per-resource schedulers.

API-compatible with the Spark engine (both consume the same
:class:`~repro.api.plan.JobPlan`), but every multitask is decomposed on
the worker into single-resource monotasks, scheduled by dedicated
per-resource schedulers.  Knobs map to the paper's parameters:

* ``ssd_outstanding`` -- the flash scheduler's concurrency (§3.3; the
  paper found 4 reaches near-maximum throughput).
* ``hdd_outstanding`` -- monotasks per spinning disk (1 in the paper; an
  ablation knob here).
* ``network_limit`` -- the receiver admits requests from this many
  multitasks at once (4 in the paper, "based on an experimental
  parameter sweep").
* ``round_robin_phases`` -- the §3.3 queueing policy (ablation knob).
* ``extra_multitasks`` -- the "+1" of the §3.4 assignment rule.

Two of the paper's §8 "opportunities" are implemented as options:

* ``write_disk_policy`` -- ``"round_robin"`` (the paper's prototype) or
  ``"shortest_queue"`` (its suggested improvement: write to the disk
  with the shorter queue).
* ``prioritize_writes_under_memory_pressure`` -- the §3.5 idea: when a
  worker's memory fills up, its disk schedulers prefer write monotasks
  to drain data out of memory.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.config import CostModel, DiskSpec
from repro.engine.base import BaseEngine
from repro.engine.semantics import TaskWork
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.monospark.assignment import (multitask_concurrency,
                                        probe_concurrency)
from repro.monospark.decompose import decompose
from repro.monospark.worker import MonoWorker

__all__ = ["MonoSparkEngine"]


class MonoSparkEngine(BaseEngine):
    """Per-resource-scheduled engine (the paper's contribution)."""

    name = "monospark"

    def __init__(self, cluster: Cluster,
                 cost_model: Optional[CostModel] = None,
                 metrics: Optional[MetricsCollector] = None,
                 ssd_outstanding: int = 4,
                 hdd_outstanding: int = 1,
                 network_limit: int = 4,
                 round_robin_phases: bool = True,
                 extra_multitasks: int = 1,
                 concurrency_override: Optional[int] = None,
                 write_disk_policy: str = "round_robin",
                 prioritize_writes_under_memory_pressure: bool = False,
                 memory_pressure_fraction: float = 0.8,
                 scheduling_policy: str = "fifo",
                 recovery=None,
                 datasvc=None) -> None:
        if ssd_outstanding < 1 or hdd_outstanding < 1:
            raise ConfigError("disk scheduler concurrency must be >= 1")
        if network_limit < 1:
            raise ConfigError("network limit must be >= 1")
        if extra_multitasks < 0:
            raise ConfigError("extra multitasks must be >= 0")
        if write_disk_policy not in ("round_robin", "shortest_queue"):
            raise ConfigError(
                f"unknown write disk policy: {write_disk_policy!r}")
        if not 0 < memory_pressure_fraction <= 1.0:
            raise ConfigError("memory pressure fraction must be in (0, 1]")
        self.ssd_outstanding = ssd_outstanding
        self.hdd_outstanding = hdd_outstanding
        self.network_limit = network_limit
        self.round_robin_phases = round_robin_phases
        self.extra_multitasks = extra_multitasks
        self.concurrency_override = concurrency_override
        self.write_disk_policy = write_disk_policy
        self.prioritize_writes_under_memory_pressure = (
            prioritize_writes_under_memory_pressure)
        self.memory_pressure_fraction = memory_pressure_fraction
        self.workers: Dict[int, MonoWorker] = {}
        super().__init__(cluster, cost_model=cost_model, metrics=metrics,
                         scheduling_policy=scheduling_policy,
                         recovery=recovery, datasvc=datasvc)
        for machine in cluster.machines:
            self.workers[machine.machine_id] = MonoWorker(self, machine)

    # -- configuration hooks ---------------------------------------------------------

    def disk_concurrency(self, spec: DiskSpec) -> int:
        """Monotasks the disk scheduler admits for this device type."""
        if spec.max_concurrency > 1:
            return self.ssd_outstanding
        return self.hdd_outstanding

    def concurrency_for(self, machine: Machine) -> int:
        if self.concurrency_override is not None:
            return self.concurrency_override
        return multitask_concurrency(machine, self.network_limit,
                                     self.disk_concurrency,
                                     extra=self.extra_multitasks)

    # -- task execution -----------------------------------------------------------------

    def run_task_on_machine(self, work: TaskWork,
                            machine: Machine) -> Generator:
        worker = self.workers[machine.machine_id]
        # All of a multitask's input and output is materialized in memory
        # between monotasks (§3.5): account for the footprint.
        footprint = work.input_partition.data_bytes + \
            work.output_partition.data_bytes
        machine.memory.acquire(footprint)
        try:
            decomposition = decompose(worker, work)
            yield worker.submit_multitask(decomposition.monotasks,
                                          decomposition.shape)
        finally:
            machine.memory.release(footprint)
        # The engine commits (registers) outputs only if this attempt
        # wins the task -- see BaseEngine._execute_task.
        return decomposition.output_disk

    # -- fault hooks --------------------------------------------------------------

    def _fail_worker(self, machine_id: int) -> None:
        self.workers[machine_id].fail_all()

    def _revive_worker(self, machine_id: int) -> None:
        self.workers[machine_id].revive()

    # -- health hooks --------------------------------------------------------------

    def probation_slots_for(self, machine: Machine) -> int:
        return probe_concurrency(machine)

    def health_estimator(self):
        """Per-resource rates from monotask self-reports: the paper's
        clarity signal, turned into an online detector."""
        from repro.health.estimators import MonotaskRateEstimator
        return MonotaskRateEstimator(self.metrics)

    # -- telemetry ------------------------------------------------------------------

    def register_telemetry(self, telemetry) -> None:
        """Base gauges plus per-resource scheduler queue depths.

        The queue-depth series only exist here: the Spark engine has no
        per-resource queues to observe (§3.1's contention is invisible
        to it), so the gap in the exported metrics *is* the clarity
        contrast.
        """
        super().register_telemetry(telemetry)
        for machine_id in sorted(self.workers):
            worker = self.workers[machine_id]
            for key in sorted(worker.queue_lengths()):
                telemetry.gauge(
                    "repro_resource_queue_depth",
                    "Monotasks waiting in a per-resource scheduler queue",
                    lambda w=worker, k=key: w.queue_lengths()[k],
                    engine=self.name, machine=machine_id, resource=key)
