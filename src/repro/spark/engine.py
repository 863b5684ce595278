"""The Spark-style baseline engine.

Multitasks pipeline CPU, disk, and network at fine granularity inside a
single task thread (see :mod:`repro.spark.task`); the only scheduling
knob is the number of task *slots* per machine, which defaults to the
core count exactly as Spark does (§6.6: "Spark sets the number of slots
to be equal to the number of CPU cores").

``flush_writes`` reproduces the paper's second Spark configuration
(Figure 5), "where Spark writes through to disk rather than leaving disk
writes in the buffer cache".
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.config import CostModel, MB
from repro.engine.base import BaseEngine
from repro.engine.semantics import TaskWork
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.spark.task import SparkTaskRun

__all__ = ["SparkEngine"]


class SparkEngine(BaseEngine):
    """Fine-grained-pipelining engine (the paper's comparison baseline)."""

    name = "spark"

    def __init__(self, cluster: Cluster,
                 cost_model: Optional[CostModel] = None,
                 metrics: Optional[MetricsCollector] = None,
                 slots_per_machine: Optional[int] = None,
                 flush_writes: bool = False,
                 chunk_bytes: float = 8 * MB,
                 scheduling_policy: str = "fifo",
                 recovery=None,
                 datasvc=None) -> None:
        if slots_per_machine is not None and slots_per_machine < 1:
            raise ConfigError(f"slots must be >= 1: {slots_per_machine}")
        if chunk_bytes <= 0:
            raise ConfigError(f"chunk bytes must be positive: {chunk_bytes}")
        self.slots_per_machine = slots_per_machine
        self.flush_writes = flush_writes
        self.chunk_bytes = chunk_bytes
        super().__init__(cluster, cost_model=cost_model, metrics=metrics,
                         scheduling_policy=scheduling_policy,
                         recovery=recovery, datasvc=datasvc)

    def concurrency_for(self, machine: Machine) -> int:
        if self.slots_per_machine is not None:
            return self.slots_per_machine
        return machine.spec.cores

    def run_task_on_machine(self, work: TaskWork,
                            machine: Machine) -> Generator:
        return (yield from SparkTaskRun(self, work, machine).run())

    def health_estimator(self):
        """Task-level EWMA: the best a framework whose tasks blend
        resources can do (§6.6) -- it sees slowness but cannot say
        which machine's which resource caused it."""
        from repro.health.estimators import TaskEwmaEstimator
        return TaskEwmaEstimator(self.metrics)
