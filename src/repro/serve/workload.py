"""Open-loop workload generation for the serving layer.

Arrival processes describe *when* requests arrive; job templates
describe *what* each request runs.  All randomness is drawn from named
:class:`~repro.simulator.rng.RngStreams` streams, so the same seed
yields the same arrival trace regardless of what else the simulation
does -- a serving run is a pure function of (cluster seed, workload
seed, fault plan).

Templates follow the Execution Templates idea (Mashayekhi et al.,
PAPERS.md): a repeatedly-submitted job is compiled through the DAG
scheduler *once*, and each submission re-instantiates the cached plan
with fresh job/shuffle ids instead of re-running the control plane.
:func:`instantiate_plan` is that re-instantiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.context import AnalyticsContext
from repro.api.dagscheduler import DagScheduler
from repro.api.ops import OpCost
from repro.api.plan import (CachedInput, DfsOutput, JobPlan, ShuffleInput,
                            ShuffleOutput, Stage)
from repro.config import GB, MB
from repro.errors import ConfigError, PlanError
from repro.workloads.bigdata import (BdbScale, Q1_SELECTIVITY,
                                     RANKINGS_FILTER_COST,
                                     generate_rankings)
from repro.workloads.sortgen import (PARTITION_S_PER_RECORD,
                                     SORT_S_PER_RECORD, SortWorkload,
                                     generate_sort_input, sort_boundaries)
from repro.workloads.wordcount import generate_text_input

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "JobTemplate",
    "instantiate_plan",
    "sort_template",
    "wordcount_template",
    "bdb_template",
    "ml_template",
]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop Poisson arrivals at ``rate_per_s`` until ``horizon_s``."""

    rate_per_s: float
    horizon_s: float

    def __post_init__(self) -> None:
        if not (self.rate_per_s > 0):
            raise ConfigError(f"arrival rate must be > 0: {self.rate_per_s}")
        if not (self.horizon_s > 0) or self.horizon_s == float("inf"):
            raise ConfigError(f"horizon must be finite and > 0: "
                              f"{self.horizon_s}")

    def times(self, stream: Random) -> Iterator[float]:
        """Absolute arrival times drawn from ``stream``."""
        t = 0.0
        while True:
            t += stream.expovariate(self.rate_per_s)
            if t >= self.horizon_s:
                return
            yield t


@dataclass(frozen=True)
class BurstyArrivals:
    """Diurnal arrivals: the rate oscillates between base and peak.

    A nonhomogeneous Poisson process sampled by thinning: candidates are
    drawn at ``peak_rate_per_s`` and kept with probability
    ``rate(t) / peak_rate_per_s``, where the rate follows a raised
    cosine with period ``period_s`` (trough at t=0, crest at half a
    period) -- a scaled-down day/night load cycle.
    """

    base_rate_per_s: float
    peak_rate_per_s: float
    period_s: float
    horizon_s: float

    def __post_init__(self) -> None:
        if not (0 < self.base_rate_per_s <= self.peak_rate_per_s):
            raise ConfigError(
                f"need 0 < base <= peak rate: {self.base_rate_per_s}, "
                f"{self.peak_rate_per_s}")
        if not (self.period_s > 0):
            raise ConfigError(f"period must be > 0: {self.period_s}")
        if not (self.horizon_s > 0) or self.horizon_s == float("inf"):
            raise ConfigError(f"horizon must be finite and > 0: "
                              f"{self.horizon_s}")

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        swing = (self.peak_rate_per_s - self.base_rate_per_s) / 2.0
        return (self.base_rate_per_s + swing
                - swing * math.cos(2.0 * math.pi * t / self.period_s))

    def times(self, stream: Random) -> Iterator[float]:
        """Absolute arrival times drawn from ``stream`` (thinning)."""
        t = 0.0
        while True:
            t += stream.expovariate(self.peak_rate_per_s)
            if t >= self.horizon_s:
                return
            if stream.random() < self.rate_at(t) / self.peak_rate_per_s:
                yield t


@dataclass(frozen=True)
class TraceArrivals:
    """Replay a recorded arrival trace exactly (no randomness used)."""

    times_s: Tuple[float, ...]

    def __init__(self, times_s: Sequence[float]) -> None:
        ordered = tuple(sorted(float(t) for t in times_s))
        if ordered and (not (ordered[0] >= 0)
                        or ordered[-1] == float("inf")):
            raise ConfigError(
                f"trace times must be finite and >= 0: {times_s}")
        object.__setattr__(self, "times_s", ordered)

    @property
    def horizon_s(self) -> float:
        """End of the trace (the last arrival)."""
        return self.times_s[-1] if self.times_s else 0.0

    def times(self, stream: Random) -> Iterator[float]:
        """The recorded times, in order."""
        return iter(self.times_s)


# ---------------------------------------------------------------------------
# Plan re-instantiation (Execution-Templates-style)
# ---------------------------------------------------------------------------

def instantiate_plan(plan: JobPlan, scheduler: DagScheduler) -> JobPlan:
    """A fresh copy of ``plan`` with new job and shuffle ids.

    The expensive control-plane work (lineage walk, stage cutting,
    locality resolution) is reused from the compiled template; only the
    identifiers that must be globally unique -- the job id, every
    shuffle id, and DFS output file names -- are rewritten.  Plans that
    cache partitions cannot be re-instantiated: cache ids are bound to
    one job's block-manager state.
    """
    job_id = scheduler.allocate_job_id()
    shuffle_ids: Dict[int, int] = {}

    def remap(old: int) -> int:
        if old not in shuffle_ids:
            shuffle_ids[old] = scheduler.allocate_shuffle_id()
        return shuffle_ids[old]

    stages: List[Stage] = []
    for stage in plan.stages:
        tasks = []
        for task in stage.tasks:
            if task.cache is not None or isinstance(task.input, CachedInput):
                raise PlanError(
                    f"plan {plan.name!r} caches partitions and cannot be "
                    f"used as a serving template")
            task_input = task.input
            if isinstance(task_input, ShuffleInput):
                task_input = replace(task_input, deps=[
                    replace(dep, shuffle_id=remap(dep.shuffle_id))
                    for dep in task_input.deps])
            output = task.output
            if isinstance(output, ShuffleOutput):
                output = replace(output, shuffle_id=remap(output.shuffle_id))
            elif isinstance(output, DfsOutput):
                # Each instance writes its own file; appending every
                # submission to one shared file would grow it forever.
                output = replace(output,
                                 file_name=f"{output.file_name}.j{job_id}")
            tasks.append(replace(task, job_id=job_id, input=task_input,
                                 output=output))
        stages.append(Stage(job_id=job_id, stage_id=stage.stage_id,
                            tasks=tasks,
                            parent_stage_ids=list(stage.parent_stage_ids),
                            name=stage.name))
    return JobPlan(job_id=job_id, stages=stages, name=plan.name)


class JobTemplate:
    """A named job type submitted repeatedly by the serving layer.

    ``build(ctx)`` compiles the template's :class:`JobPlan`; it runs at
    most once per context (the compiled plan is cached), and every
    :meth:`instantiate` call clones the cached plan with fresh ids.
    """

    def __init__(self, name: str,
                 build: Callable[[AnalyticsContext], JobPlan]) -> None:
        self.name = name
        self._build = build
        self._compiled: Optional[JobPlan] = None
        self._compiled_for: Optional[int] = None
        #: How many times the control plane actually compiled (tests).
        self.compile_count = 0

    def base_plan(self, ctx: AnalyticsContext) -> JobPlan:
        """The cached compiled plan for ``ctx`` (compiling on first use)."""
        if self._compiled is None or self._compiled_for != id(ctx):
            self._compiled = self._build(ctx)
            self._compiled_for = id(ctx)
            self.compile_count += 1
        return self._compiled

    def instantiate(self, ctx: AnalyticsContext) -> JobPlan:
        """A submittable copy of the plan with fresh job/shuffle ids."""
        return instantiate_plan(self.base_plan(ctx), ctx.dag_scheduler)


# ---------------------------------------------------------------------------
# Scaled-down standard templates
# ---------------------------------------------------------------------------

def sort_template(ctx: AnalyticsContext, total_gb: float = 1.0,
                  num_tasks: int = 8, values_per_key: int = 25,
                  name: str = "sort", seed: int = 0) -> JobTemplate:
    """The paper's sort, scaled to serving-request size.

    Generates the input file once (named after the template) and returns
    a template whose instances read it, range-partition, sort, and write
    their own output files.
    """
    workload = SortWorkload(total_bytes=total_gb * GB,
                            values_per_key=values_per_key,
                            num_map_tasks=num_tasks)
    input_name = f"serve-{name}-in"
    generate_sort_input(ctx.cluster, workload, name=input_name, seed=seed)

    def build(context: AnalyticsContext) -> JobPlan:
        sorted_rdd = (context.text_file(input_name)
                      .map(lambda record: record,
                           cost=OpCost(per_record_s=PARTITION_S_PER_RECORD),
                           size_ratio=1.0, name="partition")
                      .sort_by_key(num_partitions=workload.reduce_tasks,
                                   boundaries=sort_boundaries(workload),
                                   cost=OpCost(per_record_s=SORT_S_PER_RECORD)))
        return context.compile(sorted_rdd,
                               DfsOutput(file_name=f"serve-{name}-out"),
                               name=name)

    return JobTemplate(name, build)


def wordcount_template(ctx: AnalyticsContext, num_blocks: int = 8,
                       block_mb: float = 32.0, name: str = "wordcount",
                       seed: int = 0) -> JobTemplate:
    """Figure 1's word count as an interactive-sized serving request."""
    input_name = f"serve-{name}-in"
    generate_text_input(ctx.cluster, num_blocks=num_blocks,
                        block_bytes=block_mb * MB, name=input_name,
                        seed=seed)

    def build(context: AnalyticsContext) -> JobPlan:
        counts = (context.text_file(input_name)
                  .flat_map(lambda line: line.split(" "),
                            cost=OpCost(per_record_s=0.5e-6))
                  .map(lambda word: (word, 1),
                       cost=OpCost(per_record_s=0.2e-6), size_ratio=1.0)
                  .reduce_by_key(lambda a, b: a + b,
                                 combine_cost=OpCost(per_record_s=0.3e-6)))
        return context.compile(counts,
                               DfsOutput(file_name=f"serve-{name}-out"),
                               name=name)

    return JobTemplate(name, build)


def bdb_template(ctx: AnalyticsContext, query: str = "1a",
                 fraction: float = 0.002, name: Optional[str] = None,
                 seed: int = 0) -> JobTemplate:
    """A Big Data Benchmark query-1 scan as a serving request.

    Only the scan-filter queries (1a/1b/1c) are offered as templates:
    they are the benchmark's interactive tier, and their single-stage
    shape keeps serving requests short.  They read only ``rankings``,
    so only that table is generated (:func:`generate_rankings`, the
    same records :func:`generate_bdb_tables` makes).  The DFS placement
    cursor advances once per block, so a file created after this call
    on the same cluster is placed differently than after the full
    three-table set.
    """
    if query not in Q1_SELECTIVITY:
        raise ConfigError(
            f"serving templates support queries {sorted(Q1_SELECTIVITY)}; "
            f"got {query!r}")
    name = name or f"bdb{query}"
    scale = BdbScale(fraction=fraction)
    if not ctx.cluster.dfs.exists("rankings"):
        generate_rankings(ctx.cluster, scale, seed=seed)
    selectivity = Q1_SELECTIVITY[query]
    cutoff = int(10000 * (1 - selectivity))

    def build(context: AnalyticsContext) -> JobPlan:
        filtered = (context.text_file("rankings", fmt=scale.fmt)
                    .filter(lambda row: row[1][0] > cutoff,
                            cost=RANKINGS_FILTER_COST,
                            count_ratio=selectivity))
        return context.compile(filtered,
                               DfsOutput(file_name=f"serve-{name}-out"),
                               name=name)

    return JobTemplate(name, build)


def ml_template(ctx: AnalyticsContext, num_partitions: int = 8,
                rows_per_partition: float = 2e5,
                compute_s_per_row: float = 12e-6,
                name: str = "ml", seed: int = 0) -> JobTemplate:
    """A CPU-bound least-squares-style iteration as a serving request.

    Models one block-coordinate-descent step: a heavy per-row matrix
    multiply followed by a small all-to-all aggregation, like the
    paper's §5.2 ML workload but sized for a request stream.  The input
    ships with the task (``parallelize``), so instances touch CPU and
    shuffle only.
    """
    from repro.datamodel.records import Partition

    rng = Random(seed)
    partitions = [
        Partition(records=[(rng.random(), rng.random()) for _ in range(16)],
                  record_count=rows_per_partition,
                  data_bytes=rows_per_partition * 64.0)
        for _ in range(num_partitions)
    ]

    def build(context: AnalyticsContext) -> JobPlan:
        gradients = (context.parallelize_partitions(partitions)
                     .map(lambda row: (0, row[0] * row[1]),
                          cost=OpCost(per_record_s=compute_s_per_row),
                          size_ratio=0.25)
                     .reduce_by_key(lambda a, b: a + b,
                                    num_partitions=max(
                                        1, num_partitions // 4),
                                    combine_cost=OpCost(
                                        per_record_s=0.5e-6)))
        return context.compile(gradients,
                               DfsOutput(file_name=f"serve-{name}-out"),
                               name=name)

    return JobTemplate(name, build)
