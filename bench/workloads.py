"""The benchmark's five workloads, built only from ``repro``'s public API.

Each workload is a function ``build(seed, scale)`` that does all set-up
(cluster, inputs, templates, fault plan) and returns the *timed section*:
a zero-argument callable that runs the simulation, reads the results a
user would read, and returns an :class:`Outcome`.  Output checks run in
:meth:`Outcome.check`, after the clock stops.  The timed section runs
exactly what a user of ``run_sort`` or ``run_query`` runs, so its DFS
outputs are timing-only; the record-level checks of those outputs are in
``test_bench.py``.

``scale`` sizes each workload (the serving and chaos horizons, the
sort's volume and task count, the BDB fraction and block count); 1.0 is
the benchmark's stated input size and the unit tests run at 0.05.

Simulated arrivals are open-loop Poisson in *simulated* time, drawn as
``n`` sorted uniform times over the horizon: a Poisson process
conditioned on exactly ``n`` arrivals.  That keeps the amount of work
the same for every seed; seeds differ in where the work lands and, under
faults, in how much of it is retried.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import AnalyticsContext, hdd_cluster
from repro.clarity import ClarityAggregator
from repro.config import GB, MB
from repro.controlplane import ControlPlane, ControlPlanePolicy
from repro.datasvc import DataService
from repro.faults import (BlockCorruption, DiskFault, DriverCrash,
                          FaultInjector, FaultPlan, LinkPartition,
                          MachineCrash, NetworkDegradation,
                          StorageNodeCrash, TransientSlowdown)
from repro.health import HealthMonitor, HealthPolicy
from repro.metrics import DISK
from repro.obs import ObservabilityPlane
from repro.serve import (JobServer, TraceArrivals, bdb_template,
                         sort_template, wordcount_template)
from repro.trace import TelemetryRegistry, TelemetrySampler
from repro.workloads import (BdbScale, QUERIES, SortWorkload,
                             generate_bdb_tables, generate_sort_input,
                             run_query, run_sort)
from repro.workloads.scaling import scaled_memory_overrides
from repro.xray import Capsule, RunRecorder

__all__ = ["WORKLOADS", "WHY", "Outcome", "build", "conditioned_poisson",
           "shuffle_setup", "bdb_setup"]

#: A request that reached one of these ended; anything else is a leak.
TERMINAL = ("completed", "failed", "shed", "lost")


@dataclass
class Outcome:
    """What one timed section produced, plus the checks over it."""

    #: Simulated jobs submitted (serving requests, or batch jobs).
    submitted: int
    #: Jobs that completed, before output checks.
    completed: int
    #: Per-layer counters read from public state after the run.
    counters: Dict[str, float]
    #: (job id, start, finish) of every engine job, for the digest.
    jobs: List[Tuple[int, float, float]]
    #: Output-check failures, as ``(description, jobs it condemns)``.
    failures: List[Tuple[str, int]] = field(default_factory=list)
    #: Host-time counters measured inside the timed section (kept out
    #: of the digest, which must repeat exactly).
    timings: Dict[str, float] = field(default_factory=dict)
    #: Output checks, run by :meth:`check` once the clock has stopped.
    checks: List[Callable[["Outcome"], None]] = field(default_factory=list)

    def check(self) -> None:
        """Run every output check, recording failures."""
        for check in self.checks:
            check(self)

    def fail(self, description: str, jobs: int) -> None:
        """Record a failed output check that condemns ``jobs`` jobs."""
        self.failures.append((description, jobs))

    @property
    def failed(self) -> int:
        """Submitted jobs that did not complete with correct output."""
        condemned = sum(jobs for _, jobs in self.failures)
        return min(self.submitted,
                   self.submitted - self.completed + condemned)

    def digest(self) -> str:
        """sha256 over every job's (id, start, finish) and the counts.

        Timing-free: it changes only when the simulation itself does.
        """
        sha = hashlib.sha256()
        for job_id, start, end in sorted(self.jobs):
            sha.update(f"{job_id}:{start!r}:{end!r};".encode())
        for name in sorted(self.counters):
            sha.update(f"{name}={self.counters[name]!r};".encode())
        sha.update(f"{self.submitted}/{self.completed}".encode())
        return sha.hexdigest()


def conditioned_poisson(rng: random.Random, count: int,
                        horizon_s: float) -> List[float]:
    """``count`` Poisson arrival times over ``[0, horizon_s)``."""
    return sorted(rng.random() * horizon_s for _ in range(count))


def _engine_counters(ctx: AnalyticsContext) -> Dict[str, float]:
    metrics = ctx.metrics
    env = ctx.engine.env
    return {
        "simulator.core.events": env.events_scheduled,
        "simulator.core.sim_s": env.now,
        "monospark.monotasks": len(metrics.monotasks),
        "engine.attempts": len(metrics.attempts),
        "engine.retries": metrics.retry_count(),
        "metrics.spans": len(metrics.spans),
    }


def _jobs(ctx: AnalyticsContext) -> List[Tuple[int, float, float]]:
    return [(job.job_id, job.start, job.end)
            for job in ctx.metrics.jobs.values()]


def _batch_outcome(ctx: AnalyticsContext, submitted: int) -> Outcome:
    jobs = _jobs(ctx)
    completed = sum(1 for _, start, end in jobs if start <= end)
    outcome = Outcome(submitted=submitted, completed=completed,
                      counters=_engine_counters(ctx), jobs=jobs)
    if len(jobs) != submitted:
        outcome.fail(f"{submitted} jobs submitted but {len(jobs)} ran",
                     submitted)
    return outcome


def _serve_outcome(ctx: AnalyticsContext, records, submitted: int
                   ) -> Outcome:
    completed = sum(1 for r in records if r.outcome == "completed")
    outcome = Outcome(submitted=submitted, completed=completed,
                      counters=_engine_counters(ctx), jobs=_jobs(ctx))
    outcome.counters["serve.jobs_submitted"] = submitted
    outcome.counters["serve.jobs_completed"] = completed

    def each_request_ended_once(outcome: Outcome) -> None:
        stray = [r.outcome for r in records if r.outcome not in TERMINAL]
        if len(records) != submitted or stray:
            outcome.fail(f"{submitted} requests submitted but "
                         f"{len(records)} terminal records (non-terminal: "
                         f"{stray})", submitted)
        job_ids = [r.job_id for r in records if r.outcome == "completed"]
        if len(set(job_ids)) != len(job_ids):
            outcome.fail("a completed job id was reported twice",
                         len(job_ids) - len(set(job_ids)))

    outcome.checks.append(each_request_ended_once)
    return outcome


# ---------------------------------------------------------------------------
# serve-observed / serve-bare
# ---------------------------------------------------------------------------

#: The kernel-throughput stream (repro.kernelbench): 0.1875 GB x 8-task
#: sorts at 0.4/s on 4 HDD machines, fifo, one job at a time.
SERVE_RATE_PER_S = 0.4
SERVE_HORIZON_S = 600.0
SERVE_SORT_GB = 0.1875
SERVE_SORT_TASKS = 8


def build_serve(seed: int, scale: float = 1.0,
                observed: bool = True) -> Callable[[], Outcome]:
    """One compiled sort template served as a long stream of small jobs."""
    horizon_s = SERVE_HORIZON_S * scale
    jobs = max(1, round(SERVE_RATE_PER_S * horizon_s))
    cluster = hdd_cluster(num_machines=4, num_disks=2, cores=8, seed=seed,
                          **scaled_memory_overrides(0.01))
    ctx = AnalyticsContext(cluster, engine="monospark",
                           scheduling_policy="fair")
    clarity = sampler = None
    if observed:
        clarity = ClarityAggregator(window_s=horizon_s * 10,
                                    engine=ctx.engine.name)
        sampler = TelemetrySampler(ctx.engine.env,
                                   TelemetryRegistry(retention_s=120.0),
                                   interval_s=1.0)
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1,
                       seed=seed, clarity=clarity, telemetry=sampler)
    server.add_tenant("analytics")
    template = sort_template(ctx, total_gb=SERVE_SORT_GB,
                             num_tasks=SERVE_SORT_TASKS, seed=seed)
    arrivals = conditioned_poisson(random.Random(seed), jobs, horizon_s)
    server.add_workload("analytics", template, TraceArrivals(arrivals))

    def timed() -> Outcome:
        report = server.run()
        return _serve_outcome(ctx, report.records, jobs)

    return timed


# ---------------------------------------------------------------------------
# shuffle-bulk
# ---------------------------------------------------------------------------

#: The paper's §5.2 sort (600 GB, 20 x 2 HDD, 25 longs per value), at a
#: fraction of its volume with capacities scaled to match.  The tasks
#: fit one wave of the 160 cores.
SHUFFLE_FRACTION = 0.0125
SHUFFLE_TASKS = 100
#: Shuffle bucket sizes follow the sample records, so each map block
#: carries ~5 per reduce task: every map then sends to every reducer.
#: With 64, most buckets were empty, and which ones changed the network
#: model's work by 9% (interquartile range) from seed to seed.
SHUFFLE_SAMPLES = 512


def shuffle_setup(seed: int, scale: float = 1.0
                  ) -> Tuple[AnalyticsContext, SortWorkload]:
    """The shuffle-bulk context and sort, with the input loaded."""
    fraction = SHUFFLE_FRACTION * scale
    tasks = max(4, round(SHUFFLE_TASKS * scale ** 0.5))
    cluster = hdd_cluster(num_machines=20, num_disks=2, seed=seed,
                          **scaled_memory_overrides(fraction))
    workload = SortWorkload(total_bytes=600 * GB * fraction,
                            values_per_key=25, num_map_tasks=tasks,
                            sample_records_per_block=SHUFFLE_SAMPLES)
    generate_sort_input(cluster, workload, seed=seed)
    return AnalyticsContext(cluster, engine="monospark"), workload


def build_shuffle(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """One all-to-all sort with hundreds of concurrent shuffle flows."""
    ctx, workload = shuffle_setup(seed, scale)

    def timed() -> Outcome:
        result = run_sort(ctx, workload)
        outcome = _batch_outcome(ctx, submitted=1)
        outcome.checks.append(lambda o: _check_sort(
            o, ctx, workload, result.job_id))
        return outcome

    return timed


def _check_sort(outcome: Outcome, ctx: AnalyticsContext,
                workload: SortWorkload, job_id: int) -> None:
    dfs = ctx.cluster.dfs
    output = dfs.get_file("sort-output")
    if len(output.blocks) != workload.reduce_tasks:
        outcome.fail(f"{len(output.blocks)} output partitions, not "
                     f"{workload.reduce_tasks}", 1)
    in_bytes = dfs.get_file("sort-input").nbytes
    out_bytes = output.nbytes
    if abs(out_bytes - in_bytes) > 1e-6 * in_bytes:
        outcome.fail(f"modelled output bytes {out_bytes:.0f} != input "
                     f"bytes {in_bytes:.0f}", 1)
    reported = sum(m.nbytes for m in ctx.metrics.monotasks
                   if m.resource == DISK and m.job_id == job_id)
    served = sum(disk.bytes_read + disk.bytes_written
                 for machine in ctx.cluster.machines
                 for disk in machine.disks)
    if abs(reported - served) > max(1.0, 1e-9 * served):
        outcome.fail(f"monotask disk bytes {reported:.0f} != disk bytes "
                     f"read+written {served:.0f}", 1)


# ---------------------------------------------------------------------------
# bdb-spark
# ---------------------------------------------------------------------------

#: All ten Big Data Benchmark queries on 5 HDD machines, Spark engine.
#: Host time follows the block (task) count, not the fraction, so the
#: 1 GB blocks are what size this workload: 128 uservisits and 137
#: documents tasks.
BDB_FRACTION = 0.05
BDB_BLOCK_BYTES = 1024 * MB


def bdb_setup(seed: int, scale: float = 1.0
              ) -> Tuple[AnalyticsContext, BdbScale]:
    """The bdb-spark context and table scale, with the tables loaded."""
    fraction = min(1.0, BDB_FRACTION * scale)
    cluster = hdd_cluster(num_machines=5, num_disks=2, seed=seed,
                          **scaled_memory_overrides(fraction))
    tables = generate_bdb_tables(
        cluster, BdbScale(fraction=fraction,
                          block_bytes=BDB_BLOCK_BYTES / scale), seed=seed)
    return AnalyticsContext(cluster, engine="spark"), tables


def build_bdb(seed: int, scale: float = 1.0) -> Callable[[], Outcome]:
    """The ten BDB queries, run back to back on the Spark engine."""
    ctx, tables = bdb_setup(seed, scale)

    def timed() -> Outcome:
        for query in QUERIES:
            run_query(ctx, query, tables)
        outcome = _batch_outcome(ctx, submitted=len(QUERIES))
        outcome.checks.append(lambda o: _check_bdb(o, ctx))
        return outcome

    return timed


def _check_bdb(outcome: Outcome, ctx: AnalyticsContext) -> None:
    for query in QUERIES:
        output = ctx.cluster.dfs.get_file(f"bdb-out-{query}")
        if not output.blocks or output.nbytes <= 0:
            outcome.fail(f"query {query} wrote no output", 1)


# ---------------------------------------------------------------------------
# tenants-chaos
# ---------------------------------------------------------------------------

#: How much retried work the faults cause depends on where the seed's
#: arrivals land; over 100 s (60 jobs) host time varies about half as
#: much from seed to seed as over 50 s.
CHAOS_HORIZON_S = 100.0
CHAOS_TENANTS = 6
CHAOS_RATE_PER_S = 0.1
CHAOS_MACHINES = 5


def chaos_plan(horizon_s: float) -> FaultPlan:
    """Eight fault kinds spread over the horizon; every one recovers."""
    h = horizon_s
    return FaultPlan([
        NetworkDegradation(at=0.08 * h, machine_id=1, up_factor=4.0,
                           down_factor=4.0, duration=0.2 * h),
        TransientSlowdown(at=0.15 * h, machine_id=2, duration=0.15 * h,
                          cpu_factor=3.0, disk_factor=2.0),
        LinkPartition(at=0.25 * h, src_machine_id=0, dst_machine_id=3,
                      heal_after=0.1 * h),
        BlockCorruption(at=0.35 * h, node_index=0),
        StorageNodeCrash(at=0.45 * h, node_index=1, restart_after=0.1 * h),
        DriverCrash(at=0.55 * h, driver_id=1),
        MachineCrash(at=0.65 * h, machine_id=3, restart_after=0.1 * h),
        DiskFault(at=0.8 * h, machine_id=4, disk_index=1),
    ])


def build_chaos(seed: int, scale: float = 1.0,
                workdir: str = ".") -> Callable[[], Outcome]:
    """Sharded multi-tenant serving through every subsystem, under faults."""
    horizon_s = CHAOS_HORIZON_S * scale
    cluster = hdd_cluster(num_machines=CHAOS_MACHINES, num_disks=2,
                          seed=seed)
    service = DataService(cluster, num_nodes=3, replication=2)
    ctx = AnalyticsContext(cluster, engine="monospark", datasvc=service)
    monitor = HealthMonitor(ctx.engine, HealthPolicy())
    obs = ObservabilityPlane()
    clarity = ClarityAggregator(window_s=horizon_s * 10,
                                engine=ctx.engine.name)
    plane = ControlPlane(ctx, num_drivers=2, config=ControlPlanePolicy(),
                         seed=seed, health=monitor, clarity=clarity,
                         obs=obs)
    templates = [wordcount_template(ctx, num_blocks=4, block_mb=8.0,
                                    seed=seed),
                 sort_template(ctx, total_gb=0.125, num_tasks=8,
                               seed=seed),
                 bdb_template(ctx, "1a", seed=seed)]
    rng = random.Random(seed)
    jobs = max(1, round(CHAOS_RATE_PER_S * horizon_s))
    for i in range(CHAOS_TENANTS):
        plane.add_tenant(f"tenant{i}")
        plane.add_workload(f"tenant{i}", templates[i % len(templates)],
                           TraceArrivals(conditioned_poisson(
                               rng, jobs, horizon_s)))
    FaultInjector(ctx.engine, chaos_plan(horizon_s)).start()
    path = os.path.join(workdir, f"chaos-{os.getpid()}.capsule")
    recorder = RunRecorder(path, engine=ctx.engine.name, seed=seed)
    recorder.attach(ctx.metrics)
    submitted = jobs * CHAOS_TENANTS

    def timed() -> Outcome:
        try:
            with recorder:
                report = plane.run()
                recorder.finalize(report=report.serve, clarity=clarity,
                                  telemetry=obs.registry)
            capsule_mb = os.path.getsize(path) / (1 << 20)
            start = time.perf_counter()
            capsule = Capsule.load(path)
            load_s = time.perf_counter() - start
        finally:
            if os.path.exists(path):
                os.remove(path)
        outcome = _serve_outcome(ctx, report.serve.records, submitted)
        outcome.counters["xray.capsule_mb"] = capsule_mb
        outcome.timings["xray.load_s"] = load_s
        outcome.checks.append(lambda o: _check_capsule(o, capsule))
        return outcome

    return timed


def _check_capsule(outcome: Outcome, capsule: Capsule) -> None:
    recorded = len(capsule.completed_jobs())
    if recorded != outcome.completed:
        outcome.fail(f"capsule holds {recorded} completed jobs, the run "
                     f"{outcome.completed}", outcome.completed)


#: name -> builder.  Every builder takes (seed, scale).
WORKLOADS: Dict[str, Callable[..., Callable[[], Outcome]]] = {
    "serve-observed": build_serve,
    "serve-bare": partial(build_serve, observed=False),
    "shuffle-bulk": build_shuffle,
    "bdb-spark": build_bdb,
    "tenants-chaos": build_chaos,
}

#: name -> why the benchmark runs it (mirrored in BENCHMARK.json).
WHY = {
    "serve-observed": "many small jobs from one template with clarity and "
                      "telemetry on: per-job kernel, scheduler and "
                      "observability overhead",
    "serve-bare": "the same stream with observability off: the bypass for "
                  "observability changes, and the base of its tax",
    "shuffle-bulk": "one all-to-all sort with hundreds of concurrent flows: "
                    "the network fair-share model dominates",
    "bdb-spark": "ten BDB queries on the Spark engine: chunk-level "
                 "pipelining, buffer cache and real record execution",
    "tenants-chaos": "sharded drivers, data tier, health, obs and a capsule "
                     "under eight fault kinds: the only path with retries",
}


def build(name: str, seed: int, scale: float = 1.0,
          workdir: Optional[str] = None) -> Callable[[], Outcome]:
    """Set up workload ``name``; return its timed section."""
    if name == "tenants-chaos":
        return build_chaos(seed, scale, workdir=workdir or ".")
    return WORKLOADS[name](seed, scale)
