"""The canonical fail-slow serving scenario.

One parameterized serving run: an SLO-bearing word-count stream on a
seeded HDD cluster, optionally with one machine's NIC degraded
mid-run.  :func:`build_run` wires it and hands back the unstarted run;
:func:`record_run` records it into a capsule.  Every harness that
speaks about this run builds it here, so "the canonical fail-slow run"
means exactly one thing everywhere:

* ``repro xray record``, the xray benchmark (:mod:`repro.xray.bench`),
  ``examples/run_diff.py`` and ``tests/test_xray.py`` record it;
* the obs benchmark's fail-slow scenario (:mod:`repro.obs.bench`),
  ``examples/alerting.py`` and ``tests/test_obs.py`` build it and
  read the alert timeline, journal and spans it leaves behind.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

from repro.xray.capsule import Capsule, RunRecorder

__all__ = ["CanonicalRun", "build_run", "record_run"]


@dataclass(frozen=True)
class CanonicalRun:
    """Knobs of one canonical run.

    Defaults are the xray capsules' clean run: a shuffle-heavy word
    count (48 MB blocks), so a degraded NIC lands on the critical path
    as *network* seconds rather than hiding behind compute.  The obs
    benchmark runs the same stream with 16 MB blocks, 20 jobs and the
    health monitor on."""

    engine: str = "monospark"
    machines: int = 4
    disks: int = 2
    seed: int = 1
    tenant: str = "analytics"
    slo_s: float = 3.0
    num_blocks: int = 4
    block_mb: float = 48.0
    jobs: int = 12
    period_s: float = 2.5
    #: Machine whose NIC degrades mid-run; None records a clean run.
    degrade_machine: Optional[int] = None
    degrade_at: float = 5.0
    degrade_factor: float = 10.0
    #: Run the health monitor alongside.  Off by default: exclusion
    #: *mitigates* the fault by moving work off the slow machine, which
    #: is the right production behavior but the wrong canonical diff --
    #: xray's demo is explaining an unmitigated degradation.
    health: bool = False

    def degraded(self, machine: int = 1) -> "CanonicalRun":
        """This run with the canonical fail-slow fault injected."""
        return replace(self, degrade_machine=machine)


def build_run(run: CanonicalRun) -> Tuple:
    """Wire ``run`` and return it unstarted: ``(ctx, server, obs,
    aggregator)``.

    The fault injector and (with ``health``) the health monitor are
    already attached to the engine; the server carries the
    observability plane and a whole-run clarity aggregator.  Attach
    whatever else the caller needs (a recorder, a listener), then
    ``server.run()``.
    """
    from repro.api.context import AnalyticsContext
    from repro.clarity import ClarityAggregator
    from repro.cluster import hdd_cluster
    from repro.faults import FaultInjector, fail_slow_plan
    from repro.health import HealthMonitor, HealthPolicy
    from repro.obs import ObservabilityPlane
    from repro.serve import JobServer
    from repro.serve.workload import TraceArrivals, wordcount_template

    cluster = hdd_cluster(num_machines=run.machines, num_disks=run.disks,
                          seed=run.seed)
    ctx = AnalyticsContext(cluster, engine=run.engine)
    if run.degrade_machine is not None:
        plan = fail_slow_plan(machine_id=run.degrade_machine,
                              at=run.degrade_at, factor=run.degrade_factor)
        FaultInjector(ctx.engine, plan).start()
    monitor = (HealthMonitor(ctx.engine, HealthPolicy())
               if run.health else None)
    obs = ObservabilityPlane()
    aggregator = ClarityAggregator(engine=ctx.engine.name, window_s=1e9)
    server = JobServer(ctx, seed=run.seed, health=monitor,
                       clarity=aggregator, obs=obs)
    server.add_tenant(run.tenant, slo_s=run.slo_s)
    template = wordcount_template(ctx, num_blocks=run.num_blocks,
                                  block_mb=run.block_mb)
    arrivals = TraceArrivals([1.0 + run.period_s * i
                              for i in range(run.jobs)])
    server.add_workload(run.tenant, template, arrivals)
    return ctx, server, obs, aggregator


def record_run(path: str, run: Optional[CanonicalRun] = None) -> Capsule:
    """Simulate one canonical run, recording it into ``path``.

    Returns the capsule *loaded back from disk*, so callers hold
    exactly what any later reader will see.
    """
    if run is None:
        run = CanonicalRun()
    ctx, server, obs, aggregator = build_run(run)
    with RunRecorder(path, engine=run.engine, seed=run.seed,
                     config=asdict(run)) as recorder:
        recorder.attach(ctx.metrics)
        report = server.run()
        recorder.finalize(report=report, clarity=aggregator,
                          telemetry=obs.registry)
    return Capsule.load(path)
