"""Same-seed determinism property tests for the simulation kernel.

The kernel's hot-path machinery (the hybrid immediate/heap event queue,
batched HDD chunk transfers, busy-tracker compaction) must preserve the
determinism contract: the same seed produces the identical event
sequence, so event counts, per-job finish times, and critical-path
attribution all match exactly -- on both engines.  These tests run the
same seeded serving stream twice and diff every observable; any
nondeterminism in queue ordering or completion batching shows up as an
exact-equality failure here.
"""

import pytest

from repro.api.context import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.serve import (JobServer, PoissonArrivals, sort_template,
                         wordcount_template)
from repro.trace.critpath import critical_path

SEEDS = [0, 7, 42]


def run_stream(engine: str, seed: int):
    """One seeded serving stream; returns every determinism observable."""
    cluster = hdd_cluster(num_machines=2, num_disks=2, seed=seed)
    ctx = AnalyticsContext(cluster, engine=engine)
    server = JobServer(ctx, policy="fifo", seed=seed)
    server.add_tenant("t")
    if seed % 2:
        template = wordcount_template(ctx, num_blocks=2, block_mb=4.0,
                                      seed=seed)
    else:
        template = sort_template(ctx, total_gb=0.05, num_tasks=4, seed=seed)
    server.add_workload("t", template,
                        PoissonArrivals(0.2, horizon_s=60.0))
    server.run()
    env = ctx.engine.env

    jobs = sorted(ctx.metrics.jobs)
    finishes = [(job_id, ctx.metrics.jobs[job_id].start,
                 ctx.metrics.jobs[job_id].end) for job_id in jobs]
    paths = []
    for job_id in jobs:
        record = ctx.metrics.jobs[job_id]
        if record.end != record.end:  # NaN: unfinished
            continue
        report = critical_path(ctx.metrics, job_id, engine=engine)
        paths.append((job_id, report.attributable,
                      [(s.start, s.end, s.kind, s.resource, s.machine_id,
                        s.phase, s.span_id) for s in report.segments]))
    return {
        "events_scheduled": env.events_scheduled,
        "final_time": env.now,
        "finishes": finishes,
        "paths": paths,
    }


class TestSameSeedSameRun:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_monospark_identical(self, seed):
        assert run_stream("monospark", seed) == run_stream("monospark", seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spark_identical(self, seed):
        assert run_stream("spark", seed) == run_stream("spark", seed)

    def test_different_seeds_differ(self):
        # Sanity check that the observables are sensitive at all: two
        # different seeds must not collide on the full fingerprint.
        assert run_stream("monospark", 0) != run_stream("monospark", 1)


# ---------------------------------------------------------------------------
# Control plane: checkpointing must not perturb job timing
# ---------------------------------------------------------------------------

def run_plane_stream(seed: int, checkpoint: bool):
    """One seeded multi-driver stream; job-timing observables only.

    The checkpoint tier rides a dedicated metadata network and commits
    its content at issue time, so turning checkpointing off must leave
    every job's finish time and critical path float-identical --
    ``events_scheduled`` legitimately differs (the checkpoint I/O
    events themselves), so it is deliberately NOT part of this
    fingerprint.
    """
    from repro.controlplane import ControlPlane, ControlPlanePolicy

    cluster = hdd_cluster(num_machines=2, num_disks=2, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(control_service_s=0.05, failover=checkpoint)
    plane = ControlPlane(ctx, num_drivers=2, config=policy, seed=seed)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0,
                                  seed=seed)
    for tenant in ("alpha", "bravo"):
        plane.add_workload(tenant, template,
                           PoissonArrivals(0.2, horizon_s=40.0))
    plane.run()
    jobs = sorted(ctx.metrics.jobs)
    finishes = [(job_id, ctx.metrics.jobs[job_id].start,
                 ctx.metrics.jobs[job_id].end) for job_id in jobs]
    paths = []
    for job_id in jobs:
        record = ctx.metrics.jobs[job_id]
        if record.end != record.end:  # NaN: unfinished
            continue
        report = critical_path(ctx.metrics, job_id, engine="monospark")
        paths.append((job_id, report.attributable,
                      [(s.start, s.end, s.kind, s.resource, s.machine_id,
                        s.phase, s.span_id) for s in report.segments]))
    return {"finishes": finishes, "paths": paths}


class TestControlPlaneDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_identical(self, seed):
        assert (run_plane_stream(seed, checkpoint=True)
                == run_plane_stream(seed, checkpoint=True))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpointing_is_timing_invisible(self, seed):
        assert (run_plane_stream(seed, checkpoint=True)
                == run_plane_stream(seed, checkpoint=False))


# ---------------------------------------------------------------------------
# Golden fingerprints: simulated behaviour pinned across code changes
# ---------------------------------------------------------------------------

#: sha256 of :func:`stream_fingerprint` for the seed-0 MonoSpark stream.
GOLDEN_STREAM_SHA256 = (
    "9c867e8a3aed60c4016a5e51c62e6f77ef5da4127f3bd9c577016e892eb44367")
#: sha256 of :func:`stream_fingerprint` for the same stream on the Spark
#: engine, which runs on the buffer cache, disk and network models.
GOLDEN_SPARK_STREAM_SHA256 = (
    "a756c16fc543ca9c7f6a67f43d21cbc6dc894e7e97902ad7a079f075cf8362b6")
#: sha256 of :func:`crash_fingerprint` for seed 3.
GOLDEN_CRASH_SHA256 = (
    "fc6d95960ffcf0bcd95d2c3ebee75da616f1dabef7273d8ebffdf33425d66a39")
#: sha256 of :func:`serve_fingerprint`: shedding, a concurrency cap of
#: two and two weighted tenants on one :class:`JobServer`.
GOLDEN_SERVE_SHA256 = (
    "04697016bd28428fb9c16ee58260927a5b920e979d322813509983d62a4b1ebe")
#: sha256 of :func:`failover_fingerprint`: a seeded driver crash that a
#: checkpointed :class:`~repro.controlplane.ControlPlane` fails over.
GOLDEN_FAILOVER_SHA256 = (
    "54a7d73d8ec022e8800c6f976c64207a39afa3400e6fc7a886c6aeadb70759c4")
#: sha256 of :func:`journal_fingerprint`: a capsule's journal lines and
#: the chrome-trace instants of a run that emits fault, health, driver
#: and alert events.
GOLDEN_JOURNAL_SHA256 = (
    "ec38ec8f5297f1f18064e753307270669f1f8d51e42993e5f0795de08ecfb73c")
#: sha256 of :func:`capsule_fingerprint`: the whole canonical clean
#: capsule, byte for byte (``benchmarks/results/xray_clean.capsule``).
GOLDEN_CAPSULE_SHA256 = (
    "42ceb3641839cea58a279bad8a976e7137de3fb89dd12c57173c78fa6146ad36")
#: sha256 of :func:`trace_fingerprint`: the chrome-trace events of the
#: seed-0 stream on MonoSpark, then on Spark.
GOLDEN_TRACE_SHA256 = (
    "c1b710512ec0646f26e690a43403c1a7832011f8c55e6e127a64738a31c83c8f")
#: sha256 of :func:`spark_health_fingerprint`: the health decisions and
#: serve records of a monitored Spark stream under a fail-slow NIC.
GOLDEN_SPARK_HEALTH_SHA256 = (
    "65850d351a7c0589e34c9a967d62053dcb760145e122c4463a2fe3a3ca6ce8c2")
#: sha256 of :func:`attempts_fingerprint`: every task attempt of a
#: faulted, speculating stream on MonoSpark, then on Spark.
GOLDEN_ATTEMPTS_SHA256 = (
    "a8c9bb3d5e4c3c628579e8465c754ec497d79ceb22f60493395ce274d7c097e5")


def job_fingerprint(ctx, engine: str = "monospark") -> str:
    """sha256 over every job's (id, start, end) and critical path.

    Floats enter through ``repr`` (shortest round-trip), so the hash is
    the same on every supported interpreter.  ``events_scheduled`` is
    deliberately left out: a kernel change may schedule fewer events
    for the same simulated behaviour.
    """
    import hashlib

    rows = []
    for job_id in sorted(ctx.metrics.jobs):
        record = ctx.metrics.jobs[job_id]
        segments = None
        if record.end == record.end:  # NaN: unfinished
            report = critical_path(ctx.metrics, job_id, engine=engine)
            segments = (report.attributable,
                        [(s.start, s.end, s.kind, s.resource, s.machine_id,
                          s.phase, s.span_id) for s in report.segments])
        rows.append((job_id, record.start, record.end, segments))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def seed0_stream(engine: str):
    """The seed-0 serving stream of :func:`run_stream`; returns the
    context it ran in."""
    cluster = hdd_cluster(num_machines=2, num_disks=2, seed=0)
    ctx = AnalyticsContext(cluster, engine=engine)
    server = JobServer(ctx, policy="fifo", seed=0)
    server.add_tenant("t")
    template = sort_template(ctx, total_gb=0.05, num_tasks=4, seed=0)
    server.add_workload("t", template, PoissonArrivals(0.2, horizon_s=60.0))
    server.run()
    return ctx


def stream_fingerprint(engine: str = "monospark") -> str:
    """The seed-0 serving stream of :func:`run_stream` on ``engine``."""
    return job_fingerprint(seed0_stream(engine), engine)


def trace_fingerprint():
    """The chrome-trace events of the fault-free seed-0 stream on
    MonoSpark, then on Spark: every monotask, task, flow and driver
    slice.

    Returns the fingerprint and the number of ``tasks``-track slices
    per engine (both engines must render tasks for the case to mean
    anything).
    """
    import hashlib
    import json

    from repro.metrics.chrometrace import trace_events

    digest = hashlib.sha256()
    task_slices = []
    for engine in ("monospark", "spark"):
        events = trace_events(seed0_stream(engine).metrics)
        digest.update(json.dumps(events, sort_keys=True).encode() + b"\n")
        task_slices.append(sum(1 for event in events
                               if event.get("tid") == "tasks"))
    return digest.hexdigest(), task_slices


def spark_health_fingerprint():
    """A Spark :class:`JobServer` stream with a :class:`HealthMonitor`
    and a fail-slow NIC on machine 1.

    The monitor's task-level estimator folds finished task attempts, so
    this pins the order in which it reads them.  Returns the
    fingerprint and the health-event kinds (the monitor must act for
    the case to mean anything).
    """
    import hashlib
    from dataclasses import astuple

    from repro.faults import FaultInjector, fail_slow_plan
    from repro.health import HealthMonitor, HealthPolicy
    from repro.metrics.events import HealthEventRecord

    cluster = hdd_cluster(num_machines=4, num_disks=2, seed=4)
    ctx = AnalyticsContext(cluster, engine="spark")
    FaultInjector(ctx.engine,
                  fail_slow_plan(machine_id=1, at=5.0, factor=10.0)).start()
    server = JobServer(ctx, seed=4,
                       health=HealthMonitor(ctx.engine, HealthPolicy()))
    server.add_tenant("t", slo_s=10.0)
    server.add_workload("t", wordcount_template(ctx, num_blocks=8,
                                                block_mb=32.0, seed=4),
                        PoissonArrivals(0.1, horizon_s=120.0))
    server.run()
    health = ctx.metrics.events_of(HealthEventRecord)
    rows = [[astuple(h) for h in health],
            [astuple(s) for s in ctx.metrics.serve_records()]]
    return (hashlib.sha256(repr(rows).encode()).hexdigest(),
            {h.kind for h in health})


def attempt_fields(span) -> tuple:
    """The ten per-attempt fields of a finished attempt span: job,
    stage, task, attempt, machine, start, end, outcome, speculative
    and detail."""
    attrs = span.attrs
    return (attrs["job_id"], attrs["stage_id"], attrs["task_index"],
            attrs["attempt"], span.machine_id, span.start, span.end,
            attrs["outcome"], attrs.get("speculative", False),
            attrs.get("detail", ""))


def attempts_fingerprint(seed: int = 3):
    """One seeded :class:`JobServer` stream per engine under a
    ``random_plan`` crash/disk/slowdown mix, with speculation on.

    Hashes each task attempt's fields in stream order.  Returns the
    fingerprint, the attempt outcomes seen and the number of
    speculative attempts (every outcome and speculation must appear
    for the case to mean anything).
    """
    import hashlib

    from repro.faults import FaultInjector, RecoveryPolicy, random_plan
    from repro.simulator.rng import RngStreams

    rows = []
    for engine in ("monospark", "spark"):
        cluster = hdd_cluster(num_machines=4, num_disks=2, seed=seed)
        ctx = AnalyticsContext(cluster, engine=engine,
                               recovery=RecoveryPolicy(speculation=True))
        plan = random_plan(RngStreams(seed), range(4), horizon_s=40.0,
                           num_faults=3, restart_after=5.0,
                           kind_weights={"crash": 1.0, "disk": 1.0,
                                         "slowdown": 1.0},
                           num_disks=2)
        FaultInjector(ctx.engine, plan).start()
        server = JobServer(ctx, policy="fifo", seed=seed)
        server.add_tenant("t")
        server.add_workload("t", sort_template(ctx, total_gb=0.1,
                                               num_tasks=8, seed=seed),
                            PoissonArrivals(0.5, horizon_s=40.0))
        server.run()
        rows.append([attempt_fields(a) for a in ctx.metrics.attempts])
    fields = [row for engine_rows in rows for row in engine_rows]
    return (hashlib.sha256(repr(rows).encode()).hexdigest(),
            {row[7] for row in fields}, sum(row[8] for row in fields))


def crash_fingerprint(seed: int = 3):
    """A seeded stream on four machines with one ``random_plan`` crash.

    Returns the fingerprint and the retry count (the crash must hit
    running work for the case to mean anything).
    """
    from repro.faults import FaultInjector, random_plan
    from repro.simulator.rng import RngStreams

    cluster = hdd_cluster(num_machines=4, num_disks=2, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    plan = random_plan(RngStreams(seed), range(4), horizon_s=40.0,
                       restart_after=5.0)
    FaultInjector(ctx.engine, plan).start()
    server = JobServer(ctx, policy="fifo", seed=seed)
    server.add_tenant("t")
    template = sort_template(ctx, total_gb=0.1, num_tasks=8, seed=seed)
    server.add_workload("t", template, PoissonArrivals(0.5, horizon_s=40.0))
    server.run()
    return job_fingerprint(ctx), ctx.metrics.retry_count()


def serve_rows(ctx) -> list:
    """Every serve record's fields and every job's (id, start, end)."""
    from dataclasses import astuple

    jobs = [(job_id, ctx.metrics.jobs[job_id].start,
             ctx.metrics.jobs[job_id].end)
            for job_id in sorted(ctx.metrics.jobs)]
    return [[astuple(r) for r in ctx.metrics.serve_records()], jobs]


def serve_fingerprint():
    """A :class:`JobServer` stream that sheds, caps and weighs tenants.

    Returns the fingerprint and the shed count (the admission path must
    be exercised for the case to mean anything).
    """
    import hashlib

    from repro.serve import AdmissionController, ml_template

    cluster = hdd_cluster(num_machines=2, num_disks=2, seed=5)
    ctx = AnalyticsContext(cluster, engine="monospark",
                           scheduling_policy="fair")
    server = JobServer(ctx, admission=AdmissionController(max_queued_jobs=1),
                       max_concurrent_jobs=2, seed=5)
    server.add_tenant("interactive", weight=2.0, slo_s=30.0)
    server.add_tenant("batch", weight=1.0)
    server.add_workload("interactive",
                        wordcount_template(ctx, num_blocks=2, block_mb=8.0),
                        PoissonArrivals(0.3, horizon_s=60.0))
    server.add_workload("batch", ml_template(ctx, num_partitions=2),
                        PoissonArrivals(0.1, horizon_s=60.0))
    report = server.run()
    rows = serve_rows(ctx)
    shed = sum(s.shed for s in report.stats)
    return hashlib.sha256(repr(rows).encode()).hexdigest(), shed


def failover_fingerprint():
    """A seeded two-driver :class:`ControlPlane` run whose driver 0
    crashes and is failed over from its checkpoints.

    Returns the fingerprint and the failover summaries (the crash must
    move work to an adopter for the case to mean anything).
    """
    import hashlib
    from dataclasses import astuple

    from repro.controlplane import ControlPlane, ControlPlanePolicy
    from repro.faults import DriverCrash, FaultInjector, FaultPlan

    cluster = hdd_cluster(num_machines=4, seed=2)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(control_service_s=0.05)
    plane = ControlPlane(ctx, num_drivers=2, config=policy, seed=2)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(4):
        plane.add_workload(f"tenant{i}", template,
                           PoissonArrivals(0.5, horizon_s=30.0))
    FaultInjector(ctx.engine, FaultPlan([DriverCrash(at=12.0, driver_id=0)])
                  ).start()
    report = plane.run()
    rows = serve_rows(ctx)
    rows.append([astuple(e) for e in report.events])
    rows.append([astuple(f) for f in report.failovers])
    return (hashlib.sha256(repr(rows).encode()).hexdigest(),
            report.failovers)


def journal_fingerprint():
    """A monitored, observed :class:`ControlPlane` run under a fail-slow
    NIC and a driver crash, recorded into a capsule.

    Returns the fingerprint and the journal's sources (all four must
    appear for the case to mean anything).
    """
    import hashlib
    import json
    import os
    import tempfile

    from repro.controlplane import ControlPlane
    from repro.faults import (DriverCrash, FaultInjector, FaultPlan,
                              fail_slow_plan)
    from repro.health import HealthMonitor, HealthPolicy
    from repro.metrics.chrometrace import trace_events
    from repro.obs import ObservabilityPlane
    from repro.serve import TraceArrivals
    from repro.xray import RunRecorder

    cluster = hdd_cluster(num_machines=4, num_disks=2, seed=4)
    ctx = AnalyticsContext(cluster, engine="monospark")
    plan = FaultPlan([*fail_slow_plan(machine_id=1, at=5.0, factor=10.0),
                      DriverCrash(at=20.0, driver_id=0)])
    FaultInjector(ctx.engine, plan).start()
    with tempfile.TemporaryDirectory() as workdir:
        capsule_path = os.path.join(workdir, "run.capsule")
        obs = ObservabilityPlane()
        plane = ControlPlane(ctx, num_drivers=2, seed=4,
                             health=HealthMonitor(ctx.engine, HealthPolicy()),
                             obs=obs)
        template = wordcount_template(ctx, num_blocks=4, block_mb=8.0, seed=4)
        for i in range(2):
            plane.add_tenant(f"tenant{i}", slo_s=10.0)
            plane.add_workload(f"tenant{i}", template, TraceArrivals(
                [1.0 + 3.0 * k + i for k in range(12)]))
        with RunRecorder(capsule_path, engine="monospark", seed=4) as recorder:
            recorder.attach(ctx.metrics)
            plane.run()
        with open(capsule_path, encoding="utf-8") as handle:
            capsule = [line for line in handle.read().splitlines()
                       if json.loads(line)["type"] == "journal"]
    instants = [json.dumps(event) for event in trace_events(ctx.metrics)
                if event["ph"] == "i"]
    digest = hashlib.sha256()
    for line in capsule + instants:
        digest.update(line.encode() + b"\n")
    sources = {json.loads(line)["source"] for line in capsule}
    return digest.hexdigest(), sources


class TestGoldenFingerprints:
    def test_stream_matches_golden(self):
        assert stream_fingerprint() == GOLDEN_STREAM_SHA256

    def test_spark_stream_matches_golden(self):
        assert stream_fingerprint("spark") == GOLDEN_SPARK_STREAM_SHA256

    def test_crash_plan_matches_golden(self):
        fingerprint, retries = crash_fingerprint()
        assert retries > 0
        assert fingerprint == GOLDEN_CRASH_SHA256

    def test_serve_matches_golden(self):
        fingerprint, shed = serve_fingerprint()
        assert shed > 0
        assert fingerprint == GOLDEN_SERVE_SHA256

    def test_failover_matches_golden(self):
        fingerprint, failovers = failover_fingerprint()
        assert failovers and failovers[0].resumed + failovers[0].replayed > 0
        assert fingerprint == GOLDEN_FAILOVER_SHA256

    def test_journal_matches_golden(self):
        fingerprint, sources = journal_fingerprint()
        assert sources == {"fault", "health", "driver", "alert"}
        assert fingerprint == GOLDEN_JOURNAL_SHA256

    def test_capsule_matches_golden(self):
        import hashlib
        import os

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "benchmarks", "results",
                               "xray_clean.capsule"), "rb") as handle:
            committed = hashlib.sha256(handle.read()).hexdigest()
        assert committed == GOLDEN_CAPSULE_SHA256
        assert capsule_fingerprint() == GOLDEN_CAPSULE_SHA256

    def test_trace_events_match_golden(self):
        fingerprint, task_slices = trace_fingerprint()
        assert all(task_slices)
        assert fingerprint == GOLDEN_TRACE_SHA256

    def test_spark_health_matches_golden(self):
        fingerprint, kinds = spark_health_fingerprint()
        assert "suspect" in kinds and "exclude" in kinds
        assert fingerprint == GOLDEN_SPARK_HEALTH_SHA256

    def test_attempts_match_golden(self):
        fingerprint, outcomes, speculative = attempts_fingerprint()
        assert outcomes == {"success", "failed", "fetch-failed", "killed"}
        assert speculative > 0
        assert fingerprint == GOLDEN_ATTEMPTS_SHA256

    def test_stream_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join([src, root]))
        out = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_determinism import stream_fingerprint; "
             "print(stream_fingerprint()); "
             "print(stream_fingerprint('spark')); "
             "from tests.test_determinism import serve_fingerprint; "
             "print(serve_fingerprint()[0]); "
             "from tests.test_determinism import failover_fingerprint; "
             "print(failover_fingerprint()[0]); "
             "from tests.test_determinism import journal_fingerprint; "
             "print(journal_fingerprint()[0]); "
             "from tests.test_determinism import capsule_fingerprint; "
             "print(capsule_fingerprint()); "
             "from tests.test_determinism import trace_fingerprint; "
             "print(trace_fingerprint()[0]); "
             "from tests.test_determinism import spark_health_fingerprint; "
             "print(spark_health_fingerprint()[0]); "
             "from tests.test_determinism import attempts_fingerprint; "
             "print(attempts_fingerprint()[0])"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == [GOLDEN_STREAM_SHA256,
                                      GOLDEN_SPARK_STREAM_SHA256,
                                      GOLDEN_SERVE_SHA256,
                                      GOLDEN_FAILOVER_SHA256,
                                      GOLDEN_JOURNAL_SHA256,
                                      GOLDEN_CAPSULE_SHA256,
                                      GOLDEN_TRACE_SHA256,
                                      GOLDEN_SPARK_HEALTH_SHA256,
                                      GOLDEN_ATTEMPTS_SHA256]


def capsule_fingerprint():
    """sha256 of the default :class:`~repro.xray.CanonicalRun`'s capsule,
    recorded afresh."""
    import hashlib
    import os
    import tempfile

    from repro.xray.scenario import CanonicalRun, record_run

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "clean.capsule")
        record_run(path, CanonicalRun())
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
