"""Engine-level fault recovery: the answer survives the failure.

Both engines must compute the fault-free result under injected machine
crashes -- attempts retry, lost map output is re-executed from lineage,
and first-finisher-wins keeps outputs exactly-once.  The same workload
with the same FaultPlan and seed must also produce a byte-identical
metrics event stream: failures are as reproducible here as performance.
"""

import dataclasses
import json
import random

import pytest

from repro.api import AnalyticsContext
from repro.api.plan import ShuffleOutput
from repro.cluster import hdd_cluster
from repro.config import MB
from repro.datamodel import Partition
from repro.errors import (ExecutionError, Interrupted, PlanError,
                          TaskFailedError)
from repro.faults import (DiskFault, FaultInjector, FaultPlan, MachineCrash,
                          RecoveryPolicy, TransientSlowdown, random_plan)
from repro.metrics.events import FaultEventRecord
from repro.simulator.rng import RngStreams

ENGINES = ["spark", "monospark"]

LINES = ["the quick brown fox jumps over the lazy dog",
         "monotask spark cluster disk network cpu",
         "the fox the dog the cluster"] * 8


def dfs_sort_cluster(machines=4, blocks=8, records_per_block=40, seed=1):
    cluster = hdd_cluster(num_machines=machines)
    rng = random.Random(seed)
    payloads = []
    for b in range(blocks):
        records = [(rng.randint(0, 999), f"v{b}")
                   for _ in range(records_per_block)]
        payloads.append(Partition.from_records(
            records, record_count=records_per_block, data_bytes=16 * MB))
    cluster.dfs.create_file("input", payloads, [16 * MB] * blocks)
    return cluster


def word_count(ctx):
    out = (ctx.parallelize(LINES, num_partitions=8)
           .flat_map(str.split)
           .map(lambda w: (w, 1))
           .reduce_by_key(lambda a, b: a + b, num_partitions=4)
           .collect())
    return dict(out)


def sort_records(ctx):
    return ctx.text_file("input").sort_by_key(num_partitions=4).collect()


def crash_plan(ctx, at, machine_id=1, restart_after=None):
    plan = FaultPlan([MachineCrash(at=at, machine_id=machine_id,
                                   restart_after=restart_after)])
    FaultInjector(ctx.engine, plan).start()


class TestFaultPlanValidation:
    def test_rejects_nonfinite_time(self):
        with pytest.raises(PlanError):
            FaultPlan([MachineCrash(at=float("inf"), machine_id=0)])
        with pytest.raises(PlanError):
            FaultPlan([MachineCrash(at=float("nan"), machine_id=0)])
        with pytest.raises(PlanError):
            FaultPlan([DiskFault(at=-1.0, machine_id=0, disk_index=0)])

    def test_rejects_bad_restart_and_duration(self):
        with pytest.raises(PlanError):
            FaultPlan([MachineCrash(at=1.0, machine_id=0, restart_after=0.0)])
        with pytest.raises(PlanError):
            FaultPlan([TransientSlowdown(at=1.0, machine_id=0, duration=-5.0)])
        with pytest.raises(PlanError):
            FaultPlan([TransientSlowdown(at=1.0, machine_id=0, duration=5.0,
                                         cpu_factor=0.5)])

    def test_faults_sorted_by_time(self):
        plan = FaultPlan([DiskFault(at=9.0, machine_id=0, disk_index=0),
                          MachineCrash(at=3.0, machine_id=1)])
        assert [fault.at for fault in plan] == [3.0, 9.0]

    def test_random_plan_is_seed_deterministic(self):
        first = random_plan(RngStreams(7), range(8), horizon_s=100.0,
                            num_faults=3)
        second = random_plan(RngStreams(7), range(8), horizon_s=100.0,
                             num_faults=3)
        assert list(first) == list(second)
        other = random_plan(RngStreams(8), range(8), horizon_s=100.0,
                            num_faults=3)
        assert list(first) != list(other)


class TestRecoveryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RecoveryPolicy(backoff_base_s=0.5, backoff_factor=2.0,
                                backoff_max_s=3.0)
        assert policy.backoff_s(1) == 0.5
        assert policy.backoff_s(2) == 1.0
        assert policy.backoff_s(3) == 2.0
        assert policy.backoff_s(4) == 3.0  # capped
        assert policy.backoff_s(10) == 3.0


@pytest.mark.parametrize("engine", ENGINES)
class TestCrashRecovery:
    def test_word_count_survives_mid_job_crash(self, engine):
        expected = word_count(
            AnalyticsContext(hdd_cluster(num_machines=4), engine=engine))
        baseline = AnalyticsContext(hdd_cluster(num_machines=4),
                                    engine=engine)
        duration = (word_count(baseline), baseline.last_result.duration)[1]

        ctx = AnalyticsContext(hdd_cluster(num_machines=4), engine=engine)
        crash_plan(ctx, at=duration * 0.4)
        assert word_count(ctx) == expected
        job_id = ctx.last_result.job_id
        attempts = [a.attrs for a in ctx.metrics.attempts
                    if a.attrs["job_id"] == job_id]
        assert any(a["outcome"] != "success" for a in attempts)
        assert ctx.metrics.retry_count() > 0

    def test_sort_survives_crash_with_restart(self, engine):
        expected = sorted(sort_records(
            AnalyticsContext(dfs_sort_cluster(), engine=engine)))
        baseline = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        records = sort_records(baseline)
        assert sorted(records) == expected
        duration = baseline.last_result.duration

        ctx = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        crash_plan(ctx, at=duration * 0.5, restart_after=duration * 0.5)
        crashed = sort_records(ctx)
        assert sorted(crashed) == expected
        assert [fault.kind for fault
                in ctx.metrics.events_of(FaultEventRecord)] == \
            ["machine-crash", "machine-restart"]

    def test_no_duplicate_outputs_from_retries(self, engine):
        # Exactly-once commits: retried/killed attempts must not add
        # their records a second time.
        baseline = AnalyticsContext(hdd_cluster(num_machines=4),
                                    engine=engine)
        expected = word_count(baseline)
        ctx = AnalyticsContext(hdd_cluster(num_machines=4), engine=engine)
        crash_plan(ctx, at=baseline.last_result.duration * 0.6)
        out = (ctx.parallelize(LINES, num_partitions=8)
               .flat_map(str.split)
               .map(lambda w: (w, 1))
               .reduce_by_key(lambda a, b: a + b, num_partitions=4)
               .collect())
        assert len(out) == len(expected)  # one pair per distinct word
        assert dict(out) == expected

    def test_event_queue_drains_after_faulty_run(self, engine):
        baseline = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        sort_records(baseline)
        ctx = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        crash_plan(ctx, at=baseline.last_result.duration * 0.4,
                   restart_after=2.0)
        sort_records(ctx)
        env = ctx.cluster.env
        env.run()  # drain stragglers (restart timers etc.)
        assert env.queue_size == 0


def fault_trace(metrics):
    """The fault-relevant event streams, serialized byte-stably."""
    return json.dumps({
        "attempts": [dataclasses.astuple(r) for r in metrics.attempts],
        "faults": [dataclasses.astuple(r)
                   for r in metrics.events_of(FaultEventRecord)],
        "speculations": [dataclasses.astuple(r)
                         for r in metrics.speculations],
    })


@pytest.mark.parametrize("engine", ENGINES)
class TestDeterminismUnderFaults:
    def test_same_plan_same_seed_identical_trace(self, engine):
        baseline = AnalyticsContext(dfs_sort_cluster(seed=3), engine=engine)
        sort_records(baseline)
        crash_at = baseline.last_result.duration * 0.5

        def run_once():
            ctx = AnalyticsContext(dfs_sort_cluster(seed=3), engine=engine)
            crash_plan(ctx, at=crash_at, restart_after=crash_at)
            records = sort_records(ctx)
            return records, fault_trace(ctx.metrics)

        first_records, first_trace = run_once()
        second_records, second_trace = run_once()
        assert first_records == second_records
        assert first_trace == second_trace
        assert "machine-crash" in first_trace


@pytest.mark.parametrize("engine", ENGINES)
class TestLineageRecovery:
    def test_crash_after_map_stage_reruns_maps(self, engine):
        # Crash once the map stage has finished: reducers find the dead
        # machine's shuffle output missing, fetch-fail, and the engine
        # re-runs just those maps from lineage.
        baseline = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        expected = sorted(sort_records(baseline))
        stages = baseline.metrics.stage_records(
            baseline.last_result.job_id)
        map_end = min(stage.end for stage in stages)

        ctx = AnalyticsContext(dfs_sort_cluster(), engine=engine)
        crash_plan(ctx, at=map_end * 1.02, restart_after=5.0)
        records = sort_records(ctx)
        assert sorted(records) == expected
        outcomes = ctx.metrics.attempt_outcome_counts(
            ctx.last_result.job_id)
        assert outcomes.get("fetch-failed", 0) > 0
        # Lineage re-ran maps: more map attempts than map tasks.
        job_id = ctx.last_result.job_id
        map_stage = max(a.attrs["stage_id"] for a in ctx.metrics.attempts
                        if a.attrs["job_id"] == job_id)
        map_attempts = [a.attrs for a in ctx.metrics.attempts
                        if a.attrs["job_id"] == job_id
                        and a.attrs["stage_id"] == map_stage]
        successes = [a for a in map_attempts if a["outcome"] == "success"]
        assert len(successes) > len({a["task_index"] for a in map_attempts})


@pytest.mark.parametrize("engine", ENGINES)
class TestSpeculation:
    def test_straggler_gets_speculative_copy(self, engine):
        cluster = dfs_sort_cluster()
        cluster.degrade_machine(1, cpu_factor=0.05, disk_factor=0.05)
        policy = RecoveryPolicy(speculation=True,
                                speculation_interval_s=0.05)
        ctx = AnalyticsContext(cluster, engine=engine, recovery=policy)
        expected = sorted(sort_records(
            AnalyticsContext(dfs_sort_cluster(), engine=engine)))
        records = sort_records(ctx)
        assert sorted(records) == expected
        assert len(ctx.metrics.speculations) >= 1
        job_id = ctx.last_result.job_id
        speculative = [a.attrs for a in ctx.metrics.attempts
                       if a.attrs["job_id"] == job_id
                       and a.attrs.get("speculative", False)]
        assert speculative
        # The losing attempt of each race was killed, not failed.
        assert all(a["outcome"] in ("success", "killed")
                   for a in speculative)


def wrap_task_body(ctx, body):
    """Run every task attempt through ``body(work, machine, run)``,
    where ``run`` is the engine's own task body."""
    run = ctx.engine.run_task_on_machine
    ctx.engine.run_task_on_machine = \
        lambda work, machine: body(work, machine, run)


def observe_registrations(ctx):
    """The sim times of every ``register_map_output`` call."""
    registry = ctx.engine.map_outputs
    register = registry.register_map_output
    times = []

    def observed(*args):
        times.append(ctx.engine.env.now)
        register(*args)
    registry.register_map_output = observed
    return times


def sleep_through_interrupts(env, seconds):
    """Wait ``seconds``, ignoring interrupts: an attempt that outlives
    its job."""
    wake = env.now + seconds
    while env.now < wake:
        try:
            yield env.timeout(wake - env.now)
        except Interrupted:
            pass


@pytest.mark.parametrize("engine", ENGINES)
class TestAttemptsOutlivingTheirJob:
    """A job's map outputs and task states end with it; an attempt still
    running then may finish, but it publishes nothing."""

    def test_late_speculation_loser_registers_nothing(self, engine):
        ctx = AnalyticsContext(hdd_cluster(num_machines=4), engine=engine)
        env, pool = ctx.engine.env, ctx.engine.pool
        held = []

        def body(work, machine, run):
            out_disk = yield from run(work, machine)
            descriptor = work.descriptor
            if isinstance(descriptor.output, ShuffleOutput) and not held:
                # Finished, but not yet committed: a copy elsewhere wins
                # the race and the job ends while this loser still runs.
                held.append(descriptor.task_id)
                assert pool.speculate(descriptor.task_id)
                yield from sleep_through_interrupts(env, 100.0)
            return out_disk

        wrap_task_body(ctx, body)
        registered = observe_registrations(ctx)
        assert word_count(ctx) == word_count(
            AnalyticsContext(hdd_cluster(num_machines=4), engine=engine))
        job_end = env.now
        # The loser's state and the job's map outputs stay while it runs.
        assert list(pool._states) == held
        assert list(ctx.engine.map_outputs.shuffle_ids())
        env.run(until=job_end + 200.0)
        assert registered and max(registered) <= job_end
        assert pool._states == {}
        assert list(ctx.engine.map_outputs.shuffle_ids()) == []

    def test_failed_jobs_late_attempt_commits_nothing(self, engine):
        ctx = AnalyticsContext(hdd_cluster(num_machines=4), engine=engine)
        env = ctx.engine.env

        def body(work, machine, run):
            descriptor = work.descriptor
            if isinstance(descriptor.output, ShuffleOutput):
                if descriptor.index == 0:
                    raise ExecutionError("injected map failure")
                if descriptor.index == 1:
                    # Still running when map 0 runs out of attempts.
                    yield env.timeout(100.0)
            return (yield from run(work, machine))

        wrap_task_body(ctx, body)
        registered = observe_registrations(ctx)
        with pytest.raises(TaskFailedError):
            word_count(ctx)
        job_end = env.now
        assert job_end < 100.0
        env.run(until=200.0)
        late = [a.attrs for a in ctx.metrics.attempts if a.end > job_end]
        assert [(a["task_index"], a["outcome"]) for a in late] == \
            [(1, "success")]
        assert registered and max(registered) <= job_end
        assert ctx.engine.pool._states == {}
        assert list(ctx.engine.map_outputs.shuffle_ids()) == []

    def test_failed_jobs_late_retry_still_reads_its_shuffle(self, engine):
        ctx = AnalyticsContext(hdd_cluster(num_machines=4), engine=engine)
        env = ctx.engine.env
        tries = {}

        def body(work, machine, run):
            descriptor = work.descriptor
            if not isinstance(descriptor.output, ShuffleOutput):
                tries[descriptor.index] = tries.get(descriptor.index, 0) + 1
                if descriptor.index == 0:
                    raise ExecutionError("injected reduce failure")
                if descriptor.index == 1 and tries[1] == 1:
                    # Fails after the job did, so its retry is
                    # dispatched, and resolves its input, after the end.
                    yield env.timeout(10.0)
                    raise ExecutionError("injected late failure")
            return (yield from run(work, machine))

        wrap_task_body(ctx, body)
        with pytest.raises(TaskFailedError):
            word_count(ctx)
        job_end = env.now
        env.run(until=200.0)
        retried = [a.attrs["outcome"] for a in ctx.metrics.attempts
                   if a.attrs["task_index"] == 1 and a.end > job_end
                   and a.attrs["stage_id"] == 0]
        # The retry reads the map outputs as before the job ended, and
        # finishes, but what it collected is not kept.
        assert retried == ["failed", "success"]
        assert ctx.engine._task_outputs == {}
        assert ctx.engine.pool._states == {}
        assert list(ctx.engine.map_outputs.shuffle_ids()) == []

    def test_failed_job_releases_in_memory_shuffle(self, engine):
        cluster = hdd_cluster(num_machines=4)
        ctx = AnalyticsContext(cluster, engine=engine,
                               shuffle_in_memory=True)
        before = [machine.memory.used for machine in cluster.machines]

        def body(work, machine, run):
            if not isinstance(work.descriptor.output, ShuffleOutput):
                raise ExecutionError("injected reduce failure")
            return (yield from run(work, machine))

        wrap_task_body(ctx, body)
        note = ctx.engine.note_in_memory_shuffle
        noted = []

        def observed(job_id, machine, nbytes):
            noted.append(nbytes)
            note(job_id, machine, nbytes)
        ctx.engine.note_in_memory_shuffle = observed
        with pytest.raises(TaskFailedError):
            word_count(ctx)
        # The map stage parked its buckets in worker memory; the failed
        # job must hand every byte back.
        assert len(noted) == 8 and sum(noted) > 1.0
        assert [machine.memory.used for machine in cluster.machines] == \
            pytest.approx(before, abs=1.0)
