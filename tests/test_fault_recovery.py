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
from repro.cluster import hdd_cluster
from repro.config import MB
from repro.datamodel import Partition
from repro.errors import PlanError
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
