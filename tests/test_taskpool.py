"""Unit tests for the locality-aware task pool."""

import pytest

from repro.api.plan import CollectOutput, LocalInput, TaskDescriptor
from repro.cluster import hdd_cluster
from repro.datamodel import Partition
from repro.engine.base import TaskPool
from repro.errors import ExecutionError
from repro.metrics import MetricsCollector


def make_pool(cluster, concurrency, policy="fifo", task_time=1.0):
    placements = []

    def run_task(task, machine, trace):
        placements.append((task.task_id, machine.machine_id))
        yield cluster.env.timeout(task_time)

    def recover(error):
        # No lineage to re-run: the pool retries at once.
        yield from ()

    pool = TaskPool(cluster.env, cluster.machines,
                    {m.machine_id: concurrency for m in cluster.machines},
                    run_task, MetricsCollector(), recover, policy=policy)
    return pool, placements


def descriptor(index, job=0, preferred=None):
    return TaskDescriptor(job_id=job, stage_id=0, index=index,
                          input=LocalInput(Partition.empty()), chain=[],
                          output=CollectOutput(),
                          preferred_machines=preferred or [])


class TestPlacement:
    def test_respects_locality(self):
        cluster = hdd_cluster(num_machines=3)
        pool, placements = make_pool(cluster, concurrency=2)
        for index, machine in enumerate([2, 0, 1]):
            pool.submit(descriptor(index, preferred=[machine]))
        cluster.env.run()
        assert [m for _, m in placements] == [2, 0, 1]

    def test_balances_unconstrained_tasks(self):
        cluster = hdd_cluster(num_machines=4)
        pool, placements = make_pool(cluster, concurrency=2)
        for index in range(8):
            pool.submit(descriptor(index))
        cluster.env.run()
        per_machine = {}
        for _, machine in placements:
            per_machine[machine] = per_machine.get(machine, 0) + 1
        assert set(per_machine.values()) == {2}

    def test_spills_to_remote_when_preferred_full(self):
        cluster = hdd_cluster(num_machines=2)
        pool, placements = make_pool(cluster, concurrency=1)
        for index in range(2):
            pool.submit(descriptor(index, preferred=[0]))
        cluster.env.run(until=0.5)
        # Machine 0 has one slot; the second task ran remotely at t=0.
        assert sorted(m for _, m in placements) == [0, 1]

    def test_queueing_when_all_slots_busy(self):
        cluster = hdd_cluster(num_machines=1)
        pool, placements = make_pool(cluster, concurrency=2)
        events = [pool.submit(descriptor(i)) for i in range(5)]
        cluster.env.run(until=cluster.env.all_of(events))
        # 5 tasks, 2 slots, 1 s each -> 3 waves.
        assert cluster.env.now == pytest.approx(3.0)

    def test_invalid_policy(self):
        cluster = hdd_cluster(num_machines=1)
        with pytest.raises(ExecutionError):
            make_pool(cluster, concurrency=1, policy="lottery")


class TestFairOrdering:
    def test_round_robin_across_jobs(self):
        cluster = hdd_cluster(num_machines=1)
        pool, placements = make_pool(cluster, concurrency=1, policy="fair")
        # Job 0 floods first, then job 1 arrives.
        for index in range(4):
            pool.submit(descriptor(index, job=0))
        for index in range(2):
            pool.submit(descriptor(index, job=1))
        cluster.env.run()
        order = [task_id.split("s")[0] for task_id, _ in placements]
        # After the first task, jobs alternate while both have work.
        assert "j1" in order[1:4]

    def test_fifo_keeps_submission_order(self):
        cluster = hdd_cluster(num_machines=1)
        pool, placements = make_pool(cluster, concurrency=1, policy="fifo")
        for index in range(3):
            pool.submit(descriptor(index, job=0))
        pool.submit(descriptor(0, job=1))
        cluster.env.run()
        assert [task_id for task_id, _ in placements] == [
            "j0s0t0", "j0s0t1", "j0s0t2", "j1s0t0"]
