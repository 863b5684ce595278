"""Tests for the §8 'opportunities' implemented as optional features."""

import pytest

from repro import AnalyticsContext, MB
from repro.api.ops import OpCost
from repro.cluster import hdd_cluster
from repro.datamodel import Partition
from repro.errors import ConfigError
from repro.monospark.engine import MonoSparkEngine


def dfs_cluster(blocks=16, block_mb=64, machines=1, **overrides):
    cluster = hdd_cluster(num_machines=machines, **overrides)
    payloads = [Partition.from_records([(i, i)], record_count=1,
                                       data_bytes=block_mb * MB)
                for i in range(blocks)]
    cluster.dfs.create_file("input", payloads, [block_mb * MB] * blocks)
    return cluster


class TestShortestQueueWritePolicy:
    def test_policy_validated(self):
        with pytest.raises(ConfigError):
            MonoSparkEngine(hdd_cluster(num_machines=1),
                            write_disk_policy="random")

    def test_shortest_queue_balances_loaded_disks(self):
        """With one disk busy serving reads, writes go to the other."""
        cluster = dfs_cluster(blocks=16)
        # Pin every block replica to disk 0 so reads hammer it.
        for block in cluster.dfs.get_file("input").blocks:
            block.replicas = [(0, 0)]
        ctx = AnalyticsContext(cluster, engine="monospark",
                               write_disk_policy="shortest_queue")
        ctx.text_file("input").save_as_text_file("out")
        disk0, disk1 = cluster.machine(0).disks
        # The loaded disk received fewer of the output writes.
        assert disk1.bytes_written > disk0.bytes_written

    def test_shortest_queue_not_slower(self):
        def run(policy):
            cluster = dfs_cluster(blocks=16)
            for block in cluster.dfs.get_file("input").blocks:
                block.replicas = [(0, 0)]
            ctx = AnalyticsContext(cluster, engine="monospark",
                                   write_disk_policy=policy)
            ctx.text_file("input").save_as_text_file("out")
            return ctx.last_result.duration

        assert run("shortest_queue") <= run("round_robin") * 1.01


class TestMemoryPressureWritePriority:
    def test_fraction_validated(self):
        with pytest.raises(ConfigError):
            MonoSparkEngine(hdd_cluster(num_machines=1),
                            memory_pressure_fraction=0.0)

    def test_pressure_predicate(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(
            cluster, prioritize_writes_under_memory_pressure=True,
            memory_pressure_fraction=0.5)
        worker = engine.workers[0]
        assert not worker.memory_pressure()
        cluster.machine(0).memory.acquire(
            cluster.machine(0).memory.capacity * 0.6)
        assert worker.memory_pressure()

    def test_writes_prioritized_under_pressure(self):
        """Under pressure the disk scheduler serves write phases first."""
        from repro.monospark.monotask import Monotask
        from repro.monospark.schedulers import ResourceScheduler
        from repro.simulator import Environment

        class Fake(Monotask):
            def __init__(self, env, phase, log):
                self.env, self.phase, self.log = env, phase, log
                self.deps, self.done = [], env.event()
                self.submitted_at = self.started_at = None

            def execute(self):
                yield self.env.timeout(1.0)

            def record(self):
                self.log.append(self.phase)

        env = Environment()
        log = []
        pressured = {"on": True}
        scheduler = ResourceScheduler(
            env, 1, "d", prefer_phases_when=(lambda: pressured["on"],
                                             "write"))
        scheduler.submit(Fake(env, "input_read", log))   # runs first
        for _ in range(2):
            scheduler.submit(Fake(env, "input_read", log))
        for _ in range(2):
            scheduler.submit(Fake(env, "shuffle_write", log))
        env.run()
        # Both writes drained before the queued reads.
        assert log[1] == "shuffle_write"
        assert log[2] == "shuffle_write"

    def test_engine_runs_with_pressure_priority(self):
        cluster = dfs_cluster(blocks=8)
        ctx = AnalyticsContext(
            cluster, engine="monospark",
            prioritize_writes_under_memory_pressure=True,
            memory_pressure_fraction=0.01)  # always under pressure
        ctx.text_file("input").save_as_text_file("out")
        assert ctx.last_result.duration > 0
