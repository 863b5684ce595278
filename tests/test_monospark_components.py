"""Unit tests for MonoSpark's internal components."""

import pytest

from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import HDD, SSD, MB
from repro.datasvc import DataService
from repro.datasvc.monotasks import DataSvcFetchMonotask, DataSvcPutMonotask
from repro.errors import Interrupted, SimulationError
from repro.metrics.events import (PHASE_COMPUTE, PHASE_DATASVC_READ,
                                  PHASE_DATASVC_WRITE, PHASE_INPUT_READ)
from repro.monospark.engine import MonoSparkEngine
from repro.monospark.localdag import DagShape, LocalDagScheduler
from repro.monospark.monotask import ComputeMonotask, DiskMonotask, Monotask
from repro.monospark.assignment import multitask_concurrency
from repro.monospark.schedulers import ResourceScheduler
from repro.simulator import Environment


class FakeMonotask(Monotask):
    """Minimal monotask for scheduler tests (inherits ``start``)."""

    def __init__(self, env, phase, duration, log):
        self.env = env
        self.phase = phase
        self.duration = duration
        self.log = log
        self.deps = []
        self.done = env.event()
        self.submitted_at = None
        self.started_at = None

    def execute(self):
        yield self.env.timeout(self.duration)

    def record(self):
        self.log.append((self.phase, self.started_at, self.env.now))


class TestResourceScheduler:
    def test_respects_concurrency_limit(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=2, name="test")
        for _ in range(4):
            scheduler.submit(FakeMonotask(env, "a", 10.0, log))
        env.run()
        # Two waves of two.
        starts = sorted(start for _, start, _ in log)
        assert starts == [0.0, 0.0, 10.0, 10.0]
        assert scheduler.completed == 4

    def test_round_robin_alternates_phases(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=1, name="test")
        # Queue 3 reads then 3 writes while one task runs.
        for _ in range(3):
            scheduler.submit(FakeMonotask(env, "read", 1.0, log))
        for _ in range(3):
            scheduler.submit(FakeMonotask(env, "write", 1.0, log))
        env.run()
        phases = [phase for phase, _, _ in log]
        # First read runs immediately; thereafter phases alternate.
        assert phases[0] == "read"
        assert "write" in phases[1:3]  # writes are not starved
        alternations = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
        assert alternations >= 3

    def test_fifo_mode_preserves_order(self):
        env = Environment()
        log = []
        scheduler = ResourceScheduler(env, concurrency=1, name="test",
                                      round_robin_phases=False)
        for phase in ("read", "read", "write", "read"):
            scheduler.submit(FakeMonotask(env, phase, 1.0, log))
        env.run()
        assert [phase for phase, _, _ in log] == ["read", "read", "write",
                                                  "read"]

    def test_queue_length_visible(self):
        env = Environment()
        scheduler = ResourceScheduler(env, concurrency=1, name="test")
        for _ in range(5):
            scheduler.submit(FakeMonotask(env, "x", 1.0, []))
        assert scheduler.queue_length == 4
        assert scheduler.max_queue_length == 4
        env.run()
        assert scheduler.queue_length == 0

    def test_invalid_concurrency(self):
        with pytest.raises(SimulationError):
            ResourceScheduler(Environment(), concurrency=0, name="bad")


class TestLocalDagScheduler:
    def make(self, env):
        routed = []
        scheduler = LocalDagScheduler(env, route=lambda m: routed.append(m))
        return scheduler, routed

    def test_dependency_ordering(self):
        env = Environment()
        log = []
        a = FakeMonotask(env, "a", 1.0, log)
        b = FakeMonotask(env, "b", 1.0, log)
        b.deps.append(a)
        order = []
        scheduler = LocalDagScheduler(env, route=lambda m: order.append(m))
        done = scheduler.submit_multitask([a, b], DagShape.of([a, b]))
        # Only the dependency-free monotask is routed initially.
        assert order == [a]
        a.done.succeed()
        env.step()  # deliver the completion callback
        assert order == [a, b]
        b.done.succeed()
        env.run(until=done)

    def test_diamond_dependencies(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        b = FakeMonotask(env, "b", 1.0, [])
        c = FakeMonotask(env, "c", 1.0, [])
        d = FakeMonotask(env, "d", 1.0, [])
        b.deps.append(a)
        c.deps.append(a)
        d.deps.extend([b, c])
        order = []
        scheduler = LocalDagScheduler(env, route=lambda m: order.append(m))
        scheduler.submit_multitask([a, b, c, d],
                                   DagShape.of([a, b, c, d]))
        a.done.succeed()
        env.step()
        assert set(order[1:]) == {b, c}
        b.done.succeed()
        env.step()
        assert d not in order
        c.done.succeed()
        env.step()
        assert order[-1] is d

    def test_cycle_detected(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        b = FakeMonotask(env, "b", 1.0, [])
        a.deps.append(b)
        b.deps.append(a)
        with pytest.raises(SimulationError, match="cycle"):
            DagShape.of([a, b])

    def test_empty_multitask_rejected(self):
        scheduler = LocalDagScheduler(Environment(), route=lambda m: None)
        with pytest.raises(SimulationError):
            scheduler.submit_multitask([], DagShape([]))

    def test_shape_must_fit_the_multitask(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        scheduler = LocalDagScheduler(env, route=lambda m: None)
        with pytest.raises(SimulationError, match="shape"):
            scheduler.submit_multitask([a], DagShape([[], [0]]))

    def test_dependency_outside_multitask_rejected(self):
        env = Environment()
        a = FakeMonotask(env, "a", 1.0, [])
        b = FakeMonotask(env, "b", 1.0, [])
        b.deps.append(a)
        with pytest.raises(SimulationError, match="outside"):
            DagShape.of([b])


class TestAssignmentRule:
    def test_paper_example(self):
        """4 cores + 1 HDD + 4 network + 1 extra = 10 (§3.4)."""
        cluster = hdd_cluster(num_machines=1, num_disks=1, cores=4)
        machine = cluster.machine(0)
        concurrency = multitask_concurrency(
            machine, network_limit=4, disk_concurrency=lambda spec: 1)
        assert concurrency == 10

    def test_ssd_counts_flash_concurrency(self):
        cluster = ssd_cluster(num_machines=1, num_disks=2, cores=8)
        machine = cluster.machine(0)
        concurrency = multitask_concurrency(
            machine, network_limit=4,
            disk_concurrency=lambda spec: 4 if spec.max_concurrency > 1
            else 1)
        assert concurrency == 8 + 8 + 4 + 1

    def test_engine_uses_rule(self):
        cluster = hdd_cluster(num_machines=1, cores=8, num_disks=2)
        engine = MonoSparkEngine(cluster)
        assert engine.concurrency_for(cluster.machine(0)) == 8 + 2 + 4 + 1

    def test_override(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster, concurrency_override=3)
        assert engine.concurrency_for(cluster.machine(0)) == 3


class TestMonotaskExecution:
    def test_compute_monotask_charges_cpu(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        monotask = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0),
                                   deserialize_s=1.0, op_s=2.0,
                                   serialize_s=0.5)
        assert monotask.seconds == 3.5
        worker.compute_scheduler.submit(monotask)
        cluster.env.run(until=monotask.done)
        assert cluster.env.now == pytest.approx(3.5)
        assert cluster.machine(0).cpu.total_busy_s == pytest.approx(3.5)

    def test_negative_compute_slice_rejected(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        monotask = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0),
                                   op_s=-1.0)
        with pytest.raises(SimulationError,
                           match="negative compute duration"):
            worker.compute_scheduler.submit(monotask)
        assert cluster.machine(0).cpu.total_busy_s == 0.0

    def test_disk_monotask_is_write_through(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        monotask = DiskMonotask(worker, PHASE_INPUT_READ, (0, 0, 0),
                                disk_index=0, nbytes=130 * MB, kind="write")
        worker.disk_schedulers[0].submit(monotask)
        cluster.env.run(until=monotask.done)
        disk = cluster.machine(0).disks[0]
        assert disk.bytes_written == 130 * MB
        # Write-through: the data hit the platter, not the buffer cache.
        assert cluster.machine(0).cache.dirty_bytes == 0
        assert cluster.env.now >= 1.0

    def test_monotask_records_queue_time(self):
        cluster = hdd_cluster(num_machines=1, cores=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        first = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0), op_s=2.0)
        second = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 1), op_s=1.0)
        worker.compute_scheduler.submit(first)
        worker.compute_scheduler.submit(second)
        cluster.env.run()
        records = engine.metrics.monotasks
        assert records[0].queue_s == pytest.approx(0.0)
        assert records[1].queue_s == pytest.approx(2.0)


class TestCrashCharacterization:
    """What ``ResourceScheduler.fail_all`` does to executing monotasks.

    The monotask fails at the crash instant, but the hardware request it
    issued is abandoned rather than cancelled: the core or disk stays
    busy until the request would have finished.
    """

    def start_pair(self):
        cluster = hdd_cluster(num_machines=1)
        engine = MonoSparkEngine(cluster)
        worker = engine.workers[0]
        compute = ComputeMonotask(worker, PHASE_COMPUTE, (0, 0, 0),
                                  op_s=10.0)
        read = DiskMonotask(worker, PHASE_INPUT_READ, (0, 0, 0),
                            disk_index=0, nbytes=400 * MB, kind="read")
        outcomes = {}
        for monotask in (compute, read):
            def settle(event, monotask=monotask):
                event.defused = True
                outcomes[monotask] = (engine.env.now, event.ok, event.value)
            monotask.done.add_callback(settle)
            worker.submit_ready(monotask)
        engine.env.run(until=1.0)
        cpu = worker.machine.cpu
        disk = worker.machine.disks[0]
        assert cpu.cores_in_use == 1 and disk.queue_length == 1
        return engine, worker, compute, read, outcomes

    def assert_killed(self, outcomes, monotask):
        at, ok, value = outcomes[monotask]
        assert at == 1.0 and not ok
        assert isinstance(value, Interrupted)
        assert value.cause == "machine-crash"

    def test_scheduler_crash_abandons_running_requests(self):
        engine, worker, compute, read, outcomes = self.start_pair()
        env = engine.env
        cpu = worker.machine.cpu
        disk = worker.machine.disks[0]
        worker.fail_all()
        env.run(until=5.0)
        self.assert_killed(outcomes, compute)
        self.assert_killed(outcomes, read)
        # The abandoned requests still hold their core and disk.
        assert cpu.cores_in_use == 1 and cpu.tracker.busy == 1
        env.run()  # no undefused failure escapes
        assert cpu.cores_in_use == 0 and cpu.tracker.busy == 0
        assert cpu.total_busy_s == 10.0
        assert cpu.tracker.busy_time(0.0, env.now) == 10.0
        assert disk.queue_length == 0 and disk.bytes_read == 400 * MB
        assert disk.tracker.busy_time(0.0, env.now) == pytest.approx(
            disk.time_to_serve(400 * MB))
        assert env.queue_size == 0
        for scheduler in worker._all_schedulers():
            assert scheduler.running == 0 and scheduler.queue_length == 0
        assert len(engine.metrics.monotasks) == 0

    def test_machine_crash_fails_the_disk_request_quietly(self):
        engine, worker, compute, read, outcomes = self.start_pair()
        env = engine.env
        engine.crash_machine(0)
        env.run()  # the disk's own failure is absorbed, not raised
        self.assert_killed(outcomes, compute)
        self.assert_killed(outcomes, read)
        assert worker.machine.cpu.total_busy_s == 10.0
        assert env.now == 10.0
        assert env.queue_size == 0
        assert len(engine.metrics.monotasks) == 0

    def test_crash_stops_data_service_calls(self):
        """A killed data-service put or fetch takes no further step: it
        stores and counts nothing, also once the machine restarts."""
        cluster = hdd_cluster(num_machines=1)
        service = DataService(cluster, num_nodes=2)
        engine = MonoSparkEngine(cluster, datasvc=service)
        worker = engine.workers[0]
        env = engine.env
        stored = DataSvcPutMonotask(worker, PHASE_DATASVC_WRITE, (0, 0, 0),
                                    service, block_id="b0", nbytes=64 * MB)
        worker.submit_ready(stored)
        env.run()  # the block is acked, replicated and drained
        counters = service.stats()
        put = DataSvcPutMonotask(worker, PHASE_DATASVC_WRITE, (0, 0, 1),
                                 service, block_id="b1", nbytes=0.0)
        fetch = DataSvcFetchMonotask(worker, PHASE_DATASVC_READ, (0, 0, 2),
                                     service, [("b0", 64 * MB)])
        outcomes = {}
        for monotask in (put, fetch):
            def settle(event, monotask=monotask):
                event.defused = True
                outcomes[monotask] = (env.now, event.ok, event.value)
            monotask.done.add_callback(settle)
            worker.submit_ready(monotask)
        crash_at = env.now + 0.0001  # inside the put's request latency
        env.run(until=crash_at)
        worker.fail_all()
        env.run(until=crash_at + 0.0001)
        worker.revive()
        env.run()  # no undefused failure escapes
        for monotask in (put, fetch):
            at, ok, value = outcomes[monotask]
            assert at == crash_at and not ok
            assert isinstance(value, Interrupted)
            assert value.cause == "machine-crash"
        after = service.stats()
        assert after["puts"] == counters["puts"] == 1
        assert after["fetches"] == counters["fetches"] == 0
        assert after["drains"] == counters["drains"]
        assert service.block_info("b1") is not None  # created, never acked
        assert service.primary_machine_id("b1") is None
        assert env.queue_size == 0
        assert worker.network_scheduler.running == 0
