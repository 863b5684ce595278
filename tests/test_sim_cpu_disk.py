"""Unit tests for the CPU pool and disk models."""

import pytest

from repro.config import HDD, MB, SSD, DiskSpec
from repro.errors import SimulationError
from repro.simulator import CpuPool, Disk, Environment


class TestCpuPool:
    def test_single_slice_takes_duration(self):
        env = Environment()
        pool = CpuPool(env, cores=4)
        env.run(until=pool.run(2.5))
        assert env.now == 2.5

    def test_parallelism_up_to_cores(self):
        env = Environment()
        pool = CpuPool(env, cores=2)
        done = env.all_of([pool.run(10.0) for _ in range(4)])
        env.run(until=done)
        # 4 slices of 10s on 2 cores: two waves.
        assert env.now == pytest.approx(20.0)

    def test_busy_time_tracked(self):
        env = Environment()
        pool = CpuPool(env, cores=2)
        env.run(until=env.all_of([pool.run(10.0) for _ in range(4)]))
        assert pool.tracker.busy_time() == pytest.approx(40.0)
        assert pool.tracker.utilization() == pytest.approx(1.0)
        assert pool.total_busy_s == pytest.approx(40.0)

    def test_fifo_admission(self):
        env = Environment()
        pool = CpuPool(env, cores=1)
        finishes = []
        for tag in range(3):
            pool.run(1.0).add_callback(
                lambda e, tag=tag: finishes.append((tag, env.now)))
        env.run()
        assert finishes == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_zero_duration_slice(self):
        env = Environment()
        pool = CpuPool(env, cores=1)
        env.run(until=pool.run(0.0))
        assert env.now == 0.0

    def test_negative_duration_rejected(self):
        env = Environment()
        pool = CpuPool(env, cores=1)
        with pytest.raises(SimulationError):
            pool.run(-1.0)

    def test_slice_prices_like_run(self):
        finishes = {}
        for form in ("run", "slice"):
            env = Environment()
            pool = CpuPool(env, cores=2, speed_factor=0.5)
            slices = [getattr(pool, form)(d) for d in (1.0, 2.0, 3.0)]
            env.run(until=env.all_of(slices))
            finishes[form] = env.now
            assert pool.total_busy_s == pytest.approx(12.0)
            assert pool.tracker.busy_time() == pytest.approx(12.0)
            assert pool.cores_in_use == 0 and pool.tracker.busy == 0
        assert finishes["slice"] == finishes["run"] == pytest.approx(8.0)

    def test_negative_slice_rejected(self):
        env = Environment()
        pool = CpuPool(env, cores=1)
        with pytest.raises(SimulationError):
            pool.slice(-1.0)
        assert pool.cores_in_use == 0 and env.queue_size == 0


class TestHddModel:
    def test_sequential_read_at_full_throughput(self):
        env = Environment()
        disk = Disk(env, HDD)
        nbytes = 100 * MB
        env.run(until=disk.read(nbytes))
        expected = HDD.seek_time_s + nbytes / HDD.throughput_bps
        assert env.now == pytest.approx(expected, rel=1e-6)
        assert disk.seeks == 1

    def test_two_concurrent_streams_pay_seeks(self):
        env = Environment()
        spec = DiskSpec(kind="hdd", throughput_bps=100 * MB,
                        seek_time_s=0.008, interleave_bytes=1 * MB)
        disk = Disk(env, spec)
        nbytes = 50 * MB
        done = env.all_of([disk.read(nbytes), disk.read(nbytes)])
        env.run(until=done)
        sequential = 2 * nbytes / spec.throughput_bps
        # Interleaving at 1 MB granularity costs a seek per chunk switch.
        chunks = 2 * nbytes / spec.interleave_bytes
        expected = sequential + chunks * spec.seek_time_s
        assert env.now == pytest.approx(expected, rel=0.01)
        # Effective throughput roughly halves vs. sequential access.
        assert env.now > 1.7 * sequential

    def test_one_stream_then_another_single_seek_each(self):
        env = Environment()
        disk = Disk(env, HDD)

        def proc():
            yield disk.read(10 * MB)
            yield disk.read(10 * MB)

        env.run(until=env.process(proc()))
        assert disk.seeks == 2

    def test_write_accounting(self):
        env = Environment()
        disk = Disk(env, HDD)
        env.run(until=disk.write(5 * MB))
        assert disk.bytes_written == 5 * MB
        assert disk.bytes_read == 0

    def test_zero_byte_request_completes_instantly(self):
        env = Environment()
        disk = Disk(env, HDD)
        env.run(until=disk.read(0))
        assert env.now == 0.0

    def test_invalid_kind_rejected(self):
        env = Environment()
        disk = Disk(env, HDD)
        with pytest.raises(SimulationError):
            disk.submit(10, "append")

    def test_utilization_tracked(self):
        env = Environment()
        disk = Disk(env, HDD)
        env.run(until=disk.read(100 * MB))
        busy_end = env.now
        env.timeout(busy_end)  # idle for as long again
        env.run()
        assert disk.tracker.utilization() == pytest.approx(0.5, abs=0.01)


class TestSsdModel:
    def test_single_stream_capped_below_device_rate(self):
        env = Environment()
        disk = Disk(env, SSD)
        nbytes = 45 * MB
        env.run(until=disk.read(nbytes))
        per_stream = SSD.throughput_bps / SSD.max_concurrency
        expected = nbytes / per_stream
        assert env.now == pytest.approx(expected, rel=0.02)

    def test_four_streams_reach_aggregate_rate(self):
        env = Environment()
        disk = Disk(env, SSD)
        nbytes = 45 * MB
        env.run(until=env.all_of([disk.read(nbytes) for _ in range(4)]))
        expected = 4 * nbytes / SSD.throughput_bps
        assert env.now == pytest.approx(expected, rel=0.02)

    def test_eight_streams_share_device_rate(self):
        env = Environment()
        disk = Disk(env, SSD)
        nbytes = 45 * MB
        env.run(until=env.all_of([disk.read(nbytes) for _ in range(8)]))
        expected = 8 * nbytes / SSD.throughput_bps
        assert env.now == pytest.approx(expected, rel=0.02)

    def test_staggered_streams_rebalance(self):
        env = Environment()
        spec = DiskSpec(kind="ssd", throughput_bps=400 * MB, seek_time_s=0.0,
                        max_concurrency=2)
        disk = Disk(env, spec)
        finish_times = {}

        def submit(tag, delay, nbytes):
            yield env.timeout(delay)
            yield disk.read(nbytes)
            finish_times[tag] = env.now

        # Stream A alone at 200 MB/s cap; B joins later, both still 200 MB/s.
        env.process(submit("a", 0.0, 200 * MB))
        env.process(submit("b", 0.5, 100 * MB))
        env.run()
        assert finish_times["a"] == pytest.approx(1.0, abs=0.02)
        assert finish_times["b"] == pytest.approx(1.0, abs=0.02)


class TestDiskHelpers:
    def test_time_to_serve(self):
        env = Environment()
        disk = Disk(env, HDD)
        assert disk.time_to_serve(100 * MB) == pytest.approx(
            HDD.seek_time_s + 100 * MB / HDD.throughput_bps)

    def test_queue_length(self):
        env = Environment()
        disk = Disk(env, HDD)
        disk.read(10 * MB)
        disk.read(10 * MB)
        assert disk.queue_length >= 2
        env.run()
        assert disk.queue_length == 0
