"""The disks' and the network's completion logs, and the memory
pools' timelines.

Each completion log is the machine-level observation the Spark-based
models read (§6.6): one ``(time, bytes, kind)`` entry per finished disk
request and one ``(time, bytes, dst, src)`` entry per delivered flow, in
completion order.  The hypothesis tests check the logs and their
windowed reads against a list-of-tuples reference fed from the
requests' own completion events; the pins fix the logs of two seeded
engine runs, bit for bit.  A memory pool's timeline is one ``(time,
used)`` point per instant its usage changed, the last change at that
instant; it too is checked against a list-of-tuples reference.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.api import AnalyticsContext
from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import GB, HDD, MB, SSD
from repro.simulator import Disk, Environment, MemoryPool, Network
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort)

delays = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
sizes = st.one_of(st.just(0.0), st.floats(0.0, 64.0).map(lambda x: x * MB))


disk_requests = (st.sampled_from([HDD, SSD]),
                 st.lists(st.tuples(delays, sizes, st.sampled_from(
                     ["read", "write"])), min_size=1, max_size=40))
network_flows = st.lists(st.tuples(delays, st.integers(0, 3),
                                   st.integers(0, 3), sizes),
                         min_size=1, max_size=40)


def run_disk(spec, requests):
    """Serve ``requests`` on one disk; return it, the reference log
    (appended as each request's completion event is processed) and the
    end time."""
    env = Environment()
    disk = Disk(env, spec)
    reference = []

    def submit(nbytes, kind):
        done = disk.submit(nbytes, kind)
        if nbytes > 0:
            done.callbacks.append(lambda _: reference.append(
                (env.now, float(nbytes), kind)))
        return done

    def proc():
        events = []
        for delay, nbytes, kind in requests:
            yield env.timeout(delay)
            events.append(submit(nbytes, kind))
        yield env.all_of(events)

    env.run(until=env.process(proc()))
    return disk, reference, env.now


def run_network(flows):
    """Deliver ``flows`` over four machines; return the network, the
    reference log and the end time."""
    env = Environment()
    net = Network(env)
    for machine in range(4):
        net.register_machine(machine, 100 * MB, 100 * MB)
    reference = []

    def transfer(src, dst, nbytes):
        done = net.transfer(src, dst, nbytes)
        done.callbacks.append(lambda _: reference.append(
            (env.now, float(nbytes), dst, src)))
        return done

    def proc():
        events = []
        for delay, src, dst, nbytes in flows:
            yield env.timeout(delay)
            events.append(transfer(src, dst, nbytes))
        yield env.all_of(events)

    env.run(until=env.process(proc()))
    return net, reference, env.now


memory_steps = st.lists(st.tuples(delays, st.booleans(), sizes),
                        min_size=1, max_size=40)


def run_memory(steps):
    """Acquire, or release the latest held amount, after each delay;
    return the pool and the reference timeline, noted after each step."""
    env = Environment()
    pool = MemoryPool(env, capacity_bytes=1 * GB)
    reference = [(0.0, 0.0)]
    held = []

    def proc():
        for delay, release, nbytes in steps:
            yield env.timeout(delay)
            if release and held:
                pool.release(held.pop())
            else:
                pool.acquire(nbytes)
                held.append(nbytes)
            point = (env.now, pool.used)
            if reference[-1][0] == env.now:
                reference[-1] = point
            else:
                reference.append(point)

    env.run(until=env.process(proc()))
    return pool, reference


def window_bounds(reference, now):
    """Every logged time plus both ends of the run, sorted."""
    return sorted({entry[0] for entry in reference} | {0.0, now})


class TestDiskLogModel:
    @settings(max_examples=150, deadline=None)
    @given(*disk_requests)
    def test_matches_reference(self, spec, requests):
        # Zero delays submit several requests at one instant, and equal
        # sizes on the SSD finish several at one instant: the log keeps
        # every entry, in completion order.
        disk, reference, _ = run_disk(spec, requests)
        assert disk.transfer_log == reference
        assert all(type(entry) is tuple for entry in disk.transfer_log)

    @settings(max_examples=100, deadline=None)
    @given(*disk_requests)
    def test_windows_match_reference(self, spec, requests):
        # Windows are closed on both ends; bounds sit on logged times.
        disk, reference, now = run_disk(spec, requests)
        times = window_bounds(reference, now)
        for start in times:
            for end in times:
                assert list(disk.completed_bytes(start, end)) == [
                    nbytes for when, nbytes, _ in reference
                    if start <= when <= end]


class TestNetworkLogModel:
    @settings(max_examples=150, deadline=None)
    @given(network_flows)
    def test_matches_reference(self, flows):
        # Local and empty flows pay only the latency; flows launched at
        # one instant and equal flows on one pair land together.
        net, reference, _ = run_network(flows)
        assert net.completion_log == reference
        assert all(type(entry) is tuple for entry in net.completion_log)

    @settings(max_examples=100, deadline=None)
    @given(network_flows)
    def test_windows_match_reference(self, flows):
        net, reference, now = run_network(flows)
        times = window_bounds(reference, now)
        for dst in range(4):
            for start in times:
                for end in times:
                    assert net.delivered_bytes(dst, start, end) == [
                        nbytes for when, nbytes, to, _ in reference
                        if to == dst and start <= when <= end]


class TestMemoryTimelineModel:
    @settings(max_examples=150, deadline=None)
    @given(memory_steps)
    def test_matches_reference(self, steps):
        # Zero delays change usage several times at one instant: the
        # timeline keeps the last.
        pool, reference = run_memory(steps)
        assert pool.timeline == reference
        assert all(type(point) is tuple for point in pool.timeline)


def _seeded_run(cluster, engine):
    workload = SortWorkload(total_bytes=1.5 * GB, values_per_key=10,
                            num_map_tasks=24, num_reduce_tasks=12)
    generate_sort_input(cluster, workload, seed=7)
    run_sort(AnalyticsContext(cluster, engine=engine), workload)
    return cluster


def _digest(cluster):
    logs = [list(disk.transfer_log) for machine in cluster.machines
            for disk in machine.disks]
    logs.append(list(cluster.network.completion_log))
    return hashlib.sha256(repr(logs).encode()).hexdigest()


class TestSeededLogs:
    """Both logs of two seeded runs, pinned as sha256 of their reprs."""

    def test_spark_on_hdd(self):
        cluster = _seeded_run(hdd_cluster(num_machines=3, seed=7), "spark")
        assert _digest(cluster) == SPARK_HDD_SHA256

    def test_monospark_on_ssd(self):
        cluster = _seeded_run(ssd_cluster(num_machines=3, seed=7),
                              "monospark")
        assert _digest(cluster) == MONOSPARK_SSD_SHA256


SPARK_HDD_SHA256 = (
    "cbac4497121f01729457eee0bdf45e05b71aa66e8c189d51d349545ce0bb1dc5")
MONOSPARK_SSD_SHA256 = (
    "be3907953d5185aaa7623b676a5d115ba0baeedd2d33416c13a93c4aeea7c54b")
