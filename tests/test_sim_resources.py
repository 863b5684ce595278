"""Unit tests for Store, Semaphore, and BusyTracker."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulator import BusyTracker, Environment, Semaphore, Store


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc():
            yield store.put("a")
            item = yield store.get()
            return item

        assert env.run(until=env.process(proc())) == "a"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def consumer():
            item = yield store.get()
            return (item, env.now)

        def producer():
            yield env.timeout(3.0)
            yield store.put("x")

        consumer_proc = env.process(consumer())
        env.process(producer())
        assert env.run(until=consumer_proc) == ("x", 3.0)

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        received = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        def producer():
            for item in ("a", "b", "c"):
                yield store.put(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert received == ["a", "b", "c"]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer():
            yield env.timeout(5.0)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 5.0) in log  # blocked until the consumer drained one

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestSemaphore:
    def test_admits_up_to_units(self):
        env = Environment()
        sem = Semaphore(env, 2)
        starts = []

        def worker(tag):
            yield sem.acquire()
            starts.append((tag, env.now))
            yield env.timeout(10.0)
            sem.release()

        for tag in range(3):
            env.process(worker(tag))
        env.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 10.0)]

    def test_queue_length_visible(self):
        env = Environment()
        sem = Semaphore(env, 1)

        def worker():
            yield sem.acquire()
            yield env.timeout(1.0)
            sem.release()

        for _ in range(4):
            env.process(worker())
        env.run(until=0.5)
        assert sem.queue_length == 3
        assert sem.in_use == 1
        env.run()
        assert sem.queue_length == 0
        assert sem.in_use == 0

    def test_release_without_acquire_rejected(self):
        env = Environment()
        sem = Semaphore(env, 1)
        with pytest.raises(SimulationError):
            sem.release()


class TestBusyTracker:
    def test_busy_time_accumulates(self):
        env = Environment()
        tracker = BusyTracker(env, units=2)

        def proc():
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.remove(2)
            yield env.timeout(10.0)

        env.run(until=env.process(proc()))
        assert tracker.busy_time() == pytest.approx(10.0 + 20.0)
        assert tracker.utilization() == pytest.approx(30.0 / 60.0)

    def test_windowed_utilization(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)

        def proc():
            yield env.timeout(10.0)
            tracker.add(1)
            yield env.timeout(10.0)
            tracker.remove(1)
            yield env.timeout(10.0)

        env.run(until=env.process(proc()))
        assert tracker.utilization(0.0, 10.0) == pytest.approx(0.0)
        assert tracker.utilization(10.0, 20.0) == pytest.approx(1.0)
        assert tracker.utilization(5.0, 15.0) == pytest.approx(0.5)

    def test_tail_segment_counted(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        tracker.add(1)
        env.timeout(5.0)
        env.run()
        assert tracker.busy_time() == pytest.approx(5.0)

    def test_negative_busy_rejected(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        with pytest.raises(SimulationError):
            tracker.remove(1)


class ReferenceTracker:
    """BusyTracker's change points as a list of ``(time, busy)`` tuples
    with a parallel list of prefix sums: the model the tracker's
    columns must reproduce float for float."""

    def __init__(self, origin, retention_s=None):
        self.changes = [(origin, 0)]
        self.cum = [0.0]
        self.cum0 = 0.0
        self.origin = origin
        self.retention_s = retention_s

    def record(self, now, busy):
        t_last, b_last = self.changes[-1]
        if t_last == now:
            self.changes[-1] = (now, busy)
            return
        self.changes.append((now, busy))
        self.cum.append(self.cum[-1] + b_last * (now - t_last))
        retention = self.retention_s
        if retention is not None and \
                self.changes[0][0] < now - 2.0 * retention:
            idx = bisect_right(self.changes,
                               (now - retention, float("inf"))) - 1
            if idx > 0:
                base = self.cum[idx]
                self.cum0 += base
                del self.changes[:idx]
                self.cum = [c - base for c in self.cum[idx:]]

    def integral(self, t):
        t0 = self.changes[0][0]
        if t <= t0:
            span = t0 - self.origin
            if span <= 0.0 or t <= self.origin:
                return 0.0
            return self.cum0 * ((t - self.origin) / span)
        i = bisect_right(self.changes, (t, float("inf"))) - 1
        t_i, busy_i = self.changes[i]
        return self.cum0 + self.cum[i] + busy_i * (t - t_i)

    def busy_time(self, start, end):
        if end <= start:
            return 0.0
        return self.integral(end) - self.integral(start)


delays = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


class TestBusyTrackerModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(delays, st.integers(0, 4)), min_size=1,
                    max_size=60),
           st.one_of(st.none(), st.floats(0.25, 10.0)),
           st.lists(st.floats(-1.0, 1.1), max_size=12))
    def test_matches_reference(self, steps, retention, fractions):
        # Repeated timestamps (zero delays) overwrite the last change
        # point; a retention horizon compacts old points away.  Every
        # query must equal the reference bit for bit.
        env = Environment()
        tracker = BusyTracker(env, units=4)
        if retention is not None:
            tracker.set_retention(retention)
        reference = ReferenceTracker(env.now, retention)

        def proc():
            for delay, busy in steps:
                yield env.timeout(delay)
                tracker.set_busy(busy)
                reference.record(env.now, busy)
                assert len(tracker) == len(reference.changes)

        env.run(until=env.process(proc()))
        now = env.now
        times = sorted(fraction * now for fraction in fractions)
        assert tracker.busy_integrals(times) == \
            [reference.integral(t) for t in times]
        assert tracker.busy_time() == reference.busy_time(0.0, now)
        for start, end in zip(times, times[1:] + [now]):
            assert tracker.busy_time(start, end) == \
                reference.busy_time(start, end)
            expected = (reference.busy_time(start, end)
                        / (4 * (end - start)) if end > start else 0.0)
            assert tracker.utilization(start, end) == expected
