"""Regression tests for the kernel/observability hot-path overhaul.

Pins the properties the kernel-throughput work relies on: busy-tracker
memory is bounded by the retention horizon (not the run length), window
queries inside the horizon stay exact after compaction, the serving
layer wires the telemetry horizon into every hardware tracker, and the
shared percentile helper guards its edge cases.
"""

import pytest

from repro.errors import ClarityError, SimulationError
from repro.simulator import BusyTracker, Environment
from repro.stats import percentile
from repro.trace.tsdb import TimeSeriesStore


def drive_tracker(total_s: float, retention_s, period_s: float = 1.0):
    """A tracker toggled busy/idle twice per period for ``total_s``."""
    env = Environment()
    tracker = BusyTracker(env, units=2, name="t", retention_s=retention_s)

    def toggler():
        while True:
            tracker.add(1)
            yield env.timeout(period_s / 2.0)
            tracker.remove(1)
            yield env.timeout(period_s / 2.0)

    env.process(toggler())
    env.run(until=total_s)
    return env, tracker


class TestBusyTrackerBoundedMemory:
    def test_memory_bounded_by_horizon_not_run_length(self):
        _, short = drive_tracker(200.0, retention_s=50.0)
        _, long = drive_tracker(2000.0, retention_s=50.0)
        # Two change points per simulated second; compaction keeps at
        # most ~2x the horizon of history, so the bound is a function
        # of the horizon alone.  The long run must not retain more.
        assert len(long) <= 2 * (2 * 50) + 8
        assert len(long) <= len(short) + 8

    def test_everything_retained_without_horizon(self):
        _, tracker = drive_tracker(500.0, retention_s=None)
        assert len(tracker) >= 2 * 500 - 2

    def test_per_sample_state_independent_of_run_length(self):
        # The per-sample telemetry cost is O(retained change points +
        # retained series points).  Both must depend on the horizon
        # only: a 10x longer run may not enlarge either structure.
        _, short_tracker = drive_tracker(300.0, retention_s=60.0)
        _, long_tracker = drive_tracker(3000.0, retention_s=60.0)
        assert len(long_tracker) <= len(short_tracker) + 8

        def fill(total_points):
            store = TimeSeriesStore(capacity_per_series=1 << 20,
                                    retention_s=60.0)
            for i in range(total_points):
                store.append("gauge", float(i), 1.0)
            return len(store)

        assert fill(3000) == fill(300)

    def test_recent_windows_exact_after_compaction(self):
        _, compacted = drive_tracker(2000.0, retention_s=50.0)
        _, full = drive_tracker(2000.0, retention_s=None)
        assert len(compacted) < len(full)
        for start, end in ((1990.0, 2000.0), (1950.5, 1999.5),
                           (1960.25, 1960.75)):
            assert compacted.busy_time(start, end) == pytest.approx(
                full.busy_time(start, end))

    def test_total_exact_after_compaction(self):
        # Compaction checkpoints the folded-away mass, so the
        # since-origin total never drifts.
        _, compacted = drive_tracker(2000.0, retention_s=50.0)
        _, full = drive_tracker(2000.0, retention_s=None)
        assert compacted.busy_time() == pytest.approx(full.busy_time())
        assert compacted.utilization() == pytest.approx(full.utilization())

    def test_busy_integrals_matches_busy_time(self):
        _, tracker = drive_tracker(100.0, retention_s=None)
        times = [0.0, 10.0, 33.25, 50.0, 99.5, 100.0]
        integrals = tracker.busy_integrals(times)
        for t, integral in zip(times, integrals):
            assert integral == pytest.approx(tracker.busy_time(0.0, t))

    def test_invalid_retention_rejected(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        with pytest.raises(SimulationError):
            tracker.set_retention(0.0)
        with pytest.raises(SimulationError):
            BusyTracker(env, units=1, retention_s=-1.0)


class TestBusyTrackerValidation:
    def test_set_busy_negative_rejected(self):
        env = Environment()
        tracker = BusyTracker(env, units=2, name="disk0")
        with pytest.raises(SimulationError, match="disk0"):
            tracker.set_busy(-1)

    def test_add_below_zero_rejected(self):
        env = Environment()
        tracker = BusyTracker(env, units=2)
        tracker.add(1)
        with pytest.raises(SimulationError):
            tracker.remove(2)
        # The failed call must not have corrupted the count.
        assert tracker.busy == 1

    def test_set_busy_records_change(self):
        env = Environment()
        tracker = BusyTracker(env, units=4)

        def proc():
            tracker.set_busy(3)
            yield env.timeout(10.0)
            tracker.set_busy(0)
            yield env.timeout(10.0)

        env.run(until=env.process(proc()))
        assert tracker.busy_time() == pytest.approx(30.0)


class TestServeWiresTrackerRetention:
    def test_job_server_propagates_telemetry_horizon(self):
        from repro.api.context import AnalyticsContext
        from repro.cluster import hdd_cluster
        from repro.serve import JobServer, TraceArrivals, wordcount_template
        from repro.trace.telemetry import TelemetryRegistry, TelemetrySampler

        cluster = hdd_cluster(num_machines=2, num_disks=2)
        ctx = AnalyticsContext(cluster, engine="monospark")
        registry = TelemetryRegistry(retention_s=90.0)
        sampler = TelemetrySampler(ctx.engine.env, registry, interval_s=1.0)
        server = JobServer(ctx, policy="fifo", telemetry=sampler)
        server.add_tenant("t")
        template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
        server.add_workload("t", template, TraceArrivals([0.0]))
        server.run()

        machine = cluster.machines[0]
        assert machine.cpu.tracker.retention_s == 90.0
        assert all(d.tracker.retention_s == 90.0 for d in machine.disks)
        assert all(t.retention_s == 90.0
                   for t in cluster.network.rx_trackers.values())
        assert all(t.retention_s == 90.0
                   for t in cluster.network.tx_trackers.values())


class TestTimeSeriesWindowing:
    def test_window_is_inclusive_and_bisected(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.append("m", float(t), float(t) * 2.0)
        assert store.window("m", 3.0, 6.0) == [
            (3.0, 6.0), (4.0, 8.0), (5.0, 10.0), (6.0, 12.0)]
        assert store.window("m", 3.5, 3.9) == []
        assert store.window("m", -5.0, 0.0) == [(0.0, 0.0)]
        assert store.window("m", 9.0, 50.0) == [(9.0, 18.0)]

    def test_window_respects_eviction_offset(self):
        # Capacity eviction advances the series' logical start; the
        # bisected window must not resurrect evicted points.
        store = TimeSeriesStore(capacity_per_series=4)
        for t in range(10):
            store.append("m", float(t), float(t))
        assert store.points("m") == [(6.0, 6.0), (7.0, 7.0),
                                     (8.0, 8.0), (9.0, 9.0)]
        assert store.window("m", 0.0, 7.0) == [(6.0, 6.0), (7.0, 7.0)]

    def test_aggregates_over_window(self):
        store = TimeSeriesStore()
        for t in range(20):
            store.append("m", float(t), float(t))
        assert store.aggregate("m", "mean", window_s=4.0) == pytest.approx(
            (15 + 16 + 17 + 18 + 19) / 5.0)
        assert store.aggregate("m", "p50", window_s=4.0) == pytest.approx(17.0)
        assert store.aggregate("m", "rate", window_s=4.0) == pytest.approx(1.0)

    def test_out_of_order_append_rejected(self):
        store = TimeSeriesStore()
        store.append("m", 5.0, 1.0)
        with pytest.raises(ClarityError):
            store.append("m", 4.0, 1.0)


class TestSharedPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_quantile_rejected(self):
        for q in (-1.0, 101.0, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0], q)

    def test_both_call_sites_share_the_helper(self):
        # The metrics and tsdb percentile paths must be the one stats
        # helper, not parallel reimplementations that can drift.
        from repro.metrics import utilization
        from repro.trace import tsdb
        assert utilization.percentile is percentile
        assert tsdb._shared_percentile is percentile

    def test_tsdb_wraps_errors_as_clarity(self):
        store = TimeSeriesStore()
        store.append("m", 0.0, 1.0)
        with pytest.raises(ClarityError):
            store.aggregate("m", "p200", window_s=1.0)
