"""Unit tests for metrics collection, utilization, and reporting."""

import pytest

from repro.metrics import (MetricsCollector, MonotaskRecord, format_seconds,
                           format_table, percentile, sample_utilization)
from repro.metrics.events import CPU, DISK, NETWORK, PHASE_COMPUTE
from repro.metrics.utilization import UtilizationSummary
from repro.simulator import BusyTracker, Environment


def make_record(resource=CPU, phase=PHASE_COMPUTE, job=0, stage=0,
                start=0.0, end=1.0, nbytes=0.0, **kw):
    return MonotaskRecord(job_id=job, stage_id=stage, task_index=0,
                          resource=resource, phase=phase, machine_id=0,
                          start=start, end=end, nbytes=nbytes, **kw)


class TestMetricsCollector:
    def test_job_and_stage_lifecycle(self):
        collector = MetricsCollector()
        collector.job_started(0, "job", 0.0)
        collector.stage_started(0, 0, "map", 4, 0.0)
        collector.stage_finished(0, 0, 10.0)
        collector.job_finished(0, 12.0)
        assert collector.job_duration(0) == 12.0
        assert collector.stage_records(0)[0].duration == 10.0
        assert collector.stage_window(0, 0) == (0.0, 10.0)

    def test_monotask_aggregation(self):
        collector = MetricsCollector()
        collector.job_started(0, "j", 0.0)
        collector.stage_started(0, 0, "s", 1, 0.0)
        collector.record_monotask(make_record(CPU, end=2.0))
        collector.record_monotask(make_record(CPU, end=3.0))
        collector.record_monotask(make_record(DISK, nbytes=100.0))
        collector.record_monotask(make_record(NETWORK, nbytes=50.0))
        assert collector.total_compute_seconds(0) == pytest.approx(5.0)
        assert collector.total_disk_bytes(0) == 100.0
        assert collector.total_network_bytes(0) == 50.0

    def test_stage_filtering(self):
        collector = MetricsCollector()
        collector.record_monotask(make_record(CPU, stage=0, end=1.0))
        collector.record_monotask(make_record(CPU, stage=1, end=5.0))
        assert collector.total_compute_seconds(0, stage_id=0) == 1.0
        assert collector.total_compute_seconds(0, stage_id=1) == 5.0
        assert collector.total_compute_seconds(0) == 6.0

    def test_monotask_record_properties(self):
        record = make_record(start=2.0, end=5.0)
        assert record.duration == 3.0
        assert not record.is_input_read


class TestUtilizationHelpers:
    def test_sample_utilization_windows(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)

        def proc():
            tracker.add(1)
            yield env.timeout(5.0)
            tracker.remove(1)
            yield env.timeout(5.0)

        env.run(until=env.process(proc()))
        samples = sample_utilization(tracker, 0.0, 10.0, 2.5)
        assert [round(u, 2) for _, u in samples] == [1.0, 1.0, 0.0, 0.0]

    def test_sample_utilization_no_float_drift(self):
        # Regression: accumulating ``t += step`` drifted after many
        # windows (0.1 is not exact in binary), eventually misaligning
        # window edges and dropping or duplicating the final sample.
        env = Environment()
        tracker = BusyTracker(env, units=1)
        samples = sample_utilization(tracker, 0.0, 100.0, 0.1)
        assert len(samples) == 1000
        for index, (t, _) in enumerate(samples):
            assert t == 0.0 + index * 0.1  # exact, not approximate
        # The last window must start strictly before ``end``.
        assert samples[-1][0] < 100.0

    def test_sample_requires_positive_step(self):
        env = Environment()
        tracker = BusyTracker(env, units=1)
        with pytest.raises(ValueError):
            sample_utilization(tracker, 0.0, 1.0, 0.0)

    def test_percentiles(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_single_element(self):
        for q in (0, 37.5, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_percentile_interpolates_between_ranks(self):
        values = [0.0, 10.0]
        assert percentile(values, 25) == pytest.approx(2.5)
        assert percentile(values, 95) == pytest.approx(9.5)
        # Input order must not matter.
        assert percentile([10.0, 0.0], 95) == pytest.approx(9.5)

    def test_percentile_rejects_out_of_range_q(self):
        for q in (-0.1, 100.1, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0, 2.0], q)

    def test_ranked_resources(self):
        summary = UtilizationSummary(cpu=0.9, disks=[0.3, 0.7],
                                     net_rx=0.5, net_tx=0.2)
        ranked = summary.ranked()
        assert ranked[0] == ("cpu", 0.9)
        assert ranked[1] == ("disk", 0.7)
        assert ranked[2] == ("network", 0.5)
        assert summary.as_dict()["disk1"] == 0.7


class TestReporting:
    def test_format_seconds_units(self):
        assert format_seconds(0.5).endswith("ms")
        assert format_seconds(5).endswith("s")
        assert format_seconds(120).endswith("min")
        assert format_seconds(7200).endswith("h")

    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1.0], ["long-name", 123.456]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert len(lines) == 6

    def test_nan_rendered_as_dash(self):
        table = format_table(["x"], [[float("nan")]])
        assert "-" in table.splitlines()[-1]
