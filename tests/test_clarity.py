"""Tests for the always-on clarity pipeline (``repro.clarity``)."""

import pytest

from repro.clarity import (CapacityAdvisor, ClarityAggregator,
                           default_candidates)
from repro.clarity.advisor import Candidate
from repro.clarity.validate import (ClarityWorkload, run_clarity_serving,
                                    validate_advisor)
from repro.cluster import ssd_cluster
from repro.config import MB, SSD
from repro.errors import ClarityError
from repro.model import WhatIf, hardware_profile
from repro.trace import AGGREGATIONS, TimeSeriesStore
from repro.trace.telemetry import TelemetryRegistry

#: A small, fast serving workload shared by the pipeline tests.
SMALL = ClarityWorkload(duration_s=60.0, rate_per_s=0.05, sort_gb=0.5,
                        sort_tasks=32)


@pytest.fixture(scope="module")
def mono_run():
    return run_clarity_serving(SMALL)


@pytest.fixture(scope="module")
def spark_run():
    return run_clarity_serving(SMALL, engine="spark")


class TestTimeSeriesStore:
    def test_roundtrip_and_unknown_series(self):
        store = TimeSeriesStore()
        store.append("queue", 1.0, 3.0)
        store.append("queue", 2.0, 4.0)
        store.append("queue", 2.0, 5.0, labels=(("machine", "1"),))
        assert store.points("queue") == [(1.0, 3.0), (2.0, 4.0)]
        assert store.points("queue", labels=(("machine", "1"),)) == \
            [(2.0, 5.0)]
        assert store.points("nope") == []
        assert store.latest("queue") == (2.0, 4.0)
        assert store.latest("nope") is None
        assert len(store) == 3
        assert store.series() == [("queue", ()), ("queue",
                                                  (("machine", "1"),))]

    def test_capacity_evicts_oldest(self):
        store = TimeSeriesStore(capacity_per_series=4)
        for t in range(10):
            store.append("m", float(t), float(t))
        assert store.points("m") == [(6.0, 6.0), (7.0, 7.0),
                                     (8.0, 8.0), (9.0, 9.0)]

    def test_age_retention_drops_old_points(self):
        store = TimeSeriesStore(retention_s=5.0)
        for t in range(11):
            store.append("m", float(t), float(t))
        assert store.points("m")[0][0] == 5.0
        assert store.points("m")[-1][0] == 10.0

    def test_out_of_order_append_rejected_equal_time_allowed(self):
        store = TimeSeriesStore()
        store.append("m", 5.0, 1.0)
        store.append("m", 5.0, 2.0)  # same instant is fine
        with pytest.raises(ClarityError):
            store.append("m", 4.0, 3.0)

    def test_window_bounds_inclusive(self):
        store = TimeSeriesStore()
        for t in range(5):
            store.append("m", float(t), float(t))
        assert store.window("m", 1.0, 3.0) == [(1.0, 1.0), (2.0, 2.0),
                                               (3.0, 3.0)]
        assert store.window("nope", 0.0, 10.0) == []

    def test_aggregations(self):
        store = TimeSeriesStore()
        for t, v in [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0), (3.0, 8.0)]:
            store.append("m", t, v)
        agg = lambda kind, **kw: store.aggregate("m", kind, 10.0, **kw)
        assert agg("mean") == pytest.approx(5.0)
        assert agg("min") == 2.0
        assert agg("max") == 8.0
        assert agg("sum") == 20.0
        assert agg("count") == 4.0
        assert agg("last") == 8.0
        assert agg("rate") == pytest.approx(2.0)  # (8-2)/(3-0)
        assert agg("p50") == pytest.approx(5.0)
        assert agg("p100") == 8.0
        # Explicit ``now`` narrows the window.
        assert store.aggregate("m", "count", 1.0, now=1.0) == 2.0

    def test_aggregate_edge_cases(self):
        store = TimeSeriesStore()
        assert store.aggregate("m", "mean", 10.0) is None  # no series
        store.append("m", 0.0, 7.0)
        assert store.aggregate("m", "rate", 10.0) == 0.0  # single point
        assert store.aggregate("m", "mean", 1.0, now=100.0) is None
        with pytest.raises(ClarityError):
            store.aggregate("m", "median", 10.0)
        with pytest.raises(ClarityError):
            store.aggregate("m", "pzz", 10.0)
        with pytest.raises(ClarityError):
            store.aggregate("m", "p200", 10.0)
        with pytest.raises(ClarityError):
            store.aggregate("m", "mean", 0.0)

    def test_constructor_validation(self):
        with pytest.raises(ClarityError):
            TimeSeriesStore(capacity_per_series=0)
        with pytest.raises(ClarityError):
            TimeSeriesStore(retention_s=-1.0)
        assert "mean" in AGGREGATIONS and "rate" in AGGREGATIONS

    @staticmethod
    def _compacted_store(appends=300, capacity=100):
        """A store driven far enough that the ring buffer compacted.

        With ``capacity`` 100, append 300 points: the logical start
        offset crosses the ``start > 64 and start * 2 >= len`` slice
        threshold several times, so windowed queries afterwards run
        against a physically compacted list, not just a large offset.
        """
        store = TimeSeriesStore(capacity_per_series=capacity)
        for t in range(appends):
            # Non-monotone values so percentiles are not trivial.
            store.append("m", float(t), float((t * 7) % 13))
        series = store._series[("m", ())]
        assert series._start == 0 and len(series._points) == capacity, \
            "test workload no longer triggers prefix compaction"
        return store

    def test_rate_and_percentiles_across_compaction(self):
        """Windowed aggregates are oblivious to buffer compaction.

        The same retained points in a fresh (never-evicted) store must
        produce identical rate/pNN answers, including for windows that
        straddle the retention boundary (reaching before the oldest
        retained point) and windows entirely inside the buffer.
        """
        store = self._compacted_store()
        fresh = TimeSeriesStore()
        for t, v in store.points("m"):
            fresh.append("m", t, v)
        oldest = store.points("m")[0][0]
        assert oldest == 200.0  # 300 appends, capacity 100
        windows = [
            (10.0, 299.0),     # inside the retained window
            (50.0, 230.0),     # straddles the eviction boundary
            (1000.0, 299.0),   # asks for far more than is retained
            (1.0, 200.5),      # tiny window at the boundary itself
        ]
        for agg in ("rate", "p50", "p95", "p99.9", "mean", "count"):
            for window_s, now in windows:
                assert store.aggregate("m", agg, window_s, now=now) == \
                    fresh.aggregate("m", agg, window_s, now=now), \
                    (agg, window_s, now)

    def test_window_and_latest_across_compaction(self):
        store = self._compacted_store()
        assert store.window("m", 250.0, 260.0) == \
            [(float(t), float((t * 7) % 13)) for t in range(250, 261)]
        # A window entirely evicted by capacity yields nothing.
        assert store.window("m", 0.0, 199.0) == []
        assert store.latest("m") == (299.0, float((299 * 7) % 13))
        assert len(store) == 100

    def test_rate_counter_idiom_across_eviction(self):
        """A counter's windowed rate survives losing its early points."""
        store = TimeSeriesStore(capacity_per_series=10)
        for t in range(200):
            store.append("total", float(t), 3.0 * t)  # 3/s counter
        assert store.aggregate("total", "rate", 5.0, now=199.0) == \
            pytest.approx(3.0)
        # Window wider than retention: rate falls back to the oldest
        # *retained* point, not the true start of the counter.
        assert store.aggregate("total", "rate", 1000.0, now=199.0) == \
            pytest.approx(3.0)


class TestWindowedPrometheus:
    def make_registry(self):
        registry = TelemetryRegistry()
        value = {"v": 0.0}
        registry.gauge("repro_test_depth", "a depth", lambda: value["v"],
                       machine=0)
        for t in range(8):
            value["v"] = float(t)
            registry.sample(float(t))
        return registry

    def test_default_rendering_has_no_window_gauges(self):
        page = self.make_registry().render_prometheus(now=7.0)
        assert "repro_test_depth" in page
        assert ":mean_" not in page

    def test_windowed_aggregates_rendered(self):
        page = self.make_registry().render_prometheus(
            now=7.0, windows=(4.0,), window_aggs=("mean", "p95", "rate"))
        assert '# TYPE repro_test_depth:mean_4s gauge' in page
        # Window [3, 7] -> values 3..7, mean 5.
        assert 'repro_test_depth:mean_4s{machine="0"} 5' in page
        assert 'repro_test_depth:rate_4s{machine="0"} 1' in page
        assert 'repro_test_depth:p95_4s{machine="0"}' in page

    def test_empty_window_series_omitted(self):
        page = self.make_registry().render_prometheus(
            now=100.0, windows=(4.0,))
        assert ":mean_4s" not in page


class TestClarityAggregator:
    def test_bottleneck_fraction_invariants(self, mono_run):
        _, _, aggregator = mono_run
        window = aggregator.bottleneck()
        assert window.jobs > 0
        assert window.attributable
        assert window.attributable_jobs == window.jobs
        for fractions in (window.fractions, window.machine_fractions):
            assert fractions
            assert all(f >= 0.0 for f in fractions.values())
            assert sum(fractions.values()) <= 1.0 + 1e-9
        label, fraction = window.dominant
        assert fraction == max(window.fractions.values())
        assert "bottleneck: " + label in window.format()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fraction_invariants_across_seeds(self, seed):
        workload = ClarityWorkload(duration_s=40.0, rate_per_s=0.05,
                                   sort_gb=0.25, sort_tasks=16, seed=seed)
        _, _, aggregator = run_clarity_serving(workload)
        window = aggregator.bottleneck()
        assert window.jobs > 0
        assert all(f >= 0.0 for f in window.fractions.values())
        assert sum(window.fractions.values()) <= 1.0 + 1e-9
        assert sum(window.machine_fractions.values()) <= 1.0 + 1e-9

    def test_spark_window_is_explicitly_not_attributable(self, spark_run):
        _, _, aggregator = spark_run
        window = aggregator.bottleneck()
        assert window.jobs > 0
        assert not window.attributable
        assert window.fractions == {}
        assert "NOT ATTRIBUTABLE" in window.format()
        assert "blended" in window.reason

    def test_empty_window(self):
        aggregator = ClarityAggregator()
        window = aggregator.bottleneck()
        assert window.jobs == 0
        assert not window.attributable
        assert "no jobs" in window.format()

    def test_window_filtering_drops_old_jobs(self, mono_run):
        _, _, aggregator = mono_run
        newest = max(job.end for job in aggregator.observations())
        assert aggregator.observations(now=newest + 1e6,
                                       window_s=1.0) == []
        tiny = aggregator.bottleneck(now=newest + 1e6, window_s=1.0)
        assert tiny.jobs == 0

    def test_max_jobs_bounds_retention(self, mono_run):
        ctx, _, aggregator = mono_run
        job_id = aggregator.observations()[0].job_id
        bounded = ClarityAggregator(max_jobs=2, engine="monospark")
        for _ in range(5):
            bounded.observe_job(ctx.metrics, job_id)
        assert bounded.total_observed == 2

    def test_observation_sums_match_duration(self, mono_run):
        _, _, aggregator = mono_run
        for job in aggregator.observations():
            assert sum(job.path_seconds.values()) == \
                pytest.approx(job.measured_s)
            assert sum(job.machine_seconds.values()) == \
                pytest.approx(job.measured_s)

    def test_validation(self):
        with pytest.raises(ClarityError):
            ClarityAggregator(window_s=0.0)
        with pytest.raises(ClarityError):
            ClarityAggregator(max_jobs=0)


class TestCapacityAdvisor:
    def test_advise_is_deterministic(self, mono_run):
        ctx, _, aggregator = mono_run
        advisor = CapacityAdvisor(hardware_profile(ctx.cluster))
        first = advisor.advise(aggregator.observations())
        second = advisor.advise(aggregator.observations())
        assert first.format() == second.format()

    def test_ranking_sorted_by_predicted_p95(self, mono_run):
        ctx, _, aggregator = mono_run
        advisor = CapacityAdvisor(hardware_profile(ctx.cluster))
        report = advisor.advise(aggregator.observations())
        assert report.attributable
        p95s = [rec.predicted_p95_s for rec in report.recommendations]
        assert p95s == sorted(p95s)
        assert report.top.name == report.recommendations[0].name
        assert 0.0 < report.top.model_coverage <= 1.0
        assert "recommend: " + report.top.name in report.format()

    def test_spark_observations_yield_not_attributable(self, spark_run):
        ctx, _, aggregator = spark_run
        advisor = CapacityAdvisor(hardware_profile(ctx.cluster))
        report = advisor.advise(aggregator.observations())
        assert not report.attributable
        assert report.top is None
        assert "NOT ATTRIBUTABLE" in report.format()
        assert "monotask profiles" in report.reason

    def test_default_candidates_adapt_to_hardware(self, mono_run):
        ctx, _, _ = mono_run
        hdd = hardware_profile(ctx.cluster)
        names = [c.name for c in default_candidates(hdd)]
        assert names.count("hdd-to-ssd") == 1
        assert "input-in-memory" in names
        assert len(set(names)) == len(names)
        ssd_names = [c.name for c in default_candidates(
            hardware_profile(ssd_cluster(num_machines=1, num_disks=1)))]
        assert "hdd-to-ssd" not in ssd_names
        assert "remove-machine" not in ssd_names
        no_soft = default_candidates(hdd, include_software=False)
        assert all(c.name != "input-in-memory" for c in no_soft)

    def test_advisor_validation(self, mono_run):
        ctx, _, _ = mono_run
        hardware = hardware_profile(ctx.cluster)
        with pytest.raises(ClarityError):
            CapacityAdvisor(hardware, candidates=[])
        dup = Candidate("x", WhatIf(hardware=hardware))
        with pytest.raises(ClarityError):
            CapacityAdvisor(hardware, candidates=[dup, dup])


class TestServeIntegration:
    def test_report_carries_clarity_window(self, mono_run):
        _, report, _ = mono_run
        assert report.clarity is not None
        text = report.format()
        assert "clarity window" in text
        assert "bottleneck:" in text

    def test_spark_report_carries_non_attributable_window(self, spark_run):
        _, report, _ = spark_run
        assert report.clarity is not None
        assert "NOT ATTRIBUTABLE" in report.format()


class TestValidationHarness:
    def test_build_cluster_overrides(self):
        workload = ClarityWorkload()
        base = hardware_profile(workload.build_cluster())
        more_disks = hardware_profile(workload.build_cluster(disks=3))
        assert more_disks.disks_per_machine == base.disks_per_machine + 1
        ssd = hardware_profile(workload.build_cluster(ssd=True))
        assert ssd.disk_throughput_bps == SSD.throughput_bps
        fast_net = hardware_profile(
            workload.build_cluster(network_bps=250.0 * MB))
        assert fast_net.network_bps == pytest.approx(250.0 * MB)

    def test_validate_rejects_blended_engine(self):
        with pytest.raises(ClarityError):
            validate_advisor(ClarityWorkload(engine="spark"))
