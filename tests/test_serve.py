"""Tests for the continuous serving layer (``repro.serve``)."""

import math

import pytest

from repro.api.context import AnalyticsContext
from repro.api.plan import DfsOutput, ShuffleInput, ShuffleOutput
from repro.cluster import hdd_cluster
from repro.errors import ConfigError, PlanError, SimulationError
from repro.faults import (FaultInjector, FaultPlan, MachineCrash,
                          RecoveryPolicy, random_plan)
from repro.serve import (AdmissionController, CostEstimator,
                         DeadlineScheduler, JobServer, PoissonArrivals,
                         BurstyArrivals, TraceArrivals, WeightedFairScheduler,
                         instantiate_plan, make_scheduler, ml_template,
                         sort_template, wordcount_template)
from repro.simulator.rng import RngStreams
from repro.trace.spans import SPAN_JOB, SPAN_STAGE, span_to_json
from repro.xray import Capsule, RunRecorder


def make_ctx(engine="monospark", machines=2, **options):
    cluster = hdd_cluster(num_machines=machines, num_disks=2)
    return AnalyticsContext(cluster, engine=engine, **options)


def small_wc(ctx, name="wordcount"):
    return wordcount_template(ctx, num_blocks=2, block_mb=8.0, name=name)


class TestArrivals:
    def test_poisson_deterministic_and_bounded(self):
        arrivals = PoissonArrivals(rate_per_s=0.5, horizon_s=100.0)
        first = list(arrivals.times(RngStreams(3).stream("a")))
        second = list(arrivals.times(RngStreams(3).stream("a")))
        assert first == second
        assert first
        assert all(0 < t < 100.0 for t in first)
        assert first == sorted(first)

    def test_poisson_streams_independent(self):
        arrivals = PoissonArrivals(rate_per_s=0.5, horizon_s=100.0)
        a = list(arrivals.times(RngStreams(3).stream("a")))
        b = list(arrivals.times(RngStreams(3).stream("b")))
        assert a != b

    def test_bursty_rate_oscillates_between_base_and_peak(self):
        arrivals = BurstyArrivals(base_rate_per_s=0.1, peak_rate_per_s=1.0,
                                  period_s=100.0, horizon_s=200.0)
        assert arrivals.rate_at(0.0) == pytest.approx(0.1)
        assert arrivals.rate_at(50.0) == pytest.approx(1.0)
        times = list(arrivals.times(RngStreams(0).stream("x")))
        assert times == sorted(times)
        assert all(0 < t < 200.0 for t in times)

    def test_trace_replay_is_exact(self):
        trace = TraceArrivals([5.0, 1.0, 3.0])
        assert list(trace.times(RngStreams(0).stream("x"))) == [1.0, 3.0, 5.0]
        assert trace.horizon_s == 5.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(rate_per_s=0.0, horizon_s=10.0)
        with pytest.raises(ConfigError):
            PoissonArrivals(rate_per_s=1.0, horizon_s=float("inf"))
        with pytest.raises(ConfigError):
            BurstyArrivals(base_rate_per_s=2.0, peak_rate_per_s=1.0,
                           period_s=10.0, horizon_s=10.0)
        with pytest.raises(ConfigError):
            TraceArrivals([-1.0, 2.0])


class TestTemplates:
    def test_instantiate_allocates_fresh_ids(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        first = template.instantiate(ctx)
        second = template.instantiate(ctx)
        assert first.job_id != second.job_id
        for plan in (first, second):
            for stage in plan.stages:
                for task in stage.tasks:
                    assert task.job_id == plan.job_id

    def test_shuffle_ids_remapped_consistently(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        base = template.base_plan(ctx)
        clone = template.instantiate(ctx)

        def shuffle_ids(plan):
            outs, ins = set(), set()
            for stage in plan.stages:
                for task in stage.tasks:
                    if isinstance(task.output, ShuffleOutput):
                        outs.add(task.output.shuffle_id)
                    if isinstance(task.input, ShuffleInput):
                        ins.update(dep.shuffle_id
                                   for dep in task.input.deps)
            return outs, ins

        base_outs, base_ins = shuffle_ids(base)
        clone_outs, clone_ins = shuffle_ids(clone)
        # Map-side writes and reduce-side reads must agree on the new id,
        # and it must differ from the template's.
        assert clone_outs == clone_ins
        assert clone_outs.isdisjoint(base_outs)

    def test_dfs_outputs_are_per_instance(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        first = template.instantiate(ctx)
        second = template.instantiate(ctx)

        def out_files(plan):
            return {task.output.file_name for stage in plan.stages
                    for task in stage.tasks
                    if isinstance(task.output, DfsOutput)}

        assert out_files(first).isdisjoint(out_files(second))

    def test_compiles_once_per_context(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        for _ in range(3):
            template.instantiate(ctx)
        assert template.compile_count == 1

    def test_cached_plans_rejected(self):
        ctx = make_ctx()
        small_wc(ctx, name="wc")  # generates the serve-wc-in input file
        rdd = ctx.text_file("serve-wc-in")
        rdd.cache()
        plan = ctx.compile(rdd.map(lambda x: x), DfsOutput(file_name="out"))
        with pytest.raises(PlanError):
            instantiate_plan(plan, ctx.dag_scheduler)


class TestSubmitJob:
    def test_duplicate_job_id_in_batch_rejected(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        plan = template.instantiate(ctx)
        with pytest.raises(SimulationError):
            ctx.engine.run_jobs([plan, plan])

    def test_resubmitting_a_plan_rejected(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        plan = template.instantiate(ctx)
        ctx.engine.run_job(plan)
        with pytest.raises(SimulationError):
            ctx.engine.run_job(plan)

    def test_distinct_plans_still_run_concurrently(self):
        ctx = make_ctx()
        template = small_wc(ctx)
        plans = [template.instantiate(ctx) for _ in range(2)]
        results = ctx.run_jobs(plans)
        assert len(results) == 2
        assert results[0].job_id != results[1].job_id
        assert all(r.duration > 0 for r in results)


class TestAdmission:
    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_queued_jobs=-1)
        with pytest.raises(ConfigError):
            AdmissionController(max_backlog_s=0.0)

    def test_queue_bound(self):
        controller = AdmissionController(max_queued_jobs=2)
        assert controller.decide(1.0, [])[0]
        assert controller.decide(1.0, [1.0])[0]
        admit, reason = controller.decide(1.0, [1.0, 1.0])
        assert not admit
        assert "queue full" in reason

    def test_backlog_bound_ignores_unknown_estimates(self):
        controller = AdmissionController(max_backlog_s=10.0)
        # First instances (no estimate) are admitted on faith.
        assert controller.decide(None, [None, None])[0]
        admit, reason = controller.decide(6.0, [5.0, None])
        assert not admit
        assert "backlog" in reason

    def test_estimator_reprices_on_live_machines_monospark_only(self):
        measured = {}
        estimates = {}
        for engine in ("spark", "monospark"):
            ctx = make_ctx(engine)
            template = small_wc(ctx)
            result = ctx.engine.run_job(template.instantiate(ctx))
            estimator = CostEstimator(ctx.engine)
            assert estimator.estimate(template.name) is None
            estimator.observe(template.name, ctx.metrics, result)
            measured[engine] = result.duration
            assert estimator.estimate(template.name) == \
                pytest.approx(result.duration)
            ctx.engine.crash_machine(1)
            estimates[engine] = estimator.estimate(template.name)
        # Spark cannot see the smaller cluster; MonoSpark's model prices
        # the job higher on half the machines.
        assert estimates["spark"] == pytest.approx(measured["spark"])
        assert estimates["monospark"] > measured["monospark"]


class FakeRequest:
    def __init__(self, seq, tenant, arrival=0.0, slo_s=None):
        self.seq = seq
        self.tenant = tenant
        self.arrival = arrival
        self.slo_s = slo_s


class TestSchedulers:
    def test_weighted_fair_prefers_lowest_virtual_time(self):
        scheduler = WeightedFairScheduler()
        scheduler.register_tenant("a", 1.0)
        scheduler.register_tenant("b", 2.0)
        queued = [FakeRequest(0, "a"), FakeRequest(1, "b")]
        # Equal virtual time: tenant name breaks the tie.
        assert scheduler.pick_next(queued).tenant == "a"
        scheduler.credit("a", 10.0)
        assert scheduler.pick_next(queued).tenant == "b"
        # Weight 2 halves accrued virtual time.
        scheduler.credit("b", 10.0)
        assert scheduler.virtual_time("b") == pytest.approx(5.0)
        assert scheduler.pick_next(queued).tenant == "b"

    def test_deadline_orders_by_arrival_plus_slo(self):
        scheduler = DeadlineScheduler()
        urgent = FakeRequest(2, "a", arrival=10.0, slo_s=5.0)
        lax = FakeRequest(0, "b", arrival=0.0, slo_s=100.0)
        best_effort = FakeRequest(1, "c", arrival=0.0, slo_s=None)
        assert scheduler.pick_next([lax, best_effort, urgent]) is urgent
        assert scheduler.pick_next([lax, best_effort]) is lax
        assert scheduler.pick_next([best_effort]) is best_effort

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_scheduler("lottery")


class TestJobServer:
    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_single_job_matches_run_job(self, engine):
        ctx_ref = make_ctx(engine)
        reference = ctx_ref.engine.run_job(
            small_wc(ctx_ref).instantiate(ctx_ref))

        ctx = make_ctx(engine)
        server = JobServer(ctx)
        request = server.submit(small_wc(ctx).instantiate(ctx))
        server.run()
        assert request.result is not None
        assert request.result.start == reference.start
        assert request.result.end == reference.end
        assert request.result.duration == reference.duration

    @staticmethod
    def _serve_once(engine, crash=False):
        ctx = make_ctx(engine, scheduling_policy="fair")
        if crash:
            plan = FaultPlan([MachineCrash(at=10.0, machine_id=1,
                                           restart_after=10.0)])
            FaultInjector(ctx.engine, plan).start()
        server = JobServer(ctx,
                           admission=AdmissionController(max_queued_jobs=3),
                           max_concurrent_jobs=2, seed=5)
        server.add_tenant("interactive", weight=2.0, slo_s=30.0)
        server.add_tenant("batch", weight=1.0)
        server.add_workload("interactive", small_wc(ctx),
                            PoissonArrivals(0.15, horizon_s=60.0))
        server.add_workload("batch", ml_template(ctx, num_partitions=2),
                            PoissonArrivals(0.05, horizon_s=60.0))
        return server, server.run()

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_report_byte_identical_across_runs(self, engine):
        _, first = self._serve_once(engine)
        _, second = self._serve_once(engine)
        assert first.format() == second.format()

    @pytest.mark.parametrize("engine", ["spark", "monospark"])
    def test_report_byte_identical_under_faults(self, engine):
        _, first = self._serve_once(engine, crash=True)
        _, second = self._serve_once(engine, crash=True)
        assert first.format() == second.format()
        assert first.total_completed > 0

    def test_monospark_attributes_queueing_spark_does_not(self):
        _, spark = self._serve_once("spark")
        _, mono = self._serve_once("monospark")
        assert not spark.queue_attribution
        assert "unavailable" in spark.format()
        assert mono.queue_attribution
        for by_resource in mono.queue_attribution.values():
            assert set(by_resource) == {"cpu", "disk", "network"}

    def test_overload_sheds_deterministically(self):
        def run_once():
            ctx = make_ctx(scheduling_policy="fair")
            server = JobServer(
                ctx, admission=AdmissionController(max_queued_jobs=1),
                max_concurrent_jobs=1, seed=9)
            server.add_workload("t", small_wc(ctx),
                                TraceArrivals([0.0, 0.1, 0.2, 0.3, 5.0]))
            return server.run()

        first, second = run_once(), run_once()
        stats = first.tenant("t")
        assert stats.shed > 0
        assert stats.completed + stats.shed == 5
        assert first.format() == second.format()
        shed = [r for r in first.records if r.outcome == "shed"]
        assert all("queue full" in r.detail for r in shed)

    def test_weighted_fair_credits_service(self):
        server, report = self._serve_once("monospark")
        assert report.total_completed > 0
        assert server.scheduler.virtual_time("interactive") > 0
        # Weight 2 tenant accrues virtual time at half rate per second
        # of service.
        interactive = report.tenant("interactive")
        assert interactive.completed > 0

    def test_server_runs_once(self):
        ctx = make_ctx()
        server = JobServer(ctx)
        server.submit(small_wc(ctx).instantiate(ctx))
        server.run()
        with pytest.raises(SimulationError):
            server.run()

    def test_submit_after_run_rejected(self):
        # Nothing serves a request once run() has returned, so its done
        # event would never fire: the server refuses it instead.
        ctx = make_ctx()
        template = small_wc(ctx)
        server = JobServer(ctx)
        server.submit(template)
        server.run()
        late = template.instantiate(ctx)
        with pytest.raises(SimulationError):
            server.submit(late)

    def test_invalid_configs_rejected(self):
        ctx = make_ctx()
        with pytest.raises(ConfigError):
            JobServer(ctx, max_concurrent_jobs=0)
        with pytest.raises(ConfigError):
            JobServer(ctx).add_tenant("t", weight=0.0)
        with pytest.raises(ConfigError):
            JobServer(ctx).add_tenant("t", slo_s=-1.0)


class TestExhaustedRetries:
    """A task that runs out of attempts fails its job, not the run."""

    class RecordingServer(JobServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted = []

        def submit(self, job, tenant="default"):
            request = super().submit(job, tenant=tenant)
            self.submitted.append(request)
            return request

    def serve(self, seed):
        """Serve a sort stream under faults; returns (ctx, server)."""
        cluster = hdd_cluster(4, 2, seed=seed)
        ctx = AnalyticsContext(cluster, engine="monospark",
                               recovery=RecoveryPolicy(speculation=True))
        plan = random_plan(RngStreams(seed), range(4), 40.0, num_faults=3,
                           restart_after=5.0,
                           kind_weights={"crash": 1, "disk": 1,
                                         "slowdown": 1},
                           num_disks=2)
        FaultInjector(ctx.engine, plan).start()
        server = self.RecordingServer(ctx, seed=seed)
        server.add_workload(
            "t", sort_template(ctx, total_gb=0.1, num_tasks=8, seed=seed),
            PoissonArrivals(0.5, horizon_s=40))
        return ctx, server

    @pytest.mark.parametrize("seed", [1, 4])
    def test_job_fails_and_server_keeps_serving(self, seed):
        # Disk deaths exhaust a shuffle task's attempts on MonoSpark at
        # both seeds; the server must drain and account every request.
        ctx, server = self.serve(seed)
        server.run()
        records = ctx.metrics.serves
        outcomes = [record.outcome for record in records]
        assert "failed" in outcomes
        assert set(outcomes) <= {"completed", "failed"}
        assert sorted(record.arrival for record in records) == \
            [request.arrival for request in server.submitted]
        assert all(request.recorded for request in server.submitted)

    def test_failed_job_spans_close(self, tmp_path):
        # A failed job's span and its failed stage's span close at the
        # failure, marked failed, so they reach the capsule and a
        # loaded capsule answers stage queries like the live run.
        ctx, server = self.serve(1)
        path = str(tmp_path / "failed.capsule")
        recorder = RunRecorder(path, engine="monospark").attach(ctx.metrics)
        server.run()
        recorder.finalize()
        recorder.close()
        metrics = ctx.metrics
        assert [span for span in metrics.spans
                if span.kind in (SPAN_JOB, SPAN_STAGE)
                and not span.finished] == []
        failed = [record.job_id for record in metrics.serves
                  if record.outcome == "failed"]
        assert 21 in failed
        capsule = Capsule.load(path)
        for job_id in failed:
            live = metrics.stage_records(job_id)
            assert [span_to_json(s) for s in live] == \
                [span_to_json(s) for s in capsule.stage_records(job_id)]
            assert any(s.attrs.get("outcome") == "failed" for s in live)
            job_span = metrics.spans_for_job(job_id)[0]
            assert job_span.kind == SPAN_JOB
            assert job_span.attrs["outcome"] == "failed"
            assert math.isnan(metrics.jobs[job_id].end)
            assert math.isnan(capsule.jobs[job_id].end)


class TestSloAccounting:
    @staticmethod
    def _record(**kw):
        from repro.metrics.events import ServeRecord
        base = dict(tenant="t", template="wc", arrival=0.0, job_id=1,
                    dispatched=1.0, completed=3.0, outcome="completed")
        base.update(kw)
        return ServeRecord(**base)

    def test_serve_record_derived_times(self):
        record = self._record()
        assert record.queue_delay_s == 1.0
        assert record.service_s == 2.0
        assert record.latency_s == 3.0
        assert record.slo_met is None
        assert self._record(slo_s=3.0).slo_met is True
        assert self._record(slo_s=2.9).slo_met is False
        assert self._record(slo_s=10.0, outcome="failed").slo_met is False

    def test_attainment_counts_shed_against_the_tenant(self):
        from repro.serve.slo import _tenant_stats
        records = [
            self._record(slo_s=5.0),
            self._record(slo_s=5.0, completed=20.0),   # missed
            self._record(slo_s=5.0, outcome="shed", job_id=-1,
                         dispatched=float("nan"),
                         completed=float("nan")),
        ]
        stats = _tenant_stats("t", records)
        assert stats.submitted == 3
        assert stats.completed == 2
        assert stats.shed == 1
        assert stats.goodput == 1
        assert stats.attainment == pytest.approx(1.0 / 3.0)

    def test_percentiles_over_completed_latencies(self):
        from repro.serve.slo import _tenant_stats
        records = [self._record(completed=float(c)) for c in (1, 2, 3, 4)]
        stats = _tenant_stats("t", records)
        assert stats.p50_s == pytest.approx(2.5)
        assert stats.p99_s == pytest.approx(3.97)
        assert stats.mean_queue_delay_s == pytest.approx(1.0)
