"""The job server: continuous multi-tenant serving on either engine.

A :class:`JobServer` wraps an :class:`~repro.api.context.AnalyticsContext`
and turns the batch engines into a long-running service: open-loop
workload sources submit job requests over time, an admission controller
sheds load it cannot absorb, a job scheduler orders the queue across
tenants, and every dispatched job is injected into the *running*
environment via :meth:`BaseEngine.submit_job`.  Completion, queueing
delay, and SLO attainment are recorded as
:class:`~repro.metrics.events.ServeRecord` entries and summarized by
:mod:`repro.serve.slo`.

The server runs one :class:`~repro.serve.replica.DriverReplica` with
zero control cost.  :class:`~repro.controlplane.plane.ControlPlane`
subclasses it to run N replicas sharded over a hash ring; everything
else -- sources, submission, admission, completion accounting and the
run life-cycle -- exists once, here.

With no admission controller, a weight-1 tenant, and a single submitted
plan, the server reduces exactly to ``engine.run_job`` -- serving is a
layer over the batch engines, not a fork of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.api.context import AnalyticsContext
from repro.api.plan import JobPlan
from repro.engine.base import JobResult
from repro.errors import ConfigError, SimulationError
from repro.metrics.events import ServeRecord
from repro.serve.admission import AdmissionController, CostEstimator
from repro.serve.replica import DriverReplica
from repro.serve.scheduler import JobScheduler
from repro.serve.slo import ServeReport
from repro.serve.workload import JobTemplate
from repro.simulator import Event
from repro.simulator.rng import RngStreams

__all__ = ["Tenant", "JobRequest", "JobServer"]


class Tenant:
    """One user of the service: a share weight and an optional SLO."""

    def __init__(self, name: str, weight: float = 1.0,
                 slo_s: Optional[float] = None) -> None:
        if not (weight > 0):
            raise ConfigError(f"tenant weight must be > 0: {weight}")
        if slo_s is not None and not (slo_s > 0):
            raise ConfigError(f"tenant SLO must be > 0 seconds: {slo_s}")
        self.name = name
        self.weight = weight
        self.slo_s = slo_s


class JobRequest:
    """One submission's life-cycle state inside the server."""

    def __init__(self, seq: int, tenant: str, template_name: str,
                 arrival: float, done: Event,
                 template: Optional[JobTemplate] = None,
                 plan: Optional[JobPlan] = None,
                 slo_s: Optional[float] = None,
                 estimate_s: Optional[float] = None) -> None:
        self.seq = seq
        self.tenant = tenant
        self.template_name = template_name
        self.arrival = arrival
        #: Fires with the JobResult on completion; fails never (shed
        #: requests succeed with None).
        self.done = done
        self.template = template
        self.plan = plan
        self.slo_s = slo_s
        self.estimate_s = estimate_s
        self.dispatched: float = float("nan")
        self.shed = False
        #: Set by the first terminal record (shed, finalize, or lose);
        #: later completions of the same request are duplicates.
        self.recorded = False
        self.result: Optional[JobResult] = None


class JobServer:
    """Continuous job serving over a batch engine.

    Usage::

        ctx = AnalyticsContext(cluster, engine="monospark",
                               scheduling_policy="fair")
        server = JobServer(ctx, admission=AdmissionController(
                               max_queued_jobs=8))
        server.add_tenant("interactive", weight=2.0, slo_s=30.0)
        server.add_workload("interactive", template,
                            PoissonArrivals(0.2, horizon_s=600))
        report = server.run()
        print(report.format())

    ``policy`` names the job scheduler ("weighted_fair", "fifo",
    "deadline").

    ``max_concurrent_jobs`` bounds the multiprogramming level: queued
    requests beyond it wait for a running job to finish, ordered by the
    job scheduler.  ``None`` releases every admitted request immediately
    (the engine's task pool then shares machines between them).
    """

    #: Driver replicas serving the tenants (a job server runs one).
    num_drivers = 1
    #: Seconds of driver time each dispatch costs.
    control_service_s = 0.0
    #: First component of every workload source's rng stream name.
    stream_prefix = "serve"
    #: Whether the dispatchers exit once the server drains, so that a
    #: finished run leaves no kernel process waiting.  A control plane's
    #: membership loop waits on regardless, and so do its replicas.
    retire_on_drain = True

    def __init__(self, ctx: AnalyticsContext,
                 admission: Optional[AdmissionController] = None,
                 policy: str = "weighted_fair",
                 max_concurrent_jobs: Optional[int] = None,
                 seed: int = 0, health=None, telemetry=None,
                 clarity=None, obs=None) -> None:
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ConfigError(
                f"max_concurrent_jobs must be >= 1: {max_concurrent_jobs}")
        self.ctx = ctx
        self.engine = ctx.engine
        self.env = ctx.engine.env
        self.metrics = ctx.metrics
        self.admission = admission
        self.rng = RngStreams(seed)
        self.tenants: Dict[str, Tenant] = {}
        self.estimator = CostEstimator(ctx.engine)
        #: Optional :class:`repro.health.HealthMonitor`: started when the
        #: server starts, stopped when the last job drains, so gray
        #: failures arising mid-stream are detected and excluded online.
        self.health = health
        #: Optional :class:`repro.trace.TelemetrySampler`: the server
        #: registers the engine's gauges plus its own (queued requests,
        #: running jobs) into the sampler's registry, runs it for the
        #: duration of the serve, and folds peak values into the report.
        self.telemetry = telemetry
        #: Optional :class:`repro.clarity.ClarityAggregator`: every
        #: completed job's critical-path attribution and stage profiles
        #: are folded into its rolling window as the job finishes, and
        #: the window's bottleneck answer lands in the report.
        self.clarity = clarity
        #: Optional :class:`repro.obs.ObservabilityPlane`: attached to
        #: the engine when the server starts, ticked for the duration
        #: of the serve, and folded into the report (firing alerts,
        #: drift verdicts, journal summary).
        self.obs = obs
        self.drivers: List[DriverReplica] = [
            DriverReplica(self, i, policy, max_concurrent_jobs)
            for i in range(self.num_drivers)]
        self._workloads: List[tuple] = []
        self._open_sources = 0
        self._seq = 0
        #: Admitted requests not yet completed/failed/lost.
        self._outstanding = 0
        #: Requests no surviving state could complete (failover only).
        self.jobs_lost = 0
        #: Fires when the server has drained; exists only during run().
        self._all_done: Optional[Event] = None
        self._ran = False

    @property
    def scheduler(self) -> JobScheduler:
        """The first driver's job scheduler (a job server's only one)."""
        return self.drivers[0].scheduler

    # -- configuration -------------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0,
                   slo_s: Optional[float] = None) -> Tenant:
        """Register a tenant; duplicate names are an error.

        Silently replacing an existing registration would rewrite the
        tenant's weight and SLO mid-stream (and desynchronize the fair
        scheduler's accumulated virtual time), so a duplicate raises
        -- mirroring the engine's duplicate-job-id check.
        """
        if name in self.tenants:
            raise SimulationError(f"tenant {name!r} is already registered")
        tenant = Tenant(name, weight=weight, slo_s=slo_s)
        self.tenants[name] = tenant
        self.drivers[self._place(name)].ensure_tenant(name)
        return tenant

    def _place(self, tenant: str) -> int:
        """Choose the driver id that will own a new tenant."""
        return 0

    def add_workload(self, tenant: str, template: JobTemplate,
                     arrivals) -> None:
        """Attach an open-loop source: ``arrivals`` times of ``template``.

        ``arrivals`` is any object with a ``times(stream)`` iterator
        (:class:`~repro.serve.workload.PoissonArrivals` et al.).  Each
        source draws from its own named rng stream, so adding a source
        never perturbs another source's trace.
        """
        if tenant not in self.tenants:
            self.add_tenant(tenant)
        index = len(self._workloads)
        self._workloads.append((tenant, template, arrivals, index))

    # -- hooks the control plane overrides -----------------------------------------

    def owner_of(self, tenant: str) -> int:
        """The driver id currently owning ``tenant``."""
        return 0

    def register_job(self, job_id: int, driver_proc) -> None:
        """Remember the engine process behind a dispatched job (only
        failover needs it)."""

    def checkpoint_tenant(self, driver: DriverReplica,
                          tenant: str) -> None:
        """Persist a tenant's shard state after a mutation (a job
        server keeps no checkpoints)."""

    def record_driver_event(self, kind: str, driver_id: int,
                            peer_id: int = -1, tenant: str = "",
                            detail: str = "") -> None:
        """Record one membership/election/failover event (a job server
        has none)."""

    def observe_control(self, driver_id: int, busy_s: float) -> None:
        """Account one dispatch's driver time (zero on a job server)."""

    # -- streaming submission --------------------------------------------------------

    def submit(self, job: Union[JobTemplate, JobPlan],
               tenant: str = "default") -> JobRequest:
        """Submit one request now (callable before or during :meth:`run`).

        Admission is decided immediately; admitted requests wait in the
        owning driver's queue for its dispatcher.  Returns the request;
        its ``done`` event fires with the :class:`JobResult` on
        completion (or with ``None`` if the request was shed or lost).
        """
        if self.drained:
            raise SimulationError(
                f"{type(self).__name__}.run() has returned: no request "
                f"submitted now would be served")
        if tenant not in self.tenants:
            self.add_tenant(tenant)
        template, plan = (job, None) if isinstance(job, JobTemplate) \
            else (None, job)
        if plan is not None and not isinstance(plan, JobPlan):
            raise ConfigError(f"submit() takes a JobTemplate or JobPlan: "
                              f"{job!r}")
        name = template.name if template is not None else plan.name
        request = JobRequest(
            seq=self._seq, tenant=tenant, template_name=name,
            arrival=self.env.now, done=self.env.event(), template=template,
            plan=plan, slo_s=self.tenants[tenant].slo_s,
            estimate_s=self.estimator.estimate(name))
        self._seq += 1
        owner = self.drivers[self.owner_of(tenant)]
        if self.admission is not None:
            admit, reason = self.admission.decide(
                request.estimate_s,
                [r.estimate_s for r in owner._queue])
            if not admit:
                request.shed = True
                request.recorded = True
                self.metrics.record_serve(ServeRecord(
                    tenant=tenant, template=name, arrival=request.arrival,
                    outcome="shed", estimate_s=request.estimate_s,
                    slo_s=request.slo_s, detail=reason))
                request.done.succeed(None)
                return request
        self._outstanding += 1
        self._route(owner, request)
        return request

    def _route(self, owner: DriverReplica, request: JobRequest) -> None:
        """Hand an admitted request to its owning driver."""
        owner.enqueue(request)
        self.checkpoint_tenant(owner, request.tenant)

    def _source(self, tenant: str, template: JobTemplate, arrivals,
                index: int):
        stream = self.rng.stream(
            f"{self.stream_prefix}/{index}/{tenant}/{template.name}")
        for at in arrivals.times(stream):
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            self.submit(template, tenant=tenant)
        self._open_sources -= 1
        self._maybe_finish()

    # -- completion accounting -----------------------------------------------------

    def finalize(self, driver: DriverReplica, request: JobRequest,
                 outcome: str, detail: str, result) -> None:
        """Record one request's terminal outcome, exactly once.

        Duplicate completions (split-brain double dispatch) hit the
        ``recorded`` fence and only clean up local state.
        """
        if request.recorded:
            driver.kick()
            return
        request.recorded = True
        request.result = result
        counts = driver.tenant_counts.setdefault(
            request.tenant, {"completed": 0, "failed": 0})
        if result is not None:
            driver.completed += 1
            counts["completed"] += 1
            driver.scheduler.credit(request.tenant, result.duration)
            self.estimator.observe(request.template_name, self.metrics,
                                   result)
            if self.clarity is not None:
                self.clarity.observe_job(self.metrics, request.plan.job_id,
                                         engine=self.engine.name,
                                         tenant=request.tenant)
        else:
            driver.failed += 1
            counts["failed"] += 1
        self.metrics.record_serve(ServeRecord(
            tenant=request.tenant, template=request.template_name,
            arrival=request.arrival, job_id=request.plan.job_id,
            dispatched=request.dispatched, completed=self.env.now,
            outcome=outcome, estimate_s=request.estimate_s,
            slo_s=request.slo_s, detail=detail))
        request.done.succeed(result)
        self._outstanding -= 1
        self.checkpoint_tenant(driver, request.tenant)
        driver.kick()
        self._maybe_finish()

    def _lose(self, request: JobRequest, reason: str) -> None:
        """Give up on a request: no surviving state can complete it."""
        if request.recorded:
            return
        request.recorded = True
        self.jobs_lost += 1
        job_id = request.plan.job_id if request.plan is not None else -1
        self.metrics.record_serve(ServeRecord(
            tenant=request.tenant, template=request.template_name,
            arrival=request.arrival, job_id=job_id,
            dispatched=request.dispatched, outcome="lost",
            estimate_s=request.estimate_s, slo_s=request.slo_s,
            detail=reason))
        self.record_driver_event("lost", self.owner_of(request.tenant),
                                 tenant=request.tenant,
                                 detail=f"request {request.seq}: {reason}")
        request.done.succeed(None)
        self._outstanding -= 1
        self._maybe_finish()

    @property
    def drained(self) -> bool:
        """Whether :meth:`run` has returned: every request is accounted
        for and none submitted now would be served."""
        return self._ran and self._all_done is None

    def _maybe_finish(self) -> None:
        if (self._open_sources == 0 and self._outstanding == 0
                and self._all_done is not None
                and not self._all_done.triggered):
            if self.retire_on_drain:
                # Woken before the run stops, so each exits now.
                for driver in self.drivers:
                    driver.retire()
            self._all_done.succeed()

    # -- driving -------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Serve until every source is exhausted and every request has
        a terminal outcome (completed, failed, shed, or lost).

        Starts the workload sources and the dispatcher, drives the
        simulation to completion, and returns the SLO report.
        """
        if self._ran:
            raise SimulationError(
                f"a {type(self).__name__} can only run once")
        self._ran = True
        self._all_done = self.env.event()
        start = self.env.now
        if self.obs is not None:
            # Attach before anything runs so the very first fault,
            # health, or driver event already lands in the journal.
            self.obs.attach(self.engine, tenants=self.tenants)
            self.obs.start()
        self._open_sources = len(self._workloads)
        for tenant, template, arrivals, index in self._workloads:
            self.env.process(self._source(tenant, template, arrivals, index))
        self._start()
        if self.health is not None:
            self.health.start()
        if self.telemetry is not None:
            registry = self.telemetry.registry
            self.engine.register_telemetry(registry)
            retention = getattr(registry, "retention_s", None)
            if retention is not None:
                # Tie hardware busy-tracker memory to the telemetry
                # horizon: a forever-run must bound both the same way.
                self.ctx.cluster.set_tracker_retention(retention)
            self._register_gauges(registry)
            self.telemetry.start()
        self._maybe_finish()
        self.env.run(until=self._all_done)
        # The server and its drivers reference each other, so an event
        # kept here would outlive the run as cyclic garbage.
        self._all_done = None
        if self.health is not None:
            self.health.stop()
        if self.telemetry is not None:
            self.telemetry.stop()
        if self.obs is not None:
            self.obs.stop()
        report = ServeReport.from_metrics(
            self.metrics, engine_name=self.engine.name,
            tenants=sorted(self.tenants),
            duration_s=self.env.now - start)
        if self.telemetry is not None:
            report.attach_telemetry(self.telemetry.registry)
        if self.clarity is not None:
            report.attach_clarity(self.clarity)
        datasvc = getattr(self.engine, "datasvc", None)
        if datasvc is not None:
            report.attach_datasvc(datasvc)
        if self.obs is not None:
            report.attach_obs(self.obs)
        return report

    def _start(self) -> None:
        """Start the drivers (after the sources, before health)."""
        for driver in self.drivers:
            driver.start()

    def _register_gauges(self, registry) -> None:
        """Register the server's own gauges after the engine's."""
        driver = self.drivers[0]
        registry.gauge(
            "repro_serve_queued_requests",
            "Admitted requests waiting for the job scheduler",
            driver.queue_depth, engine=self.engine.name)
        registry.gauge(
            "repro_serve_running_jobs",
            "Jobs currently executing on the engine",
            driver.running_jobs, engine=self.engine.name)
