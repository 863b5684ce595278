"""One driver replica: the job server's admission and dispatch loop.

A :class:`DriverReplica` owns a shard of tenants and runs its own
admitted queue, job scheduler, and sequential dispatcher over the
shared engine.  It is the only dispatcher in the codebase: a
:class:`~repro.serve.server.JobServer` runs exactly one, with zero
control cost and an optional ``max_concurrent_jobs`` cap, and a
:class:`~repro.controlplane.plane.ControlPlane` runs one per hash-ring
shard, where every dispatch costs ``control_service_s`` of driver time
-- the serialization that sharding across N replicas parallelizes.
The engine's task pool below is shared: replicas shard the *control*
plane, not the cluster.

A replica's life-cycle flags drive the control plane's failure
semantics (a plain job server never sets them):

* ``down`` -- fail-stop crash: the dispatcher and every completion
  watcher are interrupted; in-flight engine jobs keep running headless
  until an adopter re-attaches watchers from the tenant checkpoint.
* ``partitioned`` -- reachable by nobody (peers or checkpoint store)
  but still alive: the membership loop will mark it ``isolated``, which
  quiesces dispatch so a healed replica never split-brains a shard it
  no longer owns.  Completion records are fenced by the request's
  ``recorded`` flag (first writer wins) and dispatch is fenced by the
  plane's assignment table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import Interrupted, ReproError
from repro.serve.scheduler import make_scheduler
from repro.simulator import Event

if TYPE_CHECKING:
    from repro.serve.server import JobRequest

__all__ = ["DriverReplica"]


class DriverReplica:
    """One of a server's drivers; see the module docstring.

    ``max_concurrent_jobs`` bounds how many of the shard's jobs run at
    once; ``None`` releases every admitted request immediately.
    """

    def __init__(self, server, driver_id: int, policy: str,
                 max_concurrent_jobs: Optional[int] = None) -> None:
        self.server = server
        self.env = server.env
        self.engine = server.engine
        self.driver_id = driver_id
        self._policy_name = policy
        self.scheduler = make_scheduler(policy)
        self.max_concurrent_jobs = max_concurrent_jobs
        # Life-cycle.
        self.down = False
        self.partitioned = False
        self.isolated = False
        #: Set once the server has drained: the dispatcher exits.
        self.retired = False
        #: Bumped on every return to service (restart or partition
        #: heal), so each failure of this replica is failed over once.
        self.incarnation = 0
        #: Liveness view: peer id -> last heartbeat receipt time.
        self.last_heard: Dict[int, float] = {}
        #: Peers this replica currently suspects dead.
        self.suspects: set = set()
        # Shard-local serving state.
        self._queue: List[JobRequest] = []
        self._running: Dict[int, JobRequest] = {}
        self._watchers: Dict[int, object] = {}
        #: The request held by the dispatcher during its admission
        #: window (removed from the queue, not yet dispatched).
        self._admitting: Optional[JobRequest] = None
        self._registered: set = set()
        self._wakeup: Optional[Event] = None
        self._dispatcher_proc = None
        # Counters (report face).
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.crashes = 0
        self.fenced = 0
        self.control_busy_s = 0.0
        #: tenant -> {"completed": n, "failed": n} -- checkpointed and
        #: restored with the shard.
        self.tenant_counts: Dict[str, Dict[str, int]] = {}

    # -- state ---------------------------------------------------------------------

    @property
    def state(self) -> str:
        """The replica's life-cycle state, one word (report face)."""
        if self.down:
            return "down"
        if self.partitioned:
            return "partitioned"
        if self.isolated:
            return "isolated"
        return "up"

    def queue_depth(self) -> int:
        """Admitted requests waiting (the mid-admission one included)."""
        return len(self._queue) + (self._admitting is not None)

    def running_jobs(self) -> int:
        """Engine jobs this shard currently has in flight."""
        return len(self._running)

    def held_requests(self, tenant: Optional[str] = None
                      ) -> List[JobRequest]:
        """Every request this replica holds (queued, admitting, or
        in flight), optionally filtered to one tenant."""
        held = list(self._queue)
        if self._admitting is not None:
            held.append(self._admitting)
        held.extend(self._running.values())
        if tenant is not None:
            held = [r for r in held if r.tenant == tenant]
        return held

    def ensure_tenant(self, tenant: str) -> None:
        """Register ``tenant`` with the local scheduler once."""
        if tenant in self._registered:
            return
        self._registered.add(tenant)
        self.scheduler.register_tenant(
            tenant, self.server.tenants[tenant].weight)
        self.tenant_counts.setdefault(tenant, {"completed": 0, "failed": 0})

    def tenant_state(self, tenant: str) -> Dict:
        """The tenant's checkpointable soft state, canonical order."""
        queued = sorted(r.seq for r in self._queue if r.tenant == tenant)
        if (self._admitting is not None
                and self._admitting.tenant == tenant):
            # Mid-admission requests checkpoint as still queued: if the
            # driver dies inside the admission window the adopter
            # replays them rather than losing them.
            queued = sorted(queued + [self._admitting.seq])
        inflight = sorted(
            [r.plan.job_id, r.seq, r.dispatched]
            for r in self._running.values() if r.tenant == tenant)
        templates = sorted({r.template_name
                            for r in self.held_requests(tenant)})
        counts = self.tenant_counts.get(tenant,
                                        {"completed": 0, "failed": 0})
        return {
            "tenant": tenant,
            "epoch": self.server.epoch_of(tenant),
            "queued": queued,
            "inflight": inflight,
            "templates": templates,
            "virtual_time": self.scheduler.virtual_time(tenant)
            if hasattr(self.scheduler, "virtual_time") else 0.0,
            "completed": counts["completed"],
            "failed": counts["failed"],
        }

    def restore_tenant(self, tenant: str, state: Dict) -> None:
        """Adopt the checkpointed accounting for a failed-over tenant."""
        self.ensure_tenant(tenant)
        self.scheduler.restore_virtual_time(
            tenant, float(state.get("virtual_time", 0.0)))
        counts = self.tenant_counts[tenant]
        counts["completed"] = max(counts["completed"],
                                  int(state.get("completed", 0)))
        counts["failed"] = max(counts["failed"],
                               int(state.get("failed", 0)))

    # -- serving -------------------------------------------------------------------

    def enqueue(self, request: JobRequest) -> None:
        """Admit one request to this shard's queue and wake dispatch."""
        self.ensure_tenant(request.tenant)
        self._queue.append(request)
        self._kick()

    def start(self) -> None:
        """Spawn the shard's sequential dispatcher process."""
        self._dispatcher_proc = self.env.process(self._dispatcher())

    def _kick(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def kick(self) -> None:
        """Public wakeup (the plane pokes adopters after a failover)."""
        self._kick()

    def retire(self) -> None:
        """Let the dispatcher exit at its next wakeup."""
        self.retired = True
        self._kick()

    def _quiesced(self) -> bool:
        return self.down or self.isolated

    def _has_slot(self) -> bool:
        return (self.max_concurrent_jobs is None
                or len(self._running) < self.max_concurrent_jobs)

    def _dispatcher(self):
        server = self.server
        cost = server.control_service_s
        try:
            while True:
                while (self._queue and not self._quiesced()
                       and self._has_slot()):
                    request = self.scheduler.pick_next(self._queue)
                    self._queue.remove(request)
                    if server.owner_of(request.tenant) != self.driver_id:
                        # Ownership moved (we were partitioned and the
                        # shard failed over): the adopter holds the
                        # authoritative copy -- drop ours.
                        self.fenced += 1
                        server.record_driver_event(
                            "fenced", self.driver_id,
                            tenant=request.tenant,
                            detail=f"request {request.seq} now owned by "
                                   f"driver {server.owner_of(request.tenant)}")
                        continue
                    self._admitting = request
                    if cost > 0:
                        yield self.env.timeout(cost)
                    self.control_busy_s += cost
                    server.observe_control(self.driver_id, cost)
                    self._admitting = None
                    if self.down:
                        # Crashed inside the admission window; the last
                        # checkpoint still lists the request as queued,
                        # so the adopter replays it.
                        return
                    if (self.isolated or server.owner_of(request.tenant)
                            != self.driver_id):
                        self._queue.append(request)
                        break
                    self._dispatch(request)
                if self.down or self.retired:
                    return
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
        except Interrupted:
            self._wakeup = None
            return

    def _dispatch(self, request: JobRequest) -> None:
        server = self.server
        if request.plan is None:
            request.plan = request.template.instantiate(server.ctx)
        request.dispatched = self.env.now
        driver_proc = self.engine.submit_job(request.plan)
        server.register_job(request.plan.job_id, driver_proc)
        self._running[request.plan.job_id] = request
        self.dispatched += 1
        self.attach(request, driver_proc)
        server.checkpoint_tenant(self, request.tenant)

    def attach(self, request: JobRequest, driver_proc) -> None:
        """Watch an engine job for this shard (dispatch or adoption)."""
        watcher = self.env.process(self._watch(request, driver_proc))
        self._watchers[request.plan.job_id] = watcher

    def _watch(self, request: JobRequest, driver_proc):
        outcome, detail, result = "completed", "", None
        try:
            result = yield driver_proc
        except Interrupted:
            # Our driver crashed; the adopter re-attaches from the
            # checkpoint and the engine job keeps running untouched.
            return
        except ReproError as error:
            # A job may die for good (e.g. retries exhausted after an
            # unrecovered crash); the service keeps running.
            outcome, detail = "failed", type(error).__name__
        self._running.pop(request.plan.job_id, None)
        self._watchers.pop(request.plan.job_id, None)
        if self.down:
            return
        self.server.finalize(self, request, outcome, detail, result)

    # -- failure hooks (driven by the control plane) ---------------------------------

    def halt(self) -> None:
        """Fail-stop: interrupt the dispatcher and every watcher."""
        self.down = True
        self.crashes += 1
        if (self._dispatcher_proc is not None
                and self._dispatcher_proc.is_alive):
            self._dispatcher_proc.interrupt("driver crash")
        for watcher in list(self._watchers.values()):
            if watcher.is_alive:
                watcher.interrupt("driver crash")
        self._watchers.clear()

    def revive(self, now: float, num_drivers: int) -> None:
        """Return to service empty: sticky shards stay where they went."""
        self.down = False
        self.partitioned = False
        self.isolated = False
        self.incarnation += 1
        self.suspects = set()
        self.last_heard = {peer: now for peer in range(num_drivers)}
        self._queue = []
        self._running = {}
        self._watchers = {}
        self._admitting = None
        self._registered = set()
        self.scheduler = make_scheduler(self._policy_name)
        self.start()
