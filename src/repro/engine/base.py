"""Engine-independent execution machinery.

Both engines share: the job driver (stages launch when their parents
finish), the locality-aware task pool, input resolution against the DFS /
shuffle registry / block manager, and result assembly.  Subclasses
implement two things only: how many multitasks to assign concurrently to
each machine (§3.4) and how one task actually uses the hardware -- which
is precisely the axis the paper varies.

Fault recovery is also shared: the :class:`TaskPool` tracks *attempts*
(retry with bounded exponential backoff, speculation, first finisher
wins), and :class:`BaseEngine` provides the crash/restart entry points
(:meth:`BaseEngine.crash_machine`) plus lineage-based re-execution of
lost map output.  Behavior is controlled by a
:class:`~repro.faults.policy.RecoveryPolicy`; with the default policy
and no injected faults, execution is identical to a recovery-free run.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, FrozenSet, Generator,
                    Iterator, List, Optional, Set, Tuple)

from repro.api.plan import (CachedInput, CollectOutput, DfsInput, DfsOutput,
                            JobPlan, LocalInput, ShuffleInput, ShuffleOutput,
                            Stage, TaskDescriptor)
from repro.cluster.blockmanager import BlockManager
from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.config import CostModel
from repro.datamodel.records import Partition
from repro.datamodel.serialization import DESERIALIZED
from repro.datamodel.shuffle import MapOutputRegistry
from repro.engine.semantics import ResolvedInput, TaskWork, compute_task_work
from repro.errors import (ExecutionError, FaultError, FetchFailed,
                          Interrupted, LinkPartitionError, ReproError,
                          SimulationError, TaskFailedError)
from repro.faults.policy import (MAX_ATTEMPTS, MAX_FETCH_RETRIES,
                                 SPECULATION_MIN_COMPLETED_FRACTION,
                                 SPECULATION_MULTIPLIER,
                                 SPECULATION_PERCENTILE, RecoveryPolicy)
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import SpeculationRecord
from repro.simulator import Environment, Event, Process
from repro.trace.spans import TraceContext
from repro.trace.telemetry import TelemetryRegistry

__all__ = ["JobResult", "TaskPool", "BaseEngine"]


class JobResult:
    """What an action returns: timing plus any collected data."""

    def __init__(self, job_id: int, name: str, start: float,
                 end: float) -> None:
        self.job_id = job_id
        self.name = name
        self.start = start
        self.end = end
        #: Records per final-stage task (CollectOutput only).
        self.collected: Optional[List[List[Any]]] = None
        #: Modeled record count (CollectOutput(count_only=True)).
        self.count: Optional[float] = None

    @property
    def duration(self) -> float:
        """Job wall-clock seconds."""
        return self.end - self.start

    def all_records(self) -> List[Any]:
        """All collected records, in task-index order."""
        if self.collected is None:
            raise ExecutionError("job did not collect records")
        records: List[Any] = []
        for task_records in self.collected:
            records.extend(task_records)
        return records


class _Attempt:
    """One try at running a task on one machine."""

    __slots__ = ("state", "number", "speculative", "avoid", "process",
                 "machine_id", "started_at", "trace", "cause")

    def __init__(self, state: "_TaskState", number: int,
                 speculative: bool = False,
                 avoid: FrozenSet[int] = frozenset(),
                 cause: str = "") -> None:
        self.state = state
        self.number = number
        self.speculative = speculative
        #: Machines this attempt should not be placed on (speculative
        #: copies avoid the straggler's machine).
        self.avoid = avoid
        self.process: Optional[Process] = None
        self.machine_id: Optional[int] = None
        self.started_at: float = 0.0
        #: Span context opened at dispatch; monotasks parent under it.
        self.trace: Optional[TraceContext] = None
        #: Why this attempt exists ("" for a task's first attempt;
        #: "straggler" / "health-redispatch" for speculative copies).
        self.cause = cause


class _TaskState:
    """A task's retry/speculation bookkeeping across attempts."""

    __slots__ = ("descriptor", "done", "failures", "fetch_failures",
                 "active", "finished", "committed", "speculated",
                 "completed_duration", "next_attempt")

    def __init__(self, descriptor: TaskDescriptor, done: Event) -> None:
        self.descriptor = descriptor
        self.done = done
        self.failures = 0
        self.fetch_failures = 0
        #: attempt number -> running _Attempt.
        self.active: Dict[int, _Attempt] = {}
        self.finished = False
        self.committed = False
        self.speculated = False
        self.completed_duration: Optional[float] = None
        self.next_attempt = 1


class TaskPool:
    """Assigns pending task attempts to per-machine execution slots.

    ``concurrency[machine_id]`` tasks run concurrently on each machine.
    A central dispatcher (standing in for the job scheduler's driver)
    assigns pending attempts in FIFO order, placing each on the free
    machine it prefers (data locality) when possible and otherwise on
    the free machine with the most idle slots.  Spark would wait out a
    locality delay before running a task remotely; immediate remote
    placement approximates the expired-delay case and keeps both
    engines' placement identical.

    Failure handling follows the ``recovery`` policy: attempts that
    raise retry with exponential backoff until ``MAX_ATTEMPTS``;
    attempts killed by a crash or a lost speculation race requeue for
    free; fetch failures run the ``on_fetch_failed`` recovery hook
    (lineage re-execution) before retrying.  The first attempt to
    finish wins -- it claims the commit via :meth:`try_claim_commit`
    and any other live attempt of the task is interrupted.
    """

    def __init__(self, env: Environment, machines: List[Machine],
                 concurrency: Dict[int, int],
                 run_task: Callable[[TaskDescriptor, Machine, TraceContext],
                                    Generator],
                 metrics: MetricsCollector,
                 on_fetch_failed: Callable[[FetchFailed], Generator],
                 policy: str = "fifo",
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        if policy not in ("fifo", "fair"):
            raise ExecutionError(f"unknown scheduling policy: {policy!r}")
        self.env = env
        self.machines = {m.machine_id: m for m in machines}
        #: ``trace`` is the attempt's span context, so monotasks parent
        #: under it.
        self.run_task = run_task
        #: "fifo" serves pending tasks in submission order; "fair"
        #: round-robins across jobs (the §8 "share machines between
        #: different users" policy).
        self.policy = policy
        self.recovery = recovery or RecoveryPolicy()
        self.metrics = metrics
        #: Generator called with a FetchFailed before the retry; used by
        #: the engine to re-execute the lineage of lost map output.
        self.on_fetch_failed = on_fetch_failed
        self.pending: Deque[_Attempt] = deque()
        self.free_slots: Dict[int, int] = dict(concurrency)
        self._concurrency: Dict[int, int] = dict(concurrency)
        self._states: Dict[str, _TaskState] = {}
        self._dead: Set[int] = set()
        #: Health-excluded machines: alive but not schedulable.
        self._excluded: Set[int] = set()
        #: machine -> probe-slot cap while on probation.
        self._probation_caps: Dict[int, int] = {}
        self._last_job_served: Optional[int] = None

    def submit(self, descriptor: TaskDescriptor) -> Event:
        """Queue a task; the event fires when it completes."""
        done = self.env.event()
        state = _TaskState(descriptor, done)
        self._states[descriptor.task_id] = state
        self._requeue(state)
        self._dispatch()
        return done

    # -- fault-recovery API --------------------------------------------------------

    def try_claim_commit(self, task_id: str) -> bool:
        """First-finisher-wins: True exactly once per task.

        An attempt must claim the commit before publishing its outputs,
        so a speculation loser (or an attempt that survived past a
        crash) cannot register a second copy.
        """
        state = self._states.get(task_id)
        if state is None or state.committed or state.finished:
            return False
        state.committed = True
        return True

    def resubmit(self, descriptor: TaskDescriptor) -> Event:
        """Re-execute a completed task (lineage recovery).

        If the task is already pending or running again, returns the
        existing completion event instead of queueing a duplicate.
        """
        state = self._states.get(descriptor.task_id)
        if state is not None and not state.done.triggered:
            return state.done
        done = self.env.event()
        state = _TaskState(descriptor, done)
        self._states[descriptor.task_id] = state
        self._requeue(state)
        self._dispatch()
        return done

    def set_machine_dead(self, machine_id: int) -> None:
        """Stop placing work on a machine and kill its running attempts."""
        self._dead.add(machine_id)
        for state in self._states.values():
            for attempt in list(state.active.values()):
                if attempt.machine_id != machine_id:
                    continue
                process = attempt.process
                if process is not None and process.is_alive \
                        and process.target is not None:
                    process.interrupt(cause="machine-crash")

    def set_machine_alive(self, machine_id: int) -> None:
        """A machine restarted: resume placing work on it."""
        self._dead.discard(machine_id)
        self._dispatch()

    def set_machine_excluded(self, machine_id: int) -> None:
        """Health exclusion: stop placing new work on a machine.

        Unlike :meth:`set_machine_dead` nothing is killed -- the machine
        is slow, not gone, so in-flight attempts may still finish (and
        :meth:`redispatch_from` races duplicates against them).
        """
        self._excluded.add(machine_id)
        self._probation_caps.pop(machine_id, None)

    def set_machine_probation(self, machine_id: int, slots: int) -> None:
        """Allow at most ``slots`` concurrent probe attempts on a
        previously excluded machine."""
        self._excluded.discard(machine_id)
        self._probation_caps[machine_id] = max(1, slots)
        self._dispatch()

    def set_machine_schedulable(self, machine_id: int) -> None:
        """Fully reinstate a machine after probation."""
        self._excluded.discard(machine_id)
        self._probation_caps.pop(machine_id, None)
        self._dispatch()

    def redispatch_from(self, machine_id: int) -> int:
        """Speculatively duplicate in-flight work away from a machine.

        Used when health monitoring excludes a fail-slow machine: its
        running attempts are not killed (they might still win), but each
        gets a duplicate elsewhere via the normal speculation path.
        Returns the number of duplicates launched.
        """
        launched = 0
        for task_id, state in list(self._states.items()):
            if state.finished or state.speculated:
                continue
            if len(state.active) != 1:
                continue
            attempt = next(iter(state.active.values()))
            if attempt.machine_id != machine_id:
                continue
            if self.speculate(task_id, cause="health-redispatch"):
                launched += 1
        return launched

    def speculate(self, task_id: str, cause: str = "straggler") -> bool:
        """Launch a duplicate attempt of a straggling task.

        Refused (returns False) unless the task has exactly one running
        attempt, no pending attempt, and has not been speculated before.
        The duplicate avoids the straggler's machine; whichever attempt
        finishes first wins and the other is interrupted.
        """
        state = self._states.get(task_id)
        if state is None or state.finished or state.speculated:
            return False
        if len(state.active) != 1:
            return False
        if any(attempt.state is state for attempt in self.pending):
            return False
        original = next(iter(state.active.values()))
        if original.machine_id is None:
            return False
        state.speculated = True
        attempt = _Attempt(state, state.next_attempt, speculative=True,
                           avoid=frozenset({original.machine_id}),
                           cause=cause)
        state.next_attempt += 1
        self.pending.append(attempt)
        descriptor = state.descriptor
        self.metrics.record_speculation(SpeculationRecord(
            job_id=descriptor.job_id, stage_id=descriptor.stage_id,
            task_index=descriptor.index, at=self.env.now,
            original_machine_id=original.machine_id))
        self._dispatch()
        return True

    def stage_progress(self, job_id: int, stage_id: int
                       ) -> Tuple[List[float], List[Tuple[str, float]]]:
        """(completed durations, running (task_id, started_at)) of a stage."""
        completed: List[float] = []
        running: List[Tuple[str, float]] = []
        for state in self._states.values():
            descriptor = state.descriptor
            if descriptor.job_id != job_id or \
                    descriptor.stage_id != stage_id:
                continue
            if state.finished and state.completed_duration is not None:
                completed.append(state.completed_duration)
            else:
                for attempt in state.active.values():
                    running.append((descriptor.task_id, attempt.started_at))
        return completed, running

    # -- scheduling ----------------------------------------------------------------

    def _requeue(self, state: _TaskState, speculative: bool = False,
                 avoid: FrozenSet[int] = frozenset()) -> _Attempt:
        attempt = _Attempt(state, state.next_attempt, speculative, avoid)
        state.next_attempt += 1
        self.pending.append(attempt)
        return attempt

    def _next_pending(self) -> Optional[_Attempt]:
        """The attempt to place next, honoring the scheduling policy."""
        if not self.pending:
            return None
        if self.policy == "fifo":
            return self.pending[0]
        # Fair: prefer the next job after the one served last.
        job_ids = sorted({a.state.descriptor.job_id for a in self.pending})
        if self._last_job_served in job_ids:
            start = job_ids.index(self._last_job_served) + 1
        else:
            start = 0
        target = job_ids[start % len(job_ids)]
        for attempt in self.pending:
            if attempt.state.descriptor.job_id == target:
                return attempt
        return self.pending[0]

    def _usable(self, machine_id: int, attempt: _Attempt) -> bool:
        if (machine_id in self._dead or machine_id in self._excluded
                or machine_id in attempt.avoid
                or self.free_slots.get(machine_id, 0) <= 0):
            return False
        cap = self._probation_caps.get(machine_id)
        if cap is not None:
            in_flight = (self._concurrency[machine_id]
                         - self.free_slots[machine_id])
            if in_flight >= cap:
                return False
        return True

    def _choose_machine(self, attempt: _Attempt) -> Optional[int]:
        """Freest preferred machine, else the freest machine overall."""
        task = attempt.state.descriptor
        preferred = [m for m in task.preferred_machines
                     if self._usable(m, attempt)]
        if preferred:
            return max(preferred, key=lambda m: (self.free_slots[m], -m))
        candidates = [m for m in self.free_slots
                      if self._usable(m, attempt)]
        if not candidates:
            return None
        return max(candidates, key=lambda m: (self.free_slots[m], -m))

    def _dispatch(self) -> None:
        # Place attempts until the next candidate is unplaceable, so the
        # policy's ordering is respected (like a driver's task queue).
        while self.pending:
            attempt = self._next_pending()
            machine_id = self._choose_machine(attempt)
            if machine_id is None:
                return
            self.pending.remove(attempt)
            state = attempt.state
            self._last_job_served = state.descriptor.job_id
            self.free_slots[machine_id] -= 1
            attempt.machine_id = machine_id
            attempt.started_at = self.env.now
            descriptor = state.descriptor
            attempt.trace = self.metrics.attempt_started(
                descriptor.job_id, descriptor.stage_id, descriptor.index,
                attempt.number, machine_id, self.env.now,
                speculative=attempt.speculative, cause=attempt.cause)
            state.active[attempt.number] = attempt
            attempt.process = self.env.process(
                self._run(attempt, self.machines[machine_id]))

    # -- attempt lifecycle ---------------------------------------------------------

    def _run(self, attempt: _Attempt, machine: Machine) -> Generator:
        state = attempt.state
        outcome = "success"
        error: Optional[BaseException] = None
        try:
            # The machine may have crashed between dispatch and startup.
            if machine.machine_id in self._dead:
                raise Interrupted("machine-crash")
            # Run the task body *inline* (not as a child process) so an
            # interrupt lands in the frame doing the work and unwinds
            # its finally blocks before any commit can happen.
            yield from self.run_task(state.descriptor, machine,
                                     attempt.trace)
        except FetchFailed as exc:
            outcome, error = "fetch-failed", exc
        except Interrupted as exc:
            outcome, error = "killed", exc
        except ReproError as exc:
            outcome, error = "failed", exc
        finally:
            # Anything else propagates and fails the run loudly.
            self.free_slots[machine.machine_id] += 1
            state.active.pop(attempt.number, None)
        self._record_attempt(attempt, outcome, error)
        if outcome == "success":
            if not state.finished:
                state.finished = True
                state.completed_duration = self.env.now - attempt.started_at
                for loser in list(state.active.values()):
                    process = loser.process
                    if process is not None and process.is_alive \
                            and process.target is not None:
                        process.interrupt(cause="speculation-lost")
                state.done.succeed()
        else:
            self._handle_failure(state, attempt, outcome, error)
        self._dispatch()

    def _record_attempt(self, attempt: _Attempt, outcome: str,
                        error: Optional[BaseException]) -> None:
        if error is None:
            detail = ""
        elif isinstance(error, Interrupted):
            detail = str(error.cause) if error.cause is not None \
                else "interrupted"
        else:
            detail = type(error).__name__
        self.metrics.attempt_finished(attempt.trace, self.env.now,
                                      outcome, detail)

    def _handle_failure(self, state: _TaskState, attempt: _Attempt,
                        outcome: str,
                        error: Optional[BaseException]) -> None:
        if state.finished or state.done.triggered:
            return
        if state.active:
            return  # Another attempt of the task is still running.
        task_id = state.descriptor.task_id
        if outcome == "killed":
            # Crash/speculation kills are nobody's fault: retry now,
            # without burning an attempt.
            self._requeue(state)
            return
        if outcome == "fetch-failed":
            state.fetch_failures += 1
            if state.fetch_failures > MAX_FETCH_RETRIES:
                state.done.fail(TaskFailedError(
                    f"task {task_id}: shuffle input still missing after "
                    f"{MAX_FETCH_RETRIES} recoveries"))
                return
            self.env.process(self._recover_and_requeue(state, error))
            return
        state.failures += 1
        if state.failures >= MAX_ATTEMPTS:
            state.done.fail(TaskFailedError(
                f"task {task_id} failed after {state.failures} "
                f"attempts: {error}"))
            return
        # A partitioned fetch would fail identically on the same
        # destination; retry the task on a different machine.
        avoid: FrozenSet[int] = frozenset()
        if isinstance(error, LinkPartitionError) \
                and attempt.machine_id is not None \
                and len(self.machines) > 1:
            avoid = frozenset({attempt.machine_id})
        self.env.process(self._backoff_and_requeue(state, avoid))

    def _backoff_and_requeue(self, state: _TaskState,
                             avoid: FrozenSet[int] = frozenset()
                             ) -> Generator:
        yield self.env.timeout(self.recovery.backoff_s(state.failures))
        if state.done.triggered:
            return
        self._requeue(state, avoid=avoid)
        self._dispatch()

    def _recover_and_requeue(self, state: _TaskState,
                             error: FetchFailed) -> Generator:
        yield from self.on_fetch_failed(error)
        if state.done.triggered:
            return
        self._requeue(state)
        self._dispatch()


class BaseEngine:
    """Shared driver: subclasses provide task execution and concurrency."""

    name = "base"

    def __init__(self, cluster: Cluster,
                 cost_model: Optional[CostModel] = None,
                 metrics: Optional[MetricsCollector] = None,
                 scheduling_policy: str = "fifo",
                 recovery: Optional[RecoveryPolicy] = None,
                 datasvc=None) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.cost = cost_model or CostModel()
        self.metrics = metrics or MetricsCollector()
        self.recovery = recovery or RecoveryPolicy()
        self.block_manager = BlockManager(cluster)
        self.block_manager.metrics = self.metrics
        self.map_outputs = MapOutputRegistry()
        #: (job_id, stage_id, task_index) -> collected records / count.
        self._task_outputs: Dict[Tuple[int, int, int], Any] = {}
        #: job_id -> [(machine_id, bytes)] of in-memory shuffle data,
        #: released when the job completes (shuffles are intra-job).
        self._in_memory_shuffle: Dict[int, List[Tuple[int, float]]] = {}
        #: job_id -> plan, kept for lineage re-execution.
        self._plans: Dict[int, JobPlan] = {}
        #: shuffle_id -> in-flight recovery barrier (dedupes recoveries).
        self._recovering: Dict[int, Event] = {}
        self._dead_machines: Set[int] = set()
        self._excluded_machines: Set[int] = set()
        #: Optional disaggregated data tier (:mod:`repro.datasvc`): when
        #: set, shuffle output and DFS output blocks live on dedicated
        #: storage nodes instead of worker-local disks.
        self.datasvc = datasvc
        if datasvc is not None:
            datasvc.attach_engine(self)
        #: Optional sharded control plane (:mod:`repro.controlplane`):
        #: set by :meth:`ControlPlane.attach_engine` so fault injection
        #: and telemetry can reach the driver replicas through the
        #: engine, mirroring ``datasvc``.
        self.controlplane = None
        # New DFS replicas avoid the machines the scheduler avoids.
        cluster.dfs.set_exclusion_provider(
            lambda: self._dead_machines | self._excluded_machines)
        self.pool = TaskPool(
            self.env, cluster.machines,
            {m.machine_id: self.concurrency_for(m) for m in cluster.machines},
            self._execute_task, self.metrics, self._recover_fetch,
            policy=scheduling_policy, recovery=self.recovery)

    # -- subclass hooks ------------------------------------------------------------

    def concurrency_for(self, machine: Machine) -> int:
        """How many multitasks to assign concurrently to a machine (§3.4)."""
        raise NotImplementedError

    def run_task_on_machine(self, work: TaskWork,
                            machine: Machine) -> Generator:
        """Drive one task's resource use; must yield simulation events.

        Returns the disk index the task's output was written to (or
        None); the engine commits outputs after the attempt wins."""
        raise NotImplementedError

    def _fail_worker(self, machine_id: int) -> None:
        """Engine-specific crash hook (monospark kills its schedulers)."""

    def _revive_worker(self, machine_id: int) -> None:
        """Engine-specific restart hook."""

    def probation_slots_for(self, machine: Machine) -> int:
        """Concurrent probe attempts allowed on a machine in probation."""
        return 1

    def health_estimator(self):
        """The engine's per-machine rate estimator for health monitoring.

        MonoSpark attributes observed rates to cpu/disk/network from its
        per-resource monotask records; Spark can only estimate a blended
        task-level rate (§6.6's observability contrast, online)."""
        raise NotImplementedError

    def register_telemetry(self, telemetry: TelemetryRegistry) -> None:
        """Register the engine's live gauges into ``telemetry``.

        The base set reads scheduler and simulator state directly:
        pending task backlog, per-machine busy slots, health-excluded
        machine count, outstanding network flows, and per-machine
        buffer-cache dirty bytes.  Subclasses extend (MonoSpark adds
        per-resource queue depths -- per-resource queues only exist
        there).
        """
        telemetry.gauge(
            "repro_pending_tasks",
            "Task attempts waiting for a free execution slot",
            lambda: len(self.pool.pending), engine=self.name)
        telemetry.gauge(
            "repro_excluded_machines",
            "Machines excluded (or on probation) by health monitoring",
            lambda: len(self._excluded_machines), engine=self.name)
        telemetry.gauge(
            "repro_network_flows",
            "Outstanding network flows cluster-wide",
            lambda: self.cluster.network.active_flows, engine=self.name)
        for machine in self.cluster.machines:
            machine_id = machine.machine_id
            telemetry.gauge(
                "repro_busy_task_slots",
                "Execution slots currently running a task attempt",
                lambda m=machine_id: (self.pool._concurrency[m]
                                      - self.pool.free_slots[m]),
                engine=self.name, machine=machine_id)
            telemetry.gauge(
                "repro_buffer_cache_dirty_bytes",
                "Buffer-cache bytes not yet flushed to disk",
                lambda c=machine.cache: c.dirty_bytes,
                engine=self.name, machine=machine_id)
        telemetry.counter(
            "repro_cache_invalidated_partitions",
            "Cached RDD partitions lost to machine invalidation",
            lambda: float(self.block_manager.invalidated_partitions),
            engine=self.name)
        if self.datasvc is not None:
            self.datasvc.register_telemetry(telemetry)
        if self.controlplane is not None:
            self.controlplane.register_telemetry(telemetry)

    # -- public API ---------------------------------------------------------------

    @property
    def schedulable_machine_count(self) -> int:
        """Machines the scheduler will place new work on: alive and not
        health-excluded (probation machines count as excluded -- their
        probe slots are not real capacity)."""
        return self.cluster.num_machines - len(
            self._dead_machines | self._excluded_machines)

    @property
    def excluded_machines(self) -> FrozenSet[int]:
        """Machines currently excluded (or on probation) by health."""
        return frozenset(self._excluded_machines)

    def machine_is_dead(self, machine_id: int) -> bool:
        """Whether a machine is currently crashed."""
        return machine_id in self._dead_machines

    def run_job(self, plan: JobPlan) -> JobResult:
        """Run one job to completion."""
        return self.run_jobs([plan])[0]

    def run_jobs(self, plans: List[JobPlan]) -> List[JobResult]:
        """Run jobs concurrently; returns once all complete."""
        seen: Set[int] = set()
        for plan in plans:
            if plan.job_id in seen:
                raise SimulationError(
                    f"duplicate job id {plan.job_id} in batch (job ids key "
                    f"results and shuffle lineage; compile each job once)")
            seen.add(plan.job_id)
        drivers = [self.submit_job(plan) for plan in plans]
        self.env.run(until=self.env.all_of(drivers))
        return [driver.value for driver in drivers]

    def submit_job(self, plan: JobPlan) -> Process:
        """Inject a job into a (possibly already running) environment.

        Unlike :meth:`run_jobs`, this does not drive the event loop: it
        starts the job's driver process and returns it, so callers like
        :class:`repro.serve.JobServer` can stream jobs in while earlier
        jobs are still executing.  The returned :class:`Process` is an
        event whose value is the job's :class:`JobResult`.
        """
        if plan.job_id in self._plans:
            raise SimulationError(
                f"job id {plan.job_id} was already submitted to this engine")
        self._plans[plan.job_id] = plan
        return self.env.process(self._job_driver(plan))

    # -- fault entry points --------------------------------------------------------

    def crash_machine(self, machine_id: int) -> None:
        """Fail-stop one machine: lose its volatile state and in-flight
        work, kill its attempts, and invalidate data it was serving.

        Ordering matters: running attempts are interrupted *before* the
        hardware fails, so their interrupts (not cascading hardware
        errors) unwind them; registries are invalidated synchronously so
        any task resolving inputs afterwards sees the loss immediately.
        """
        if machine_id in self._dead_machines:
            return
        machine = self.cluster.machine(machine_id)
        self._dead_machines.add(machine_id)
        self.pool.set_machine_dead(machine_id)
        self._fail_worker(machine_id)
        for disk in machine.disks:
            disk.fail_all()
        machine.cache.crash()
        self.cluster.network.set_machine_up(machine_id, False)
        self.cluster.network.fail_machine(machine_id)
        self.map_outputs.invalidate_machine(machine_id)
        self.block_manager.invalidate_machine(machine_id)
        self._drop_in_memory_shuffle(machine_id)

    def restart_machine(self, machine_id: int) -> None:
        """Bring a crashed machine back, empty but healthy.

        Data on its disks (DFS blocks) is readable again; everything
        that lived in memory stays lost."""
        if machine_id not in self._dead_machines:
            return
        machine = self.cluster.machine(machine_id)
        self._dead_machines.discard(machine_id)
        for disk in machine.disks:
            disk.revive()
        self.cluster.network.set_machine_up(machine_id, True)
        self._revive_worker(machine_id)
        self.pool.set_machine_alive(machine_id)

    def fail_disk(self, machine_id: int, disk_index: int) -> None:
        """Fail one disk permanently; shuffle output on it is lost."""
        machine = self.cluster.machine(machine_id)
        machine.disks[disk_index].fail_all()
        self.map_outputs.invalidate_disk(machine_id, disk_index)

    # -- health exclusion entry points ---------------------------------------------

    def exclude_machine(self, machine_id: int) -> int:
        """Stop scheduling on a fail-slow machine and speculatively
        re-dispatch its in-flight work elsewhere.

        The machine stays up -- its data remains fetchable and running
        attempts may still win -- in contrast to :meth:`crash_machine`.
        Returns the number of duplicates launched.
        """
        self._excluded_machines.add(machine_id)
        self.pool.set_machine_excluded(machine_id)
        return self.pool.redispatch_from(machine_id)

    def probation_machine(self, machine_id: int) -> None:
        """Move an excluded machine to probation: a bounded number of
        probe attempts (see :meth:`probation_slots_for`) may land on it
        so the monitor can observe fresh rates, but it still does not
        count as schedulable capacity."""
        machine = self.cluster.machine(machine_id)
        self._excluded_machines.add(machine_id)
        self.pool.set_machine_probation(
            machine_id, self.probation_slots_for(machine))

    def reinstate_machine(self, machine_id: int) -> None:
        """Fully return a machine to service after probation."""
        self._excluded_machines.discard(machine_id)
        self.pool.set_machine_schedulable(machine_id)

    # -- lineage re-execution ------------------------------------------------------

    def _recover_fetch(self, error: FetchFailed) -> Generator:
        """Re-run the map tasks whose output a reducer found missing.

        Recoveries are deduplicated per shuffle: concurrent fetch
        failures of the same shuffle wait on one recovery barrier.
        """
        shuffle_id = error.shuffle_id
        existing = self._recovering.get(shuffle_id)
        if existing is not None and not existing.triggered:
            yield existing
            return
        barrier = self.env.event()
        self._recovering[shuffle_id] = barrier
        try:
            missing = set(self.map_outputs.missing_maps(shuffle_id))
            dones = [self.pool.resubmit(descriptor)
                     for descriptor in self._map_descriptors(shuffle_id)
                     if descriptor.index in missing]
            if dones:
                yield self.env.all_of(dones)
        finally:
            if not barrier.triggered:
                barrier.succeed()

    def _map_descriptors(self, shuffle_id: int) -> Iterator[TaskDescriptor]:
        """The map-side task descriptors of a shuffle, from saved plans."""
        for plan in self._plans.values():
            for stage in plan.stages:
                for task in stage.tasks:
                    output = task.output
                    if isinstance(output, ShuffleOutput) and \
                            output.shuffle_id == shuffle_id:
                        yield task

    # -- job driving ---------------------------------------------------------------

    def _job_driver(self, plan: JobPlan) -> Generator:
        self.metrics.job_started(plan.job_id, plan.name, self.env.now)
        start = self.env.now
        self._prepare_outputs(plan)
        stage_done: Dict[int, Event] = {
            stage.stage_id: self.env.event() for stage in plan.stages}
        for stage in plan.stages:
            self.env.process(self._stage_runner(plan, stage, stage_done))
        try:
            yield self.env.all_of(list(stage_done.values()))
        except TaskFailedError:
            self.metrics.job_finished(plan.job_id, self.env.now, failed=True)
            raise
        self._release_in_memory_shuffle(plan.job_id)
        self.metrics.job_finished(plan.job_id, self.env.now)
        return self._assemble_result(plan, start)

    def note_in_memory_shuffle(self, job_id: int, machine: Machine,
                               nbytes: float) -> None:
        """Account shuffle data held in worker memory until job end."""
        machine.memory.acquire(nbytes)
        self._in_memory_shuffle.setdefault(job_id, []).append(
            (machine.machine_id, nbytes))

    def _release_in_memory_shuffle(self, job_id: int) -> None:
        for machine_id, nbytes in self._in_memory_shuffle.pop(job_id, []):
            self.cluster.machine(machine_id).memory.release(nbytes)

    def _drop_in_memory_shuffle(self, machine_id: int) -> None:
        """A crash loses in-memory shuffle data held on the machine."""
        for job_id, entries in self._in_memory_shuffle.items():
            kept: List[Tuple[int, float]] = []
            for mid, nbytes in entries:
                if mid == machine_id:
                    self.cluster.machine(mid).memory.release(nbytes)
                else:
                    kept.append((mid, nbytes))
            self._in_memory_shuffle[job_id] = kept

    def _prepare_outputs(self, plan: JobPlan) -> None:
        for stage in plan.stages:
            for task in stage.tasks:
                output = task.output
                if isinstance(output, ShuffleOutput):
                    self.map_outputs.expect_maps(output.shuffle_id,
                                                 stage.num_tasks)
                    break  # Same output spec for every task in the stage.
                if isinstance(output, DfsOutput):
                    if not self.cluster.dfs.exists(output.file_name):
                        self.cluster.dfs.open_output_file(output.file_name)
                    break
                break

    def _stage_runner(self, plan: JobPlan, stage: Stage,
                      stage_done: Dict[int, Event]) -> Generator:
        """Run one stage once its parents are done.

        A task that fails for good fails this stage's ``stage_done``
        event (closing the stage's span as failed), and the failure
        cascades: each child stage's parent wait fails in turn.  The job
        driver waits on every ``stage_done`` event, so the job fails
        instead of the run.
        """
        started = False
        try:
            if stage.parent_stage_ids:
                yield self.env.all_of(
                    [stage_done[parent] for parent in stage.parent_stage_ids])
            self.metrics.stage_started(
                plan.job_id, stage.stage_id, stage.name, stage.num_tasks,
                self.env.now, parent_stage_ids=stage.parent_stage_ids)
            started = True
            task_events = [self.pool.submit(task) for task in stage.tasks]
            if task_events:
                barrier = self.env.all_of(task_events)
                if self.recovery.speculation and len(stage.tasks) > 1:
                    self.env.process(
                        self._speculation_monitor(plan.job_id, stage,
                                                  barrier))
                yield barrier
        except TaskFailedError as exc:
            if started:
                self.metrics.stage_finished(plan.job_id, stage.stage_id,
                                            self.env.now, failed=True)
            stage_done[stage.stage_id].fail(exc)
            return
        self.metrics.stage_finished(plan.job_id, stage.stage_id, self.env.now)
        stage_done[stage.stage_id].succeed()

    def _speculation_monitor(self, job_id: int, stage: Stage,
                             barrier: Event) -> Generator:
        """Launch duplicates of stragglers until the stage finishes.

        A running task is a straggler once enough siblings completed and
        it has run longer than ``SPECULATION_MULTIPLIER`` x the
        ``SPECULATION_PERCENTILE`` of their durations."""
        policy = self.recovery
        while not barrier.triggered:
            yield self.env.timeout(policy.speculation_interval_s)
            if barrier.triggered:
                return
            completed, running = self.pool.stage_progress(
                job_id, stage.stage_id)
            if not running:
                continue
            needed = max(
                2.0, stage.num_tasks * SPECULATION_MIN_COMPLETED_FRACTION)
            if len(completed) < needed:
                continue
            durations = sorted(completed)
            index = min(len(durations) - 1,
                        int(len(durations) * SPECULATION_PERCENTILE))
            threshold = durations[index] * SPECULATION_MULTIPLIER
            for task_id, started_at in running:
                if self.env.now - started_at > threshold:
                    self.pool.speculate(task_id)

    # -- task execution wrapper -----------------------------------------------------

    def _execute_task(self, descriptor: TaskDescriptor, machine: Machine,
                      trace: TraceContext) -> Generator:
        inputs = self._resolve_inputs(descriptor, machine)
        work = compute_task_work(descriptor, inputs, self.cost)
        work.trace = trace
        out_disk = yield from self.run_task_on_machine(work, machine)
        if self.pool.try_claim_commit(descriptor.task_id):
            self._commit_outputs(work, machine, out_disk)
            self._finalize_task(work, machine)

    def _commit_outputs(self, work: TaskWork, machine: Machine,
                        out_disk: Optional[int]) -> None:
        """Publish a winning attempt's outputs (exactly once per task)."""
        output = work.descriptor.output
        if isinstance(output, ShuffleOutput):
            if output.in_memory:
                # Shuffle data stays resident until the job ends.
                self.note_in_memory_shuffle(
                    work.descriptor.job_id, machine,
                    work.output_stored_bytes)
                self.register_shuffle_output(work, machine, None)
            else:
                self.register_shuffle_output(work, machine, out_disk)
        elif isinstance(output, DfsOutput):
            self.register_dfs_output(
                work, machine, out_disk if out_disk is not None else 0)

    def _finalize_task(self, work: TaskWork, machine: Machine) -> None:
        descriptor = work.descriptor
        output = descriptor.output
        if isinstance(output, CollectOutput):
            key = (descriptor.job_id, descriptor.stage_id, descriptor.index)
            if output.count_only:
                self._task_outputs[key] = work.output_partition.record_count
            else:
                self._task_outputs[key] = list(work.output_partition.records)
        if descriptor.cache is not None and work.cache_partition is not None:
            self.block_manager.put(
                descriptor.cache.rdd_id, descriptor.index,
                machine.machine_id, work.cache_partition,
                descriptor.cache.fmt)

    # -- input resolution -------------------------------------------------------------

    def _resolve_inputs(self, descriptor: TaskDescriptor,
                        machine: Machine) -> List[ResolvedInput]:
        spec = descriptor.input
        if isinstance(spec, DfsInput):
            return [self._resolve_dfs_input(spec, machine)]
        if isinstance(spec, LocalInput):
            return [ResolvedInput(partition=spec.partition, stored_bytes=0.0,
                                  fmt=DESERIALIZED, machine_id=None,
                                  in_memory=True)]
        if isinstance(spec, CachedInput):
            location, partition, fmt = self.block_manager.get(
                spec.rdd_id, spec.partition_index)
            return [ResolvedInput(partition=partition,
                                  stored_bytes=partition.data_bytes,
                                  fmt=fmt, machine_id=location,
                                  in_memory=True)]
        if isinstance(spec, ShuffleInput):
            resolved = []
            for dep in spec.deps:
                missing = self.map_outputs.missing_maps(dep.shuffle_id)
                if missing:
                    # Lost map output (crash/disk failure): the pool will
                    # run lineage recovery and retry this task.
                    raise FetchFailed(dep.shuffle_id, missing)
                for bucket in self.map_outputs.buckets_for_reduce(
                        dep.shuffle_id, spec.reduce_index):
                    resolved.append(ResolvedInput(
                        partition=bucket.partition,
                        stored_bytes=dep.fmt.stored_bytes(bucket.nbytes),
                        fmt=dep.fmt,
                        machine_id=bucket.machine_id,
                        disk_index=bucket.disk_index,
                        in_memory=bucket.in_memory,
                        map_index=bucket.map_index,
                        tag_side=dep.side if spec.tagged else None,
                        block_id=bucket.block_id))
            return resolved
        raise ExecutionError(f"unknown input spec: {spec!r}")

    def _resolve_dfs_input(self, spec: DfsInput,
                           machine: Machine) -> ResolvedInput:
        block = spec.block
        payload = block.payload
        if not isinstance(payload, Partition):
            raise ExecutionError(
                f"DFS block {block.block_id} has no partition payload")
        svc = self.datasvc
        if svc is not None and any(svc.owns_machine(m)
                                   for m, _d in block.replicas):
            # The block lives in the data tier; the service picks and
            # verifies a replica at read time (with failover), so the
            # resolved location is just a routing hint.
            primary = svc.primary_machine_id(block.block_id)
            if primary is None:
                raise FaultError(
                    f"no live replica of DFS block {block.block_id}")
            return ResolvedInput(
                partition=payload, stored_bytes=block.nbytes, fmt=spec.fmt,
                machine_id=primary, disk_index=None)
        live = [(m, d) for (m, d) in block.replicas
                if m not in self._dead_machines
                and not self.cluster.machine(m).disks[d].dead]
        if not live:
            raise FaultError(
                f"no live replica of DFS block {block.block_id}")
        for replica_machine, replica_disk in live:
            if replica_machine == machine.machine_id:
                location, disk_index = replica_machine, replica_disk
                break
        else:
            # Remote read: prefer a replica not on a health-excluded
            # machine (its NIC is the suspected problem), else any live.
            preferred = [(m, d) for (m, d) in live
                         if m not in self._excluded_machines]
            location, disk_index = (preferred or live)[0]
        return ResolvedInput(partition=payload, stored_bytes=block.nbytes,
                             fmt=spec.fmt, machine_id=location,
                             disk_index=disk_index)

    # -- output registration helpers (used by subclasses) -------------------------------

    def register_shuffle_output(self, work: TaskWork, machine: Machine,
                                disk_index: Optional[int]) -> None:
        """Publish a map task's shuffle buckets to the registry."""
        output = work.descriptor.output
        if not isinstance(output, ShuffleOutput):
            raise ExecutionError("task has no shuffle output")
        machine_id = machine.machine_id
        if self.datasvc is not None and not output.in_memory:
            # The data service owns the buckets: register them under the
            # primary storage node, so a *compute* crash invalidates no
            # map output (disaggregation's fault-isolation win).
            primary = self.datasvc.primary_machine_id(
                f"shuffle{output.shuffle_id}-m{work.descriptor.index}")
            if primary is not None:
                machine_id, disk_index = primary, None
        self.map_outputs.register_map_output(
            output.shuffle_id, work.descriptor.index, machine_id,
            disk_index, work.shuffle_buckets or {})

    def register_dfs_output(self, work: TaskWork, machine: Machine,
                            disk_index: int) -> None:
        """Append a task's output block to its DFS file."""
        output = work.descriptor.output
        if not isinstance(output, DfsOutput):
            raise ExecutionError("task has no DFS output")
        payload = work.output_partition if output.keep_payload else None
        svc = self.datasvc
        if svc is not None:
            # The block was streamed to the service under a provisional
            # id during execution; commit renames it to its final block
            # id and records the primary storage node as the replica.
            provisional = f"dfsout:{work.descriptor.task_id}"
            primary = svc.primary_machine_id(provisional)
            if primary is not None:
                block = self.cluster.dfs.append_output_block(
                    output.file_name, work.output_stored_bytes, primary, 0,
                    payload=payload)
                svc.alias_block(provisional, block.block_id)
                return
        self.cluster.dfs.append_output_block(
            output.file_name, work.output_stored_bytes, machine.machine_id,
            disk_index, payload=payload)

    # -- result assembly -----------------------------------------------------------------

    def _assemble_result(self, plan: JobPlan, start: float) -> JobResult:
        result = JobResult(plan.job_id, plan.name, start, self.env.now)
        final = plan.final_stage
        sample = final.tasks[0].output if final.tasks else None
        if isinstance(sample, CollectOutput):
            outputs = [
                self._task_outputs.pop(
                    (plan.job_id, final.stage_id, task.index))
                for task in final.tasks
            ]
            if sample.count_only:
                result.count = float(sum(outputs))
            else:
                result.collected = outputs
        return result
