"""The health monitor: periodic heartbeats, detection, exclusion.

One ``env.every`` service ticks every ``policy.interval_s`` seconds.  Each
tick it (1) notes heartbeat transitions (a crashed machine misses its
heartbeat), (2) folds newly finished records into the engine's rate
estimator, (3) runs the median test per resource to find suspects,
(4) advances each machine's :class:`~repro.health.blacklist.Blacklist`
state, and (5) enacts transitions through the engine's exclusion entry
points -- :meth:`exclude_machine` (which also speculatively
re-dispatches the machine's in-flight work), :meth:`probation_machine`,
and :meth:`reinstate_machine`.  Every decision is emitted as a
:class:`~repro.metrics.events.HealthEventRecord`, so the exclusion
timeline is part of the byte-identical trace.

Call ``stop()`` when serving completes (a job server does so when it
drains), so ``env.run()``-to-exhaustion tests still terminate.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Optional, Tuple

from repro.errors import SimulationError
from repro.health.blacklist import Blacklist
from repro.health.policy import HealthPolicy
from repro.metrics.events import HealthEventRecord

__all__ = ["HealthMonitor"]

#: Suspect when rate < SLOW_FACTOR * cluster median for a resource.
SLOW_FACTOR = 0.5
#: Observations required before a machine's rate is trusted.
MIN_OBSERVATIONS = 3
#: Never exclude beyond this fraction of the cluster (dead machines
#: count against the budget; losing quorum to the monitor would be
#: worse than tolerating a slow machine).
MAX_EXCLUDED_FRACTION = 0.5


class HealthMonitor:
    """Online per-machine health tracking and exclusion for one engine."""

    def __init__(self, engine, policy: Optional[HealthPolicy] = None) -> None:
        self.engine = engine
        self.env = engine.env
        self.metrics = engine.metrics
        self.policy = policy or HealthPolicy()
        self.estimator = engine.health_estimator()
        self.blacklist = Blacklist()
        self._machine_ids = sorted(
            m.machine_id for m in engine.cluster.machines)
        #: machine_id -> count of verified integrity faults (checksum
        #: mismatches the data service attributed to the machine).
        #: Storage-node ids appear here too; they are never driven
        #: through the engine's exclusion entry points (the data service
        #: handles its own replica placement exclusions).
        self.integrity_suspicions: Dict[int, int] = {}
        datasvc = getattr(engine, "datasvc", None)
        if datasvc is not None:
            datasvc.attach_health(self)
        self._last_counts: Dict[int, int] = {}
        self._missed: set = set()
        self._process = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin ticking; a no-op while ticking, an error once stopped."""
        if self._process is None:
            self._process = self.env.every(self.policy.interval_s,
                                           self._tick, first=False)
        elif not self._process.is_alive:
            raise SimulationError("a stopped monitor cannot restart")

    def stop(self) -> None:
        """Stop ticking now (idempotent)."""
        if self._process is not None:
            self._process.cancel()

    # -- one tick ------------------------------------------------------------------

    def _record(self, kind: str, machine_id: int, resource: str = "",
                relative_rate: float = float("nan"),
                detail: str = "") -> None:
        self.metrics.record_event(HealthEventRecord(
            kind=kind, machine_id=machine_id, at=self.env.now,
            resource=resource, relative_rate=relative_rate, detail=detail))

    def report_integrity_fault(self, machine_id: int,
                               detail: str = "") -> None:
        """A verified data fault (checksum mismatch) on ``machine_id``.

        Called by the data service when a read fails verification: the
        fault lands in the health event stream and bumps the machine's
        suspicion counter.  No exclusion is driven from here -- the
        service excludes its own nodes from placement, and compute
        exclusion stays rate-based."""
        self.integrity_suspicions[machine_id] = \
            self.integrity_suspicions.get(machine_id, 0) + 1
        self._record("integrity-fault", machine_id, resource="disk",
                     detail=detail)

    def _tick(self) -> None:
        engine = self.engine
        alive = []
        for machine_id in self._machine_ids:
            if engine.machine_is_dead(machine_id):
                if machine_id not in self._missed:
                    self._missed.add(machine_id)
                    self._record("heartbeat-miss", machine_id)
                continue
            if machine_id in self._missed:
                self._missed.discard(machine_id)
                self._record("heartbeat-restore", machine_id)
            alive.append(machine_id)
        self.estimator.update()
        suspects = self._find_suspects(alive)
        budget = int(MAX_EXCLUDED_FRACTION * len(self._machine_ids))
        for machine_id in alive:
            count = self.estimator.observation_count(machine_id)
            fresh = count > self._last_counts.get(machine_id, 0)
            self._last_counts[machine_id] = count
            unavailable = len(self._missed) + self.blacklist.excluded_count()
            can_exclude = (unavailable + 1 <= budget
                           or self.blacklist.state(machine_id) != "healthy")
            verdict = suspects.get(machine_id)
            actions = self.blacklist.observe(
                machine_id, suspect=verdict is not None, fresh=fresh,
                now=self.env.now, can_exclude=can_exclude)
            resource, relative = verdict if verdict is not None \
                else ("", float("nan"))
            for action in actions:
                if action == "suspect":
                    self._record("suspect", machine_id, resource, relative)
                elif action == "exclude":
                    duplicates = engine.exclude_machine(machine_id)
                    self._record(
                        "exclude", machine_id, resource, relative,
                        detail=f"{duplicates} attempts re-dispatched")
                elif action == "probation":
                    engine.probation_machine(machine_id)
                    self._record("probation", machine_id)
                elif action == "reinstate":
                    engine.reinstate_machine(machine_id)
                    self._record("reinstate", machine_id)

    def _find_suspects(self, alive) -> Dict[int, Tuple[str, float]]:
        """Median test per resource; a machine's worst resource wins.

        Needs at least three comparably observed machines per resource
        -- with fewer there is no meaningful "cluster typical" rate.
        """
        table = self.estimator.table
        suspects: Dict[int, Tuple[str, float]] = {}
        for resource in self.estimator.resources:
            sample = [(m, table.rate(m, resource)) for m in alive
                      if table.count(m, resource) >= MIN_OBSERVATIONS]
            if len(sample) < 3:
                continue
            typical = median(rate for _, rate in sample)
            if not (typical > 0):
                continue
            for machine_id, rate in sample:
                relative = rate / typical
                if relative >= SLOW_FACTOR:
                    continue
                current = suspects.get(machine_id)
                if current is None or relative < current[1]:
                    suspects[machine_id] = (resource, relative)
        return suspects
