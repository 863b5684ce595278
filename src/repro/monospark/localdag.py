"""The Local DAG Scheduler (§3.3).

Each worker tracks the dependency DAG of every multitask assigned to it
and submits a monotask to its per-resource scheduler only once all of
its dependencies have completed -- guaranteeing that monotasks "can
fully utilize the underlying resource and do not block on other
monotasks during their execution".

A DAG's structure is a :class:`DagShape`: dependencies by position,
checked for cycles once.  Decomposition produces only a handful of
shapes, so each is built once and reused by every multitask that has
it -- the worker-side analogue of an execution template; instantiating
one costs a counter per monotask.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.monospark.monotask import Monotask
from repro.simulator import Environment, Event

__all__ = ["DagShape", "LocalDagScheduler"]


class DagShape:
    """The dependency structure of a monotask DAG, by list position."""

    __slots__ = ("size", "indegree", "dependents", "roots")

    def __init__(self, deps: Sequence[Sequence[int]]) -> None:
        """``deps[i]`` lists the positions monotask ``i`` waits for.

        Raises :class:`SimulationError` on a cycle, which would
        otherwise deadlock silently.
        """
        size = len(deps)
        dependents: List[List[int]] = [[] for _ in range(size)]
        for index, waits_for in enumerate(deps):
            for dep in waits_for:
                dependents[dep].append(index)
        self.size = size
        self.indegree: Tuple[int, ...] = tuple(len(d) for d in deps)
        #: ``dependents[i]``: positions released by ``i``, in order.
        self.dependents: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d) for d in dependents)
        self.roots: Tuple[int, ...] = tuple(
            index for index in range(size) if not deps[index])
        # Kahn's algorithm: every node is reached iff there is no cycle.
        waiting = list(self.indegree)
        ready = list(self.roots)
        reached = 0
        while ready:
            reached += 1
            for dependent in self.dependents[ready.pop()]:
                waiting[dependent] -= 1
                if waiting[dependent] == 0:
                    ready.append(dependent)
        if reached != size:
            raise SimulationError("monotask DAG has a cycle")

    @classmethod
    def of(cls, monotasks: Sequence[Monotask]) -> "DagShape":
        """The shape declared by each monotask's ``deps``."""
        position = {id(monotask): index
                    for index, monotask in enumerate(monotasks)}
        try:
            deps = [[position[id(dep)] for dep in monotask.deps]
                    for monotask in monotasks]
        except KeyError:
            raise SimulationError(
                "a monotask depends on one outside its multitask") from None
        return cls(deps)


class LocalDagScheduler:
    """Per-worker dependency tracker for monotask DAGs."""

    def __init__(self, env: Environment,
                 route: Callable[[Monotask], None]) -> None:
        self.env = env
        #: Routes a ready monotask to the right per-resource scheduler.
        self._route = route
        self.monotasks_submitted = 0

    def submit_multitask(self, monotasks: List[Monotask],
                         shape: DagShape) -> Event:
        """Register a multitask's DAG; returns an event that fires when
        every monotask has completed.

        ``shape`` gives the dependencies by position.
        """
        if not monotasks:
            raise SimulationError("a multitask needs at least one monotask")
        if shape.size != len(monotasks):
            raise SimulationError(
                f"DAG shape has {shape.size} monotasks, "
                f"multitask has {len(monotasks)}")
        self.monotasks_submitted += len(monotasks)
        all_done = self.env.all_of([m.done for m in monotasks])
        # Per-monotask count of dependencies still running.
        waiting = list(shape.indegree)
        for monotask, dependents in zip(monotasks, shape.dependents):
            if dependents:
                monotask.done.add_callback(
                    partial(self._release, monotasks, waiting, dependents))
        for index in shape.roots:
            self._route(monotasks[index])
        return all_done

    def _release(self, monotasks: List[Monotask], waiting: List[int],
                 dependents: Tuple[int, ...], done: Event) -> None:
        if not done._ok:
            # A dependency died (machine crash/disk fault): its
            # dependents never become ready.  The multitask's AllOf
            # barrier already fails fast on the dependency itself.
            return
        for index in dependents:
            waiting[index] -= 1
            if waiting[index] == 0:
                self._route(monotasks[index])
