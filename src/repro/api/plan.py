"""Physical plans: stages, task descriptors, and their I/O specs.

The DAG scheduler (`repro.api.dagscheduler`) compiles an RDD lineage into
a :class:`JobPlan` -- a DAG of :class:`Stage` objects, each a set of
:class:`TaskDescriptor` -- which both engines execute.  Everything an
engine needs to run a task is in the descriptor: where the input comes
from, the fused operator chain, and where the output goes.  *How* the
resources are used (fine-grained pipelining vs. monotasks) is entirely
the engine's business.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.api.ops import PhysicalOp
from repro.api.partitioners import Partitioner
from repro.cluster.hdfs import DfsBlock
from repro.datamodel.records import Partition
from repro.datamodel.serialization import PLAIN, DataFormat
from repro.errors import PlanError

__all__ = [
    "DfsInput",
    "LocalInput",
    "CachedInput",
    "ShuffleDep",
    "ShuffleInput",
    "ShuffleOutput",
    "DfsOutput",
    "CollectOutput",
    "CacheSpec",
    "TaskDescriptor",
    "Stage",
    "JobPlan",
]


# ---------------------------------------------------------------------------
# Input specs
# ---------------------------------------------------------------------------

@dataclass
class DfsInput:
    """Read one DFS block from disk."""

    block: DfsBlock
    fmt: DataFormat = PLAIN

    @property
    def preferred_machines(self) -> List[int]:
        """Machines holding a replica of the block."""
        return self.block.machines()

    @property
    def nbytes(self) -> float:
        """Stored (possibly compressed) bytes to read."""
        return self.fmt.stored_bytes(self.block.nbytes)


@dataclass
class LocalInput:
    """A partition shipped with the task (``parallelize`` data).

    Already deserialized in memory on whatever machine runs the task, so
    it costs neither disk nor network nor decode time.
    """

    partition: Partition

    @property
    def preferred_machines(self) -> List[int]:
        """No locality constraint: the data ships with the task."""
        return []


@dataclass
class CachedInput:
    """Read a partition cached by an earlier job (§6.3 experiments)."""

    rdd_id: int
    partition_index: int
    fmt: DataFormat  # DESERIALIZED for in-memory caches

    @property
    def preferred_machines(self) -> List[int]:
        """Resolved by the DAG scheduler from the block manager."""
        return []  # Filled in by the engine from its block manager.


@dataclass
class ShuffleDep:
    """One upstream shuffle a reduce stage depends on."""

    shuffle_id: int
    num_maps: int
    #: Which cogroup side this dep feeds (0 for single-dep shuffles).
    side: int = 0
    fmt: DataFormat = PLAIN


@dataclass
class ShuffleInput:
    """Fetch and merge shuffle buckets for one reduce partition."""

    deps: List[ShuffleDep]
    reduce_index: int
    #: Tag records with the dep's side, for cogroup. Single-dep shuffles
    #: pass records through untouched.
    tagged: bool = False

    def __post_init__(self) -> None:
        if not self.deps:
            raise PlanError("shuffle input needs at least one dependency")

    @property
    def preferred_machines(self) -> List[int]:
        """Reduce tasks fetch from everywhere: no locality."""
        return []  # Reduce tasks fetch from everywhere: no locality.


# ---------------------------------------------------------------------------
# Output specs
# ---------------------------------------------------------------------------

@dataclass
class ShuffleOutput:
    """Partition task output into shuffle buckets."""

    shuffle_id: int
    partitioner: Partitioner
    fmt: DataFormat = PLAIN
    #: Keep buckets in worker memory instead of writing them to disk
    #: (the paper's ML workload stores shuffle data in-memory, §5.2).
    in_memory: bool = False


@dataclass
class DfsOutput:
    """Write task output as a new block of a DFS file."""

    file_name: str
    fmt: DataFormat = PLAIN
    keep_payload: bool = False


@dataclass
class CollectOutput:
    """Return records to the driver.

    ``count_only`` collapses the result to a count, which also means the
    records need not be serialized back (matching Spark's count())."""

    count_only: bool = False


@dataclass
class CacheSpec:
    """Materialize the chain prefix into the worker's block manager."""

    rdd_id: int
    #: Number of chain ops applied before the cache point.
    after_ops: int
    fmt: DataFormat  # cached representation (DESERIALIZED by default)


# ---------------------------------------------------------------------------
# Tasks, stages, jobs
# ---------------------------------------------------------------------------

@dataclass
class TaskDescriptor:
    """Everything needed to run one task (multitask) on a worker."""

    job_id: int
    stage_id: int
    index: int
    input: Any  # DfsInput | LocalInput | CachedInput | ShuffleInput
    chain: List[PhysicalOp]
    output: Any  # ShuffleOutput | DfsOutput | CollectOutput
    cache: Optional[CacheSpec] = None
    preferred_machines: List[int] = field(default_factory=list)

    @property
    def task_id(self) -> str:
        """Unique id: job, stage, and task index."""
        return f"j{self.job_id}s{self.stage_id}t{self.index}"


@dataclass
class Stage:
    """A set of independent tasks with the same chain and output."""

    job_id: int
    stage_id: int
    tasks: List[TaskDescriptor]
    #: Stage ids that must complete first (their shuffle outputs feed us).
    parent_stage_ids: List[int] = field(default_factory=list)
    name: str = ""

    @property
    def num_tasks(self) -> int:
        """How many tasks the stage contains."""
        return len(self.tasks)


@dataclass
class JobPlan:
    """A compiled job: stages in a valid topological order."""

    job_id: int
    stages: List[Stage]
    name: str = ""

    def __post_init__(self) -> None:
        seen = set()
        for stage in self.stages:
            for parent in stage.parent_stage_ids:
                if parent not in seen:
                    raise PlanError(
                        f"stage {stage.stage_id} listed before its parent "
                        f"{parent}")
            seen.add(stage.stage_id)

    @property
    def final_stage(self) -> Stage:
        """The result stage (last in topological order)."""
        return self.stages[-1]

    def stage(self, stage_id: int) -> Stage:
        """Look up a stage by id."""
        for stage in self.stages:
            if stage.stage_id == stage_id:
                return stage
        raise PlanError(f"no stage {stage_id} in job {self.job_id}")
