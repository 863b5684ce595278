"""The machine-learning workload (§5.2, Figure 7).

Least-squares via block coordinate descent on a matrix of one million
rows by 4096 columns, over row blocks: each stage multiplies every row
block against the current coefficient column block and aggregates the
partial gram matrices.  Three properties distinguish it from the other
workloads (§5.2): the CPU path is *efficient* (matrices of primitive
doubles, OpenBLAS via JNI -- serialization is a near-memcpy); a large
amount of data crosses the network between stages (each task ships a
``cols x block_cols`` partial product); and shuffle data stays in memory
(no disk at all once the input is cached).

Real semantics: each task multiplies a small numpy sample of its row
block, so results are numerically checkable; modeled sizes carry the
full matrix dimensions.  Records are whole row *blocks* (one per
partition), not rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.api.context import AnalyticsContext
from repro.api.ops import OpCost
from repro.cluster.cluster import Cluster
from repro.config import GB, MB
from repro.datamodel.records import Partition
from repro.engine.base import JobResult
from repro.errors import ConfigError

__all__ = ["MlWorkload", "make_ml_context", "run_ml_iteration",
           "run_ml_workload"]

#: The multiply is ~2 * block_cols FLOPs per input byte; at OpenBLAS
#: rates that is roughly 80 MB/s of input per core.
BLAS_CPU_S_PER_BYTE = 1.0 / (80 * MB)
#: Primitive double arrays (de)serialize at near-memcpy speed.
FAST_SER_S_PER_BYTE = 1.0 / (2 * GB)
#: Tree-aggregation fan-out: each partial product is shipped in chunks
#: to this many aggregators (Spark's treeAggregate).
AGG_FANOUT = 32


@dataclass(frozen=True)
class MlWorkload:
    """Block coordinate descent dimensions."""

    rows: float = 1e6
    cols: int = 4096
    num_row_blocks: int = 120
    #: Columns updated per iteration (the coordinate block).
    block_cols: int = 512
    sample_rows: int = 8
    sample_cols: int = 16

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols < 1 or self.num_row_blocks < 1:
            raise ConfigError(f"invalid ML workload: {self}")

    @property
    def matrix_bytes(self) -> float:
        """Full matrix size in bytes (doubles)."""
        return self.rows * self.cols * 8.0

    @property
    def block_bytes(self) -> float:
        """Bytes per row block."""
        return self.matrix_bytes / self.num_row_blocks

    @property
    def partial_product_bytes(self) -> float:
        """Bytes each task contributes to the shuffle each iteration:
        a (cols x block_cols) partial product."""
        return float(self.cols * self.block_cols * 8)


def make_ml_context(cluster: Cluster, engine: str,
                    workload: Optional[MlWorkload] = None,
                    seed: int = 0, **engine_options) -> AnalyticsContext:
    """Context with in-memory shuffle plus the cached input matrix."""
    # numpy is imported here, not at module level: ``repro.workloads``
    # (and so ``repro.serve``) imports this module, and nothing else
    # there needs numpy.
    import numpy as np

    workload = workload or MlWorkload()
    ctx = AnalyticsContext(cluster, engine=engine, shuffle_in_memory=True,
                           **engine_options)
    rng = np.random.default_rng(seed)
    partitions: List[Partition] = []
    for block_index in range(workload.num_row_blocks):
        sample = rng.standard_normal(
            (workload.sample_rows, workload.sample_cols))
        partitions.append(Partition(
            records=[(block_index, sample)],
            record_count=1.0,  # one row *block* per partition
            data_bytes=workload.block_bytes))
    matrix = ctx.parallelize_partitions(partitions)
    matrix.cache()
    # Materialize the cached matrix (the paper's workload keeps its
    # input in memory; this warmup job is not part of any figure).
    matrix.count()
    ctx._ml_matrix = matrix  # stashed for run_ml_iteration
    ctx._ml_workload = workload
    return ctx


def run_ml_iteration(ctx: AnalyticsContext, iteration: int) -> JobResult:
    """One block-coordinate-descent step: multiply + tree-aggregate."""
    workload: MlWorkload = ctx._ml_workload
    matrix = ctx._ml_matrix
    chunk_bytes = workload.partial_product_bytes / AGG_FANOUT

    def multiply(record):
        block_index, sample = record
        gram = sample.T @ sample
        # Ship the partial product in AGG_FANOUT keyed chunks.
        return [((iteration, chunk), gram)
                for chunk in range(AGG_FANOUT)]

    partials = matrix.flat_map(
        multiply,
        cost=OpCost(per_record_s=0.0, per_byte_s=BLAS_CPU_S_PER_BYTE),
        count_ratio=float(AGG_FANOUT),
        output_row_bytes=lambda record: chunk_bytes)
    aggregated = partials.reduce_by_key(
        lambda a, b: a + b, num_partitions=AGG_FANOUT,
        combine_cost=OpCost(per_byte_s=FAST_SER_S_PER_BYTE),
        map_side_combine=False)
    aggregated.count()
    return ctx.last_result


def run_ml_workload(ctx: AnalyticsContext,
                    iterations: int = 3) -> List[JobResult]:
    """Run several iterations; one JobResult per iteration (= 2 stages)."""
    return [run_ml_iteration(ctx, i) for i in range(iterations)]
