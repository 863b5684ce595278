"""Unit tests for multitask -> monotask DAG decomposition (Figure 4)."""

import pytest

from repro.api.ops import MapOp
from repro.api.partitioners import HashPartitioner
from repro.api.plan import (CollectOutput, DfsOutput, LocalInput,
                            ShuffleDep, ShuffleInput, ShuffleOutput,
                            TaskDescriptor)
from repro.cluster import hdd_cluster
from repro.config import CostModel, MB
from repro.datamodel import PLAIN, Partition
from repro.engine.semantics import ResolvedInput, compute_task_work
from repro.metrics.events import (PHASE_CLEANUP, PHASE_COMPUTE,
                                  PHASE_INPUT_READ, PHASE_OUTPUT_WRITE,
                                  PHASE_SETUP, PHASE_SHUFFLE_READ,
                                  PHASE_SHUFFLE_WRITE)
from repro.monospark.decompose import decompose
from repro.monospark.engine import MonoSparkEngine
from repro.monospark.localdag import DagShape
from repro.monospark.monotask import (ComputeMonotask, DiskMonotask,
                                      NetworkFetchMonotask)


@pytest.fixture
def worker():
    cluster = hdd_cluster(num_machines=2)
    engine = MonoSparkEngine(cluster)
    return engine.workers[0]


def make_work(worker, input_spec, output_spec, inputs):
    descriptor = TaskDescriptor(job_id=0, stage_id=0, index=0,
                                input=input_spec, chain=[MapOp(lambda x: x)],
                                output=output_spec)
    return compute_task_work(descriptor, inputs, CostModel())


def resolved_local(worker, nbytes=32 * MB, machine_id=0, disk_index=0):
    part = Partition.from_records([(1, 1)], record_count=1,
                                  data_bytes=nbytes)
    return ResolvedInput(partition=part, stored_bytes=nbytes, fmt=PLAIN,
                         machine_id=machine_id, disk_index=disk_index)


def phases(decomposition):
    return [type(m).__name__ + ":" + m.phase
            for m in decomposition.monotasks]


class TestMapDecomposition:
    def test_figure4_map_multitask(self, worker):
        """setup -> disk read -> compute -> shuffle write -> cleanup."""
        from repro.api.plan import DfsInput
        from repro.cluster.hdfs import DfsBlock
        block = DfsBlock(file_name="f", index=0, nbytes=32 * MB,
                         replicas=[(0, 0)],
                         payload=Partition.from_records([(1, 1)]))
        work = make_work(
            worker, DfsInput(block),
            ShuffleOutput(shuffle_id=0, partitioner=HashPartitioner(2)),
            [resolved_local(worker)])
        decomposition = decompose(worker, work)
        assert phases(decomposition) == [
            "ComputeMonotask:setup",
            "DiskMonotask:input_read",
            "ComputeMonotask:compute",
            "DiskMonotask:shuffle_write",
            "ComputeMonotask:cleanup",
        ]
        # Dependencies: read after setup; compute after read; write after
        # compute; cleanup last.
        setup, read, compute, write, cleanup = decomposition.monotasks
        assert setup in read.deps
        assert read in compute.deps
        assert compute in write.deps
        assert write in cleanup.deps

    def test_remote_block_uses_network(self, worker):
        from repro.api.plan import DfsInput
        from repro.cluster.hdfs import DfsBlock
        block = DfsBlock(file_name="f", index=0, nbytes=32 * MB,
                         replicas=[(1, 0)],
                         payload=Partition.from_records([(1, 1)]))
        work = make_work(worker, DfsInput(block), CollectOutput(),
                         [resolved_local(worker, machine_id=1)])
        decomposition = decompose(worker, work)
        kinds = phases(decomposition)
        assert "NetworkFetchMonotask:input_read" in kinds
        assert not any("DiskMonotask" in k for k in kinds)


class TestReduceDecomposition:
    def test_local_buckets_coalesce_per_disk(self, worker):
        spec = ShuffleInput(
            deps=[ShuffleDep(shuffle_id=0, num_maps=4)], reduce_index=0)
        inputs = [resolved_local(worker, nbytes=4 * MB, machine_id=0,
                                 disk_index=index % 2)
                  for index in range(4)]
        work = make_work(worker, spec, CollectOutput(), inputs)
        decomposition = decompose(worker, work)
        disk_reads = [m for m in decomposition.monotasks
                      if isinstance(m, DiskMonotask)
                      and m.phase == PHASE_SHUFFLE_READ]
        # One read per local disk, not per bucket.
        assert len(disk_reads) == 2
        assert all(m.nbytes == 8 * MB for m in disk_reads)

    def test_remote_buckets_form_one_fetch_group(self, worker):
        spec = ShuffleInput(
            deps=[ShuffleDep(shuffle_id=0, num_maps=4)], reduce_index=0)
        inputs = [resolved_local(worker, nbytes=4 * MB, machine_id=1,
                                 disk_index=index % 2)
                  for index in range(4)]
        work = make_work(worker, spec, CollectOutput(), inputs)
        decomposition = decompose(worker, work)
        fetches = [m for m in decomposition.monotasks
                   if isinstance(m, NetworkFetchMonotask)]
        assert len(fetches) == 1
        assert fetches[0].total_bytes == 16 * MB
        # Sources coalesced per (machine, disk).
        assert len(fetches[0].sources) == 2

    def test_output_disk_deferred_until_routing(self, worker):
        work = make_work(worker,
                         LocalInput(Partition.from_records([(1, 1)])),
                         DfsOutput(file_name="out"),
                         [ResolvedInput(
                             partition=Partition.from_records(
                                 [(1, 1)], data_bytes=8 * MB),
                             stored_bytes=0.0, fmt=PLAIN,
                             in_memory=True)])
        decomposition = decompose(worker, work)
        write = decomposition.output_monotask
        assert write is not None
        assert write.disk_index is None  # chosen at routing time (§8)
        assert decomposition.output_disk is None

    def test_collect_has_no_output_monotask(self, worker):
        work = make_work(worker,
                         LocalInput(Partition.from_records([(1, 1)])),
                         CollectOutput(),
                         [ResolvedInput(
                             partition=Partition.from_records([(1, 1)]),
                             stored_bytes=0.0, fmt=PLAIN,
                             in_memory=True)])
        decomposition = decompose(worker, work)
        assert decomposition.output_monotask is None
        assert [m.phase for m in decomposition.monotasks] == [
            PHASE_SETUP, PHASE_COMPUTE, PHASE_CLEANUP]


class TestCachedShape:
    def test_shape_is_shared_per_key(self, worker):
        """Multitasks with the same inputs-and-output layout share one
        shape, and it is the one each of them declares in ``deps``."""
        spec = ShuffleInput(
            deps=[ShuffleDep(shuffle_id=0, num_maps=4)], reduce_index=0)
        mixed = [resolved_local(worker, nbytes=4 * MB, machine_id=index % 2,
                                disk_index=index % 2)
                 for index in range(4)]
        in_memory = [ResolvedInput(
            partition=Partition.from_records([(1, 1)], data_bytes=8 * MB),
            stored_bytes=0.0, fmt=PLAIN, in_memory=True)]
        cases = [
            (spec, CollectOutput(), mixed),
            (spec, DfsOutput(file_name="out"), mixed),
            (LocalInput(Partition.from_records([(1, 1)])),
             DfsOutput(file_name="out"), in_memory),
            (LocalInput(Partition.from_records([(1, 1)])),
             CollectOutput(), in_memory),
        ]
        for input_spec, output_spec, inputs in cases:
            first = decompose(
                worker, make_work(worker, input_spec, output_spec, inputs))
            again = decompose(
                worker, make_work(worker, input_spec, output_spec, inputs))
            assert again.shape is first.shape
            declared = DagShape.of(again.monotasks)
            assert (declared.indegree, declared.dependents,
                    declared.roots) == (first.shape.indegree,
                                        first.shape.dependents,
                                        first.shape.roots)
