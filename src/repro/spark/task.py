"""Chunk-pipelined execution of one Spark-style multitask.

This reproduces the execution model of §2.1: a single task thread
processes its data in fine-grained pieces, with the OS doing I/O in the
background -- disk reads arrive through readahead into the buffer cache,
disk writes land in the buffer cache and are flushed asynchronously, and
shuffle data is fetched with a bounded number of in-flight requests.
The thread computes on piece *i* while the OS/fetchers work on *i+1*,
which is exactly the fine-grained pipelining the paper contrasts with
monotasks, along with its consequences: non-uniform resource use within
a task, OS-level disk contention between tasks, and buffer-cache writes
the framework never sees (§2.2).
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional

from repro.api.plan import (CachedInput, DfsInput, DfsOutput, LocalInput,
                            ShuffleInput, ShuffleOutput)
from repro.cluster.machine import Machine
from repro.engine.semantics import ResolvedInput, TaskWork
from repro.errors import ExecutionError, ReproError
from repro.metrics.events import ResourceUsageRecord
from repro.simulator import Environment, Store
from repro.simulator.network import FLOW_LATENCY_S

__all__ = ["SparkTaskRun"]

#: Pieces of a sequential (DFS) input read ahead of the compute loop.
READAHEAD_DEPTH = 2
#: Shuffle fetch requests kept outstanding per task.
FETCH_INFLIGHT = 5


class _Unit:
    """One pipelined piece of a task's input.

    Shuffle units are per-source-machine groups of bucket segments
    (Spark's fetcher requests all needed blocks from one machine over
    one connection, and the OS merges the segment reads); ``blocks``
    lists the (block_id, nbytes) segments of such a group.
    """

    __slots__ = ("index", "stored_bytes", "source", "blocks")

    def __init__(self, index: int, stored_bytes: float,
                 source: ResolvedInput,
                 blocks: Optional[List] = None) -> None:
        self.index = index
        self.stored_bytes = stored_bytes
        self.source = source
        self.blocks = blocks


class _FetchFailure:
    """Sentinel a feeder pushes through the pipeline when a fetch fails
    (disk/machine fault), so the error surfaces in the task's own frame
    instead of crashing the feeder process."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class SparkTaskRun:
    """Drives one multitask's resource use on its assigned machine."""

    def __init__(self, engine: "repro.spark.engine.SparkEngine",
                 work: TaskWork, machine: Machine) -> None:
        self.engine = engine
        self.work = work
        self.machine = machine
        self.env: Environment = engine.env
        self.usage = ResourceUsageRecord(
            job_id=work.descriptor.job_id,
            stage_id=work.descriptor.stage_id,
            task_index=work.descriptor.index,
            machine_id=machine.machine_id)

    # -- top level ------------------------------------------------------------------

    def run(self) -> Generator:
        """Drive the whole multitask: fetch, compute, write.

        Returns the disk index output was written to; the engine
        registers outputs once the attempt wins its task."""
        engine = self.engine
        work = self.work
        cost = engine.cost

        yield from self._compute(cost.task_setup_s)

        units = self._build_units()
        # Note: may be 0.0 (e.g. LocalInput ships with the task); the
        # compute loop then spreads CPU evenly across units instead of
        # proportionally to bytes.
        total_stored = sum(unit.stored_bytes for unit in units)
        ready: Store = Store(self.env, capacity=self._pipeline_depth())
        self.env.process(self._feed_units(units, ready))

        out_disk = self.machine.pick_write_disk()
        write_per_unit = self._writes_per_unit()
        for _ in range(len(units)):
            unit = yield ready.get()
            if isinstance(unit, _FetchFailure):
                raise unit.error
            fraction = (unit.stored_bytes / total_stored if total_stored
                        else 1.0 / len(units))
            yield from self._compute(work.total_cpu_s * fraction)
            if write_per_unit:
                yield from self._write_output_piece(
                    work.output_stored_bytes * fraction, out_disk,
                    f"{work.descriptor.task_id}:out:{unit.index}")

        yield from self._write_shuffle_buckets(out_disk)
        yield from self._write_dfs_block()
        yield from self._compute(cost.task_cleanup_s)
        engine.metrics.record_resource_usage(self.usage)
        # The engine commits (registers) outputs only if this attempt
        # wins the task -- see BaseEngine._execute_task.
        return out_disk

    # -- input units -------------------------------------------------------------------

    def _build_units(self) -> List[_Unit]:
        spec = self.work.descriptor.input
        units: List[_Unit] = []
        if isinstance(spec, DfsInput):
            source = self.work.inputs[0]
            chunk = self.engine.chunk_bytes
            count = max(1, math.ceil(source.stored_bytes / chunk))
            remaining = source.stored_bytes
            for index in range(count):
                size = min(chunk, remaining)
                remaining -= size
                units.append(_Unit(index, size, source))
        elif isinstance(spec, (LocalInput, CachedInput)):
            units.append(_Unit(0, self.work.inputs[0].stored_bytes,
                               self.work.inputs[0]))
        elif isinstance(spec, ShuffleInput):
            units = self._shuffle_units()
            if not units:
                # Degenerate empty shuffle: one empty unit keeps the
                # pipeline uniform.
                from repro.datamodel.serialization import DESERIALIZED
                units = [_Unit(0, 0.0, ResolvedInput(
                    partition=self.work.input_partition, stored_bytes=0.0,
                    fmt=DESERIALIZED, in_memory=True))]
        else:
            raise ExecutionError(f"unknown input spec: {spec!r}")
        return units

    def _shuffle_units(self) -> List[_Unit]:
        """Group bucket fetches by (machine, disk, residency)."""
        groups: dict = {}
        for source in self.work.inputs:
            if source.stored_bytes <= 0:
                continue
            key = (source.machine_id, source.disk_index, source.in_memory)
            groups.setdefault(key, []).append(source)
        units: List[_Unit] = []
        for index, (key, sources) in enumerate(sorted(
                groups.items(),
                key=lambda item: (str(item[0][0]), str(item[0][1])))):
            total = sum(s.stored_bytes for s in sources)
            blocks = [(s.block_id or f"anon:{i}", s.stored_bytes)
                      for i, s in enumerate(sources)]
            units.append(_Unit(index, total, sources[0], blocks=blocks))
        return units

    def _pipeline_depth(self) -> int:
        if isinstance(self.work.descriptor.input, ShuffleInput):
            return FETCH_INFLIGHT
        return READAHEAD_DEPTH

    def _feed_units(self, units: List[_Unit], ready: Store) -> Generator:
        """Fetch units in order, ahead of the compute loop.

        Sequential sources (DFS blocks) are prefetched strictly in order
        -- real readahead does not seek back and forth within one file.
        Shuffle fetches keep :data:`FETCH_INFLIGHT` requests outstanding.
        """
        if isinstance(self.work.descriptor.input, ShuffleInput):
            yield from self._feed_shuffle(units, ready)
            return
        for unit in units:
            try:
                yield self.env.process(self._fetch_unit(unit))
            except ReproError as exc:
                yield ready.put(_FetchFailure(exc))
                return
            yield ready.put(unit)

    def _feed_shuffle(self, units: List[_Unit], ready: Store) -> Generator:
        active: List = []
        for unit in units:

            def fetch(u: _Unit) -> Generator:
                try:
                    yield self.env.process(self._fetch_unit(u))
                except ReproError as exc:
                    yield ready.put(_FetchFailure(exc))
                    return
                yield ready.put(u)

            active.append(self.env.process(fetch(unit)))
            if len(active) >= FETCH_INFLIGHT:
                # Wait for the oldest outstanding fetch before issuing more.
                finished = active.pop(0)
                yield finished
        for proc in active:
            yield proc

    def _fetch_unit(self, unit: _Unit) -> Generator:
        """Bring one unit's bytes into this machine's memory."""
        source = unit.source
        machine = self.machine
        if unit.stored_bytes <= 0:
            return
        local = (source.machine_id is None
                 or source.machine_id == machine.machine_id)
        if local:
            if source.in_memory:
                yield self.env.timeout(
                    unit.stored_bytes / machine.spec.memcpy_bps)
            else:
                yield self._cache_read(machine, unit)
                self.usage.disk_bytes_read += unit.stored_bytes
        else:
            svc = self.engine.datasvc
            if svc is not None and svc.owns_machine(source.machine_id):
                # The data tier serves the unit: checksum-verified read
                # with replica failover, then a network transfer.
                yield from self._fetch_from_datasvc(svc, unit)
                self.usage.network_bytes += unit.stored_bytes
                return
            remote = self.engine.cluster.machine(source.machine_id)
            yield self.env.timeout(FLOW_LATENCY_S)  # request round trip
            if not source.in_memory:
                yield self._cache_read(remote, unit)
                self.usage.disk_bytes_read += unit.stored_bytes
            yield machine.network.transfer(
                source.machine_id, machine.machine_id, unit.stored_bytes,
                label=self._unit_block_id(unit))
            self.usage.network_bytes += unit.stored_bytes

    def _fetch_from_datasvc(self, svc, unit: _Unit) -> Generator:
        descriptor = self.work.descriptor
        ids = (descriptor.job_id, descriptor.stage_id, descriptor.index)
        dst = self.machine.machine_id
        if unit.blocks is not None:
            yield from svc.fetch_shuffle(dst, list(unit.blocks), ids)
            return
        spec = descriptor.input
        if isinstance(spec, DfsInput):
            yield from svc.read_block(dst, spec.block.block_id,
                                      unit.stored_bytes, ids)
            return
        yield from svc.read_block(dst, self._unit_block_id(unit),
                                  unit.stored_bytes, ids)

    def _cache_read(self, machine: Machine, unit: _Unit):
        if unit.blocks is not None:
            return machine.cache.read_many(unit.source.disk_index,
                                           unit.blocks)
        return machine.cache.read(unit.source.disk_index, unit.stored_bytes,
                                  self._unit_block_id(unit))

    def _unit_block_id(self, unit: _Unit) -> str:
        source = unit.source
        if source.block_id is not None:
            # Shuffle bucket: same id the map side wrote, so recently
            # written shuffle data is served from the OS buffer cache.
            return source.block_id
        block = self.work.descriptor.input
        if isinstance(block, DfsInput):
            return f"{block.block.block_id}:c{unit.index}"
        return f"{self.work.descriptor.task_id}:in:{unit.index}"

    # -- compute & output ---------------------------------------------------------------

    def _compute(self, seconds: float) -> Generator:
        if seconds <= 0:
            return
        yield self.machine.cpu.run(seconds)
        self.usage.cpu_s += seconds

    def _writes_per_unit(self) -> bool:
        # Data-service runs stream the whole output block at the end
        # instead of spilling pieces to the local disk.
        return (isinstance(self.work.descriptor.output, (DfsOutput,))
                and self.engine.datasvc is None)

    def _write_output_piece(self, nbytes: float, disk_index: int,
                            block_id: str) -> Generator:
        if nbytes <= 0:
            return
        yield self.machine.cache.write(disk_index, nbytes, block_id,
                                       write_through=self.engine.flush_writes)
        self.usage.disk_bytes_written += nbytes

    def _write_dfs_block(self) -> Generator:
        """Stream a DFS output block to the data service (if enabled)."""
        output = self.work.descriptor.output
        svc = self.engine.datasvc
        if svc is None or not isinstance(output, DfsOutput):
            return
        descriptor = self.work.descriptor
        yield from svc.write_block(
            self.machine.machine_id, f"dfsout:{descriptor.task_id}",
            self.work.output_stored_bytes,
            (descriptor.job_id, descriptor.stage_id, descriptor.index),
            payload=(self.work.output_partition
                     if output.keep_payload else None))
        self.usage.network_bytes += self.work.output_stored_bytes

    def _write_shuffle_buckets(self, disk_index: int) -> Generator:
        output = self.work.descriptor.output
        if not isinstance(output, ShuffleOutput):
            return
        if output.in_memory:
            # No disk I/O; the engine accounts the resident bytes when
            # the winning attempt commits.
            return
        svc = self.engine.datasvc
        if svc is not None:
            # Disaggregated shuffle: stream the buckets to the service
            # instead of the local disk.
            descriptor = self.work.descriptor
            buckets = {
                reduce_index: output.fmt.stored_bytes(bucket.data_bytes)
                for reduce_index, bucket
                in sorted((self.work.shuffle_buckets or {}).items())
            }
            yield from svc.put_map_output(
                self.machine.machine_id, output.shuffle_id,
                descriptor.index, buckets,
                (descriptor.job_id, descriptor.stage_id, descriptor.index))
            self.usage.network_bytes += sum(buckets.values())
            return
        if self.engine.flush_writes and self.work.output_stored_bytes > 0:
            # The forced-flush configuration syncs whole shuffle files,
            # not one tiny write per bucket.
            yield self.machine.cache.write(
                disk_index, self.work.output_stored_bytes,
                f"{self.work.descriptor.task_id}:shuffle",
                write_through=True)
            self.usage.disk_bytes_written += self.work.output_stored_bytes
            return
        for reduce_index, bucket in sorted(
                (self.work.shuffle_buckets or {}).items()):
            nbytes = output.fmt.stored_bytes(bucket.data_bytes)
            if nbytes <= 0:
                continue
            # Must match ShuffleBucket.block_id so reducers reading the
            # bucket soon after can hit the OS buffer cache.
            block_id = (f"shuffle{output.shuffle_id}"
                        f"-m{self.work.descriptor.index}-r{reduce_index}")
            yield self.machine.cache.write(
                disk_index, nbytes, block_id,
                write_through=self.engine.flush_writes)
            self.usage.disk_bytes_written += nbytes
