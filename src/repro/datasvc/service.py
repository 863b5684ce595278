"""A disaggregated shuffle/storage data service (Whiz/F²-style).

The :class:`DataService` owns shuffle output and DFS output blocks on a
dedicated set of *storage nodes* -- simulated machines that live on the
same network fabric as the compute cluster but are never scheduled by
the task pool.  Each node runs its own per-disk monotask schedulers on
the existing simulator kernel, so data-tier contention is as visible as
compute-tier contention.

Clients talk to the service through a narrow API:

* :meth:`DataService.put_map_output` -- stream a map task's shuffle
  buckets to the service (write-behind: acked on memory write, drained
  to disk asynchronously).
* :meth:`DataService.fetch_shuffle` -- fetch shuffle bucket bytes for a
  reduce task, verified against per-block CRC checksums.
* :meth:`DataService.write_block` / :meth:`DataService.read_block` --
  the same paths for DFS output blocks.

Every stored block is replicated on ``replication`` nodes with
deterministic ring placement that skips crashed and health-excluded
nodes.  Reads verify a CRC over the block's content digest: a mismatch
raises an integrity fault event, increments the serving node's
suspicion counter in the health monitor, fails over to another replica,
and queues re-replication -- so a compute machine can crash without
losing any map output (no lineage re-execution), and a flaky disk or
NIC becomes a *verifiable* fault instead of silent corruption.
"""

from __future__ import annotations

import zlib
from typing import Dict, Generator, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.errors import (ConfigError, FaultError, Interrupted,
                          MachineFailure)
from repro.metrics.events import (PHASE_DATASVC_DRAIN, PHASE_DATASVC_READ,
                                  HealthEventRecord, TransferRecord)
from repro.monospark.monotask import DiskMonotask
from repro.monospark.schedulers import ResourceScheduler
from repro.simulator.network import FLOW_LATENCY_S
from repro.trace.spans import LINK_DATASVC_READ, TraceContext

__all__ = ["DataService", "StorageNode", "StoredBlock", "Replica",
           "block_checksum"]

#: Concurrent monotasks per storage-node disk.
DISK_CONCURRENCY = 4
#: Integrity suspicions after which a node takes no new placements.
SUSPICION_EXCLUDE_THRESHOLD = 2


def block_checksum(block_id: str, record_count: float,
                   data_bytes: float) -> int:
    """CRC32 over a deterministic digest of the block's identity/shape.

    Real systems checksum the payload bytes; the simulation checksums a
    stable digest of what the payload *is* (id, record count, modeled
    bytes), which detects the same corruption events deterministically
    without hashing python object graphs (whose reprs are not stable).
    """
    digest = f"{block_id}:{record_count!r}:{data_bytes!r}"
    return zlib.crc32(digest.encode("utf-8"))


class Replica:
    """One node's copy of a stored block."""

    __slots__ = ("node_index", "disk_index", "stored_crc", "valid")

    def __init__(self, node_index: int, stored_crc: int) -> None:
        self.node_index = node_index
        #: None while the copy is memory-resident (write-behind window).
        self.disk_index: Optional[int] = None
        #: The checksum of the bytes this replica actually holds; flipped
        #: by an injected corruption fault.
        self.stored_crc = stored_crc
        #: Cleared when the copy is discarded (corrupt, or lost with a
        #: crashed node's memory).
        self.valid = True


class StoredBlock:
    """One replicated, checksummed block owned by the service."""

    __slots__ = ("block_id", "nbytes", "crc", "kind", "replicas", "payload",
                 "shuffle_id", "map_index", "buckets")

    def __init__(self, block_id: str, nbytes: float, crc: int, kind: str,
                 payload: object = None) -> None:
        self.block_id = block_id
        self.nbytes = nbytes
        #: The checksum stamped at put time -- ground truth for reads.
        self.crc = crc
        self.kind = kind  # "shuffle" | "dfs"
        self.replicas: List[Replica] = []
        self.payload = payload
        self.shuffle_id: Optional[int] = None
        self.map_index: Optional[int] = None
        #: reduce_index -> stored bucket bytes (shuffle blocks only).
        self.buckets: Dict[int, float] = {}

    def live_replicas(self, node_is_live) -> List[Replica]:
        """Valid replicas on live nodes, memory-resident first, then by
        node index -- a deterministic preference order."""
        candidates = [r for r in self.replicas
                      if r.valid and node_is_live(r.node_index)]
        candidates.sort(key=lambda r: (r.disk_index is not None,
                                       r.node_index))
        return candidates


class StorageNode:
    """One storage machine: hardware models plus per-disk schedulers.

    Duck-types as a monotask "worker" (``env`` / ``machine`` /
    ``engine``) so plain :class:`DiskMonotask` instances run on its
    schedulers and self-report through the normal metrics path.
    """

    def __init__(self, service: "DataService", index: int,
                 machine: Machine) -> None:
        self.engine = service  # .engine.metrics is the reporting path
        self.service = service
        self.index = index
        self.machine = machine
        self.env = machine.env
        prefix = f"s{machine.machine_id}"
        self.disk_schedulers: List[ResourceScheduler] = [
            ResourceScheduler(self.env, DISK_CONCURRENCY,
                              f"{prefix}.disk{i}")
            for i in range(machine.num_disks)
        ]
        self.down = False
        #: Bytes held in the write-behind window (acked, not yet drained).
        self.memory_resident_bytes = 0.0

    @property
    def machine_id(self) -> int:
        """Fabric-wide machine id (above every compute id)."""
        return self.machine.machine_id

    def submit_disk(self, monotask: DiskMonotask) -> None:
        """Queue a disk monotask on the node's own scheduler."""
        self.disk_schedulers[monotask.disk_index].submit(monotask)

    def crash(self) -> None:
        """Lose the node: schedulers reject work, NIC goes dark, and the
        write-behind window (memory) is lost; disk copies survive."""
        self.down = True
        for scheduler in self.disk_schedulers:
            scheduler.fail_all()
        for disk in self.machine.disks:
            disk.fail_all()
        network = self.machine.network
        network.set_machine_up(self.machine_id, False)
        network.fail_machine(self.machine_id)
        self.memory_resident_bytes = 0.0

    def restart(self) -> None:
        """Bring the node back with its disk contents intact."""
        self.down = False
        for disk in self.machine.disks:
            disk.revive()
        for scheduler in self.disk_schedulers:
            scheduler.revive()
        self.machine.network.set_machine_up(self.machine_id, True)

    def queue_lengths(self) -> Dict[str, int]:
        """Per-disk queue depth (the data tier's contention signal)."""
        return {f"disk{i}": s.queue_length
                for i, s in enumerate(self.disk_schedulers)}


class DataService:
    """The disaggregated data tier: replicated, checksummed block store.

    Construct it over a cluster, then pass it to either engine::

        cluster = hdd_cluster(num_machines=4)
        svc = DataService(cluster, num_nodes=3, replication=2)
        ctx = AnalyticsContext(cluster, engine="monospark", datasvc=svc)

    Storage nodes get machine ids ``cluster.num_machines ..`` on the
    shared network fabric; :meth:`owns_machine` tells the engines which
    ids belong to the data tier.

    ``network`` overrides the fabric the tier's transfers ride on.  The
    default (the cluster's shared network) is right for shuffle and DFS
    data; a service carrying out-of-band metadata -- the control plane's
    tenant checkpoints -- passes its own :class:`Network` so metadata
    flows never perturb the max-min fair shares (and therefore the
    float-exact timing) of compute transfers.

    Storage nodes share the cluster's machine spec.  Each node disk runs
    :data:`DISK_CONCURRENCY` monotasks at once, and a node with
    :data:`SUSPICION_EXCLUDE_THRESHOLD` integrity suspicions takes no
    new placements; both are fixed constants.
    """

    def __init__(self, cluster: Cluster, num_nodes: int = 3,
                 replication: int = 2, network=None) -> None:
        if num_nodes < 1:
            raise ConfigError("data service needs at least one node")
        if replication < 1:
            raise ConfigError("replication must be >= 1")
        self.cluster = cluster
        self.env = cluster.env
        self.network = network if network is not None else cluster.network
        self.num_nodes = num_nodes
        self.replication = min(replication, num_nodes)
        self._base_id = cluster.num_machines
        self.nodes: List[StorageNode] = [
            StorageNode(self, i, Machine(cluster.env, self._base_id + i,
                                         cluster.spec, self.network))
            for i in range(num_nodes)
        ]
        self._engine = None
        self._health = None
        self._metrics = None
        self._blocks: Dict[str, StoredBlock] = {}
        #: bucket block id ("shuffle0-m1-r2") -> owning map block id.
        self._bucket_owner: Dict[str, str] = {}
        self._placement_cursor = 0
        self._excluded_nodes: set = set()
        self._suspicions: Dict[int, int] = {}
        # Cumulative counters (the ServeReport / telemetry face).
        self.puts = 0
        self.fetches = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0
        self.drains = 0
        self.replications = 0
        self.integrity_faults = 0
        self.failovers = 0
        self.re_replications = 0
        self.lineage_losses = 0

    # -- wiring --------------------------------------------------------------

    def attach_engine(self, engine) -> None:
        """Called by :class:`BaseEngine` when the service is enabled."""
        self._engine = engine
        self._metrics = engine.metrics

    def attach_health(self, health) -> None:
        """Route integrity faults into a :class:`HealthMonitor`."""
        self._health = health

    @property
    def metrics(self):
        """The attached engine's collector (monotask self-reports land
        here); None only before :meth:`attach_engine`."""
        return self._metrics

    # -- identity ------------------------------------------------------------

    def owns_machine(self, machine_id: int) -> bool:
        """True if ``machine_id`` names a storage node, not compute."""
        return self._base_id <= machine_id < self._base_id + self.num_nodes

    def node_machine_id(self, node_index: int) -> int:
        """Fabric machine id of storage node ``node_index``."""
        return self._base_id + node_index

    def block_info(self, block_id: str) -> Optional[Tuple[float, object]]:
        """``(nbytes, payload)`` of a held block, or ``None``.

        Readers that pay the simulated I/O cost via :meth:`read_block`
        use this to get the actual content back -- the control plane's
        checkpoint restore path decodes the payload it wrote.
        """
        block = self._blocks.get(block_id)
        if block is None:
            return None
        return (block.nbytes, block.payload)

    @property
    def live_node_count(self) -> int:
        """Storage nodes currently up."""
        return sum(1 for node in self.nodes if not node.down)

    def _node_is_live(self, node_index: int) -> bool:
        return not self.nodes[node_index].down

    def _placeable(self, node_index: int) -> bool:
        return (not self.nodes[node_index].down
                and node_index not in self._excluded_nodes)

    # -- placement -----------------------------------------------------------

    def _place(self, count: int) -> List[int]:
        """Deterministic ring placement skipping down/excluded nodes.

        Falls back to down/excluded nodes only when fewer than ``count``
        healthy nodes exist (degraded placement beats no placement).
        """
        healthy = [i for i in range(self.num_nodes) if self._placeable(i)]
        ring = healthy if healthy else list(range(self.num_nodes))
        chosen: List[int] = []
        start = self._placement_cursor
        for offset in range(len(ring)):
            if len(chosen) >= count:
                break
            chosen.append(ring[(start + offset) % len(ring)])
        self._placement_cursor += 1
        return chosen

    # -- write path ----------------------------------------------------------

    def put_map_output(self, src_machine_id: int, shuffle_id: int,
                       map_index: int, buckets: Dict[int, float],
                       ids: Tuple[int, int, int],
                       payload: object = None) -> Generator:
        """Stream one map task's shuffle output to the service.

        ``buckets`` maps reduce index -> stored bucket bytes.  Acked as
        soon as the primary holds the data in memory (write-behind);
        replication and disk drain continue asynchronously.  Returns
        (via StopIteration value) the primary node's machine id.
        """
        block_id = f"shuffle{shuffle_id}-m{map_index}"
        total = float(sum(buckets.values()))
        block = self._new_block(block_id, total, kind="shuffle",
                                payload=payload)
        block.shuffle_id = shuffle_id
        block.map_index = map_index
        block.buckets = dict(buckets)
        for reduce_index in buckets:
            self._bucket_owner[
                f"{block_id}-r{reduce_index}"] = block_id
        primary = yield from self._ingest(src_machine_id, block, ids)
        return primary

    def write_block(self, src_machine_id: int, block_id: str, nbytes: float,
                    ids: Tuple[int, int, int],
                    payload: object = None) -> Generator:
        """Store one DFS output block (same write-behind path)."""
        block = self._new_block(block_id, float(nbytes), kind="dfs",
                                payload=payload)
        primary = yield from self._ingest(src_machine_id, block, ids)
        return primary

    def _new_block(self, block_id: str, nbytes: float, kind: str,
                   payload: object) -> StoredBlock:
        crc = block_checksum(
            block_id,
            getattr(payload, "record_count", 0.0) or 0.0, nbytes)
        block = StoredBlock(block_id, nbytes, crc, kind, payload=payload)
        # Re-put (speculative/retried attempt) replaces the old copy.
        self._blocks[block_id] = block
        return block

    def _ingest(self, src_machine_id: int, block: StoredBlock,
                ids: Tuple[int, int, int]) -> Generator:
        """Client -> primary transfer, memory ack, async drain."""
        placement = self._place(self.replication)
        if not placement:
            raise FaultError(f"no storage node for block {block.block_id}")
        primary = self.nodes[placement[0]]
        if primary.down:
            raise MachineFailure(
                f"storage node {primary.index} is down")
        yield self.env.timeout(FLOW_LATENCY_S)  # the put request
        if block.nbytes > 0:
            yield self.network.transfer(
                src_machine_id, primary.machine_id, block.nbytes,
                label=f"datasvc-put:{block.block_id}")
        replica = Replica(primary.index, block.crc)
        block.replicas.append(replica)
        primary.memory_resident_bytes += block.nbytes
        self.puts += 1
        self.bytes_in += block.nbytes
        # Write-behind: the client is acked now; followers and the disk
        # drain proceed off the client's critical path.
        self.env.process(self._drain_replica(primary, block, replica, ids))
        for node_index in placement[1:]:
            self.env.process(self._replicate(
                primary, self.nodes[node_index], block, ids))
        return primary.machine_id

    def _replicate(self, source: StorageNode, target: StorageNode,
                   block: StoredBlock, ids: Tuple[int, int, int]) -> Generator:
        """Copy a block to one follower node, then drain it to disk."""
        try:
            if block.nbytes > 0:
                yield self.network.transfer(
                    source.machine_id, target.machine_id, block.nbytes,
                    label=f"datasvc-repl:{block.block_id}")
        except (FaultError, Interrupted):
            return  # an endpoint died mid-copy; re-replication can retry
        if target.down or self._blocks.get(block.block_id) is not block:
            return
        replica = Replica(target.index, block.crc)
        block.replicas.append(replica)
        target.memory_resident_bytes += block.nbytes
        self.replications += 1
        yield from self._drain_replica(target, block, replica, ids)

    def _drain_replica(self, node: StorageNode, block: StoredBlock,
                       replica: Replica,
                       ids: Tuple[int, int, int]) -> Generator:
        """Write-behind drain: move one memory copy onto a disk."""
        if block.nbytes <= 0:
            replica.disk_index = node.machine.pick_write_disk()
            return
        write = DiskMonotask(node, PHASE_DATASVC_DRAIN, ids,
                             disk_index=node.machine.pick_write_disk(),
                             nbytes=block.nbytes, kind="write")
        node.submit_disk(write)
        try:
            yield write.done
        except (FaultError, Interrupted):
            return  # the node crashed: the memory copy is already lost
        if node.down or not replica.valid:
            return
        replica.disk_index = write.disk_index
        node.memory_resident_bytes = max(
            0.0, node.memory_resident_bytes - block.nbytes)
        self.drains += 1

    # -- read path -----------------------------------------------------------

    def fetch_shuffle(self, dst_machine_id: int,
                      requests: List[Tuple[str, float]],
                      ids: Tuple[int, int, int],
                      trace: Optional[TraceContext] = None,
                      span_id: Optional[int] = None) -> Generator:
        """Fetch shuffle bucket bytes for a reduce task.

        ``requests`` is a list of (bucket block id, stored bytes); the
        service resolves each bucket to its owning map-output block,
        coalesces per block, and serves each from a checksum-verified
        replica.
        """
        per_block: Dict[str, float] = {}
        for bucket_id, nbytes in requests:
            if nbytes <= 0:
                continue
            owner = self._bucket_owner.get(bucket_id, bucket_id)
            per_block[owner] = per_block.get(owner, 0.0) + nbytes
        serves = [
            self.env.process(self._serve(dst_machine_id, block_id, nbytes,
                                         ids, trace, span_id))
            for block_id, nbytes in sorted(per_block.items())
        ]
        if serves:
            yield self.env.all_of(serves)
        self.fetches += 1

    def read_block(self, dst_machine_id: int, block_id: str, nbytes: float,
                   ids: Tuple[int, int, int],
                   trace: Optional[TraceContext] = None,
                   span_id: Optional[int] = None) -> Generator:
        """Read (part of) one DFS block from a verified replica."""
        yield from self._serve(dst_machine_id, block_id, float(nbytes),
                               ids, trace, span_id)

    def _serve(self, dst_machine_id: int, block_id: str, nbytes: float,
               ids: Tuple[int, int, int],
               trace: Optional[TraceContext],
               span_id: Optional[int]) -> Generator:
        """Serve one block read: verify, failover, transfer."""
        block = self._blocks.get(block_id)
        if block is None:
            raise FaultError(f"data service holds no block {block_id}")
        attempt = 0
        while True:
            candidates = block.live_replicas(self._node_is_live)
            if not candidates:
                # Lost beyond replication.  Invalidate the registry entry
                # (so the retried attempt fetch-fails at resolve time and
                # lineage re-executes the map) and fail this attempt with
                # a FaultError -- the only failure type the monotask
                # scheduler contract admits.
                self._lose_block(block)
                raise MachineFailure(
                    f"no live replica of block {block_id}")
            replica = candidates[0]
            node = self.nodes[replica.node_index]
            if attempt > 0:
                self.failovers += 1
            attempt += 1
            if replica.stored_crc != block.crc:
                self._integrity_fault(node, block, replica)
                continue
            try:
                yield from self._stream(node, dst_machine_id, block, replica,
                                        nbytes, ids, trace, span_id)
            except (FaultError, Interrupted):
                continue  # the node died mid-serve: fail over
            self.bytes_out += nbytes
            return

    def _stream(self, node: StorageNode, dst_machine_id: int,
                block: StoredBlock, replica: Replica, nbytes: float,
                ids: Tuple[int, int, int],
                trace: Optional[TraceContext],
                span_id: Optional[int]) -> Generator:
        """Disk read (if drained) + network transfer for one serve."""
        yield self.env.timeout(FLOW_LATENCY_S)  # the read request
        if replica.disk_index is not None and nbytes > 0:
            read = DiskMonotask(node, PHASE_DATASVC_READ, ids,
                                disk_index=replica.disk_index,
                                nbytes=nbytes, kind="read")
            if trace is not None and span_id is not None \
                    and self._metrics is not None:
                read.trace = trace
                read.span_id = self._metrics.new_span_id()
                self._metrics.record_link(
                    from_span_id=read.span_id, to_span_id=span_id,
                    kind=LINK_DATASVC_READ, trace_id=trace.trace_id,
                    at=self.env.now,
                    detail=self._metrics.text(
                        "datasvc read on node {} -> fetch on machine {}",
                        node.index, dst_machine_id))
            node.submit_disk(read)
            yield read.done
        if nbytes > 0:
            start = self.env.now
            yield self.network.transfer(
                node.machine_id, dst_machine_id, nbytes,
                label=f"datasvc-read:{block.block_id}")
            if self._metrics is not None:
                self._metrics.record_transfer(TransferRecord(
                    src_machine_id=node.machine_id,
                    dst_machine_id=dst_machine_id, nbytes=nbytes,
                    start=start, end=self.env.now, job_id=ids[0]))

    # -- integrity / fault handling ------------------------------------------

    def _integrity_fault(self, node: StorageNode, block: StoredBlock,
                         replica: Replica) -> None:
        """A checksum mismatch: record, suspect the node, drop the copy."""
        self.integrity_faults += 1
        replica.valid = False
        count = self._suspicions.get(node.index, 0) + 1
        self._suspicions[node.index] = count
        detail = (f"checksum mismatch on block {block.block_id} "
                  f"(replica on storage node {node.index})")
        if self._health is not None:
            self._health.report_integrity_fault(node.machine_id,
                                                detail=detail)
        elif self._metrics is not None:
            self._metrics.record_event(HealthEventRecord(
                kind="integrity-fault", machine_id=node.machine_id,
                at=self.env.now, resource="disk", detail=detail))
        if count >= SUSPICION_EXCLUDE_THRESHOLD:
            self._excluded_nodes.add(node.index)
        self.env.process(self._restore_replication(block))

    def suspicion_counts(self) -> Dict[int, int]:
        """Integrity suspicions per storage node index."""
        return dict(self._suspicions)

    @property
    def excluded_nodes(self) -> frozenset:
        """Nodes excluded from new placements (too many suspicions)."""
        return frozenset(self._excluded_nodes)

    def _restore_replication(self, block: StoredBlock) -> Generator:
        """Re-replicate a block that lost a copy, from a good replica."""
        if self._blocks.get(block.block_id) is not block:
            return
        good = block.live_replicas(self._node_is_live)
        if not good:
            return
        holders = {r.node_index for r in block.replicas if r.valid}
        targets = [i for i in self._place(self.replication)
                   if i not in holders]
        source = self.nodes[good[0].node_index]
        for node_index in targets[:max(0, self.replication - len(good))]:
            self.re_replications += 1
            yield from self._replicate(source, self.nodes[node_index],
                                       block, (-1, -1, -1))

    def _lose_block(self, block: StoredBlock) -> None:
        """Every replica is gone: surface the loss to the lineage layer."""
        self.lineage_losses += 1
        if block.kind == "shuffle" and self._engine is not None \
                and block.shuffle_id is not None:
            registry = self._engine.map_outputs
            if hasattr(registry, "invalidate_map"):
                registry.invalidate_map(block.shuffle_id, block.map_index)

    # -- fault-injection entry points ----------------------------------------

    def crash_node(self, node_index: int) -> None:
        """Storage-node crash: memory copies are lost, disks survive."""
        node = self.nodes[node_index]
        if node.down:
            return
        for block in self._blocks.values():
            for replica in block.replicas:
                if replica.node_index == node_index \
                        and replica.disk_index is None:
                    replica.valid = False
        node.crash()

    def restart_node(self, node_index: int) -> None:
        """Bring a crashed node back; its disk replicas become readable."""
        node = self.nodes[node_index]
        if not node.down:
            return
        node.restart()

    def corrupt_block(self, node_index: int, block_seq: int = 0) -> str:
        """Flip the stored checksum of one replica on ``node_index``.

        ``block_seq`` selects the ``block_seq``-th block (sorted by id)
        holding a valid replica on the node; returns the corrupted block
        id, or "" when the node holds nothing to corrupt.
        """
        held = sorted(
            block_id for block_id, block in self._blocks.items()
            if any(r.node_index == node_index and r.valid
                   for r in block.replicas))
        if not held:
            return ""
        block = self._blocks[held[block_seq % len(held)]]
        for replica in block.replicas:
            if replica.node_index == node_index and replica.valid:
                replica.stored_crc ^= 0xFFFFFFFF
                return block.block_id
        return ""

    def alias_block(self, block_id: str, new_block_id: str) -> None:
        """Rename a stored block to its final id.

        DFS output blocks are streamed under a provisional id while the
        task runs (the block's file offset is unknown until the attempt
        wins); the engine renames them at commit time.  Checksums are
        re-stamped for the new id; a replica already corrupted keeps
        mismatching.
        """
        block = self._blocks.pop(block_id, None)
        if block is None:
            return
        new_crc = block_checksum(
            new_block_id,
            getattr(block.payload, "record_count", 0.0) or 0.0, block.nbytes)
        for replica in block.replicas:
            if replica.stored_crc == block.crc:
                replica.stored_crc = new_crc
        block.block_id = new_block_id
        block.crc = new_crc
        self._blocks[new_block_id] = block

    # -- introspection -------------------------------------------------------

    def block(self, block_id: str) -> Optional[StoredBlock]:
        """Look up a stored block (None if unknown)."""
        return self._blocks.get(block_id)

    def primary_machine_id(self, block_id: str) -> Optional[int]:
        """Fabric machine id of a block's first valid replica."""
        block = self._blocks.get(block_id)
        if block is None:
            return None
        for replica in block.replicas:
            if replica.valid:
                return self.node_machine_id(replica.node_index)
        return None

    def stats(self) -> Dict[str, float]:
        """Deterministic cumulative counters for reports and benches."""
        return {
            "nodes": self.num_nodes,
            "live_nodes": self.live_node_count,
            "replication": self.replication,
            "blocks": len(self._blocks),
            "puts": self.puts,
            "fetches": self.fetches,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "drains": self.drains,
            "replications": self.replications,
            "integrity_faults": self.integrity_faults,
            "failovers": self.failovers,
            "re_replications": self.re_replications,
            "lineage_losses": self.lineage_losses,
            "excluded_nodes": len(self._excluded_nodes),
        }

    def register_telemetry(self, telemetry) -> None:
        """Expose the data tier's gauges/counters in a registry."""
        telemetry.counter(
            "repro_datasvc_integrity_faults",
            "Checksum mismatches detected on read",
            lambda: self.integrity_faults)
        telemetry.counter(
            "repro_datasvc_failovers",
            "Reads served from a non-preferred replica",
            lambda: self.failovers)
        telemetry.gauge(
            "repro_datasvc_live_nodes",
            "Storage nodes currently up",
            lambda: self.live_node_count)
        for node in self.nodes:
            telemetry.gauge(
                "repro_datasvc_write_behind_bytes",
                "Acked bytes not yet drained to disk",
                (lambda n=node: n.memory_resident_bytes),
                node=node.index)
            for index, scheduler in enumerate(node.disk_schedulers):
                telemetry.gauge(
                    "repro_datasvc_disk_queue_depth",
                    "Queued monotasks on a storage-node disk",
                    (lambda s=scheduler: s.queue_length),
                    node=node.index, disk=index)
