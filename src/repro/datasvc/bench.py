"""Data-service benchmark: disaggregated vs co-located shuffle, faulted.

The disaggregation argument (PAPERS.md: Whiz, F², Pocket) is that
shuffle output kept on compute machines dies with them -- a mid-job
crash forces lineage re-execution of every map task the machine ran.
With the data tier split out, map output lives on storage nodes and a
compute crash loses nothing.  This benchmark pins that contrast as
seeded, deterministic invariants:

* **Compute crash mid-shuffle** -- the same word count, same seed, same
  crash time, run co-located and disaggregated on both engines.  The
  co-located run shows ``fetch-failed`` attempts and re-executed maps;
  the disaggregated run must show **zero** of either.
* **Block corruption** -- one storage replica's checksum is flipped
  mid-run.  The read must detect the mismatch, fail over to the good
  replica, re-replicate, and bump the node's integrity suspicion
  counter -- with byte-identical job results.

Every number in the summary is a deterministic function of the seed, so
CI diffs the committed ``BENCH_datasvc.json`` *exactly*; the benchmark
itself runs twice and raises on any cross-run drift, which makes every
invocation double as a determinism check.

``scripts/bench_trajectory.py --bench datasvc`` runs :data:`BENCH`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.trajectory import Bench, repeat_deterministic

__all__ = ["DataSvcWorkload", "BENCH"]


@dataclass(frozen=True)
class DataSvcWorkload:
    """The seeded fault scenarios the data-service benchmark drives."""

    machines: int = 4
    disks: int = 2
    seed: int = 2
    records: int = 4000
    num_partitions: int = 8
    num_nodes: int = 3
    replication: int = 2
    #: Compute machine crashed just after its maps finish.
    crash_machine: int = 1
    #: Crash at ``map_end * crash_scale`` (past the map stage, before
    #: the reduces have fetched everything).
    crash_scale: float = 1.02
    restart_after: float = 1.0
    #: Storage node whose first replica gets its checksum flipped.
    corrupt_node: int = 0
    corrupt_at: float = 0.004


def _word_count(ctx, workload: DataSvcWorkload) -> List[Tuple[str, int]]:
    records = [f"w{i % 17} w{i % 11}" for i in range(workload.records)]
    rdd = ctx.parallelize(records,
                          num_partitions=workload.num_partitions)
    return sorted(rdd.flat_map(lambda line: line.split())
                     .map(lambda word: (word, 1))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())


def _run_job(workload: DataSvcWorkload, engine: str, disaggregated: bool,
             plan=None):
    """One job under one configuration; returns (ctx, service, results)."""
    from repro.api.context import AnalyticsContext
    from repro.cluster import hdd_cluster
    from repro.datasvc.service import DataService
    from repro.faults import FaultInjector

    cluster = hdd_cluster(num_machines=workload.machines,
                          num_disks=workload.disks, seed=workload.seed)
    service = None
    options: Dict = {}
    if disaggregated:
        service = DataService(cluster, num_nodes=workload.num_nodes,
                              replication=workload.replication)
        options["datasvc"] = service
    ctx = AnalyticsContext(cluster, engine=engine, **options)
    if plan is not None:
        FaultInjector(ctx.engine, plan).start()
    results = _word_count(ctx, workload)
    return ctx, service, results


def _map_end(ctx) -> float:
    """When the first (map) stage of the last job finished."""
    stages = ctx.metrics.stage_records(ctx.last_result.job_id)
    return min(stage.end for stage in stages)


def _outcomes(ctx) -> Dict[str, int]:
    counts = ctx.metrics.attempt_outcome_counts(ctx.last_result.job_id)
    return {kind: count for kind, count in sorted(counts.items()) if count}


def _engine_invariants(workload: DataSvcWorkload, engine: str) -> Dict:
    """All deterministic numbers for one engine, gates enforced."""
    from repro.faults import (BlockCorruption, FaultPlan, MachineCrash,
                              StorageNodeCrash)

    clean_ctx, _, expected = _run_job(workload, engine,
                                      disaggregated=False)
    crash_at = _map_end(clean_ctx) * workload.crash_scale
    crash = FaultPlan([MachineCrash(at=crash_at,
                                    machine_id=workload.crash_machine,
                                    restart_after=workload.restart_after)])

    colocated_ctx, _, colocated_results = _run_job(
        workload, engine, disaggregated=False, plan=crash)
    datasvc_ctx, crash_svc, datasvc_results = _run_job(
        workload, engine, disaggregated=True, plan=crash)
    if colocated_results != expected or datasvc_results != expected:
        raise AssertionError(f"{engine}: crash run results diverged")
    datasvc_outcomes = _outcomes(datasvc_ctx)
    if datasvc_outcomes.get("fetch-failed"):
        raise AssertionError(
            f"{engine}: disaggregated run lost map output to a compute "
            f"crash: {datasvc_outcomes}")

    corruption = FaultPlan([BlockCorruption(at=workload.corrupt_at,
                                            node_index=workload.corrupt_node)])
    corrupt_ctx, corrupt_svc, corrupt_results = _run_job(
        workload, engine, disaggregated=True, plan=corruption)
    if corrupt_results != expected:
        raise AssertionError(f"{engine}: corruption run results diverged")
    stats = corrupt_svc.stats()
    if not (stats["integrity_faults"] and stats["failovers"]):
        raise AssertionError(
            f"{engine}: corruption was not detected and failed over: "
            f"{stats}")

    node_crash = FaultPlan([StorageNodeCrash(at=workload.corrupt_at,
                                             node_index=workload.corrupt_node)])
    node_ctx, node_svc, node_results = _run_job(
        workload, engine, disaggregated=True, plan=node_crash)
    if node_results != expected:
        raise AssertionError(f"{engine}: storage-crash results diverged")

    def svc_counts(service) -> Dict[str, float]:
        return {key: value for key, value in sorted(service.stats().items())
                if value}

    return {
        "distinct_words": len(expected),
        "crash_at": round(crash_at, 6),
        "colocated_crash_outcomes": _outcomes(colocated_ctx),
        "datasvc_crash_outcomes": datasvc_outcomes,
        "datasvc_crash_stats": svc_counts(crash_svc),
        "corruption_stats": svc_counts(corrupt_svc),
        "corruption_suspicions": {
            f"s{node}": count for node, count in
            sorted(corrupt_svc.suspicion_counts().items())},
        "storage_crash_stats": svc_counts(node_svc),
        "storage_crash_outcomes": _outcomes(node_ctx),
    }


def _run(repeats: int, committed: Optional[Dict]) -> Dict:
    """The dict ``BENCH_datasvc.json`` holds."""
    workload = DataSvcWorkload()
    invariants, _ = repeat_deterministic(
        lambda: ({engine: _engine_invariants(workload, engine)
                  for engine in ("monospark", "spark")}, None), repeats)
    return {
        "benchmark": "datasvc_faults",
        "workload": asdict(workload),
        "repeats": repeats,
        "invariants": invariants,
    }


BENCH = Bench("datasvc", _run)
