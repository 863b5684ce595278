"""Kernel-throughput benchmark: simulated monotasks/sec, observed.

The ROADMAP's "simulator-kernel raw speed" item (and the Dask-overheads
paper in PAPERS.md) says per-task *runtime* overhead, not scheduling
policy, is what caps task throughput.  This module pins that number: a
seeded serving run on the MonoSpark engine with the **full always-on
observability pipeline attached** -- clarity aggregation folding every
completed job's critical path, plus a telemetry sampler snapshotting
every gauge each simulated second -- measured in wall-clock time.  The
paper's clarity story (PAPER.md §4) only holds if observing the system
stays cheap, so the benchmark deliberately charges the kernel for its
observability, not just for its event loop.

The stream is the clarity pipeline's seeded sort stream
(:func:`repro.clarity.validate.build_clarity_run`), tuned by
:data:`WORKLOAD` to the always-on serving regime: a *long* stream of
*small interactive* jobs arriving fast, with telemetry sampling on and
bounded by :data:`TELEMETRY_RETENTION_S` the way a forever-run must
be.  Thousands of completed jobs is the point -- per-job observability
work (span collection, critical-path folding) that scales with
*accumulated history* rather than with the job itself shows up here as
a superlinear wall-clock blowup, which is exactly what the committed
trajectory guards against.

Two kinds of numbers come out:

* **Deterministic workload invariants** -- jobs completed, monotask
  count, events scheduled, final simulated time, telemetry points
  retained.  Same seed => identical values, on any machine; CI diffs
  them exactly.
* **Wall-clock throughput** -- simulated monotasks (and kernel events)
  processed per real second.  Machine-dependent; the committed
  ``BENCH_kernel.json`` keeps the pre-optimization baseline frozen next
  to the current measurement so the speedup trajectory is visible, and
  CI only enforces a conservative floor.

``scripts/bench_trajectory.py --bench kernel`` and
``benchmarks/test_kernel_throughput.py`` both run :data:`BENCH`.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.clarity.validate import ClarityWorkload, build_clarity_run
from repro.trace.telemetry import TelemetryRegistry, TelemetrySampler
from repro.trajectory import Bench, repeat_deterministic

__all__ = ["WORKLOAD", "TELEMETRY_INTERVAL_S", "TELEMETRY_RETENTION_S",
           "BENCH"]

#: The stream the kernel bench serves: the clarity stream's cluster,
#: run long with small sorts arriving fast.
WORKLOAD = ClarityWorkload(duration_s=7200.0, rate_per_s=0.4,
                           sort_gb=0.1875, sort_tasks=8)
#: Simulated seconds between telemetry samples.
TELEMETRY_INTERVAL_S = 1.0
#: Simulated seconds of telemetry (and busy-tracker) history kept.
TELEMETRY_RETENTION_S = 120.0


def _run(repeats: int, committed: Optional[Dict]) -> Dict:
    """The dict ``BENCH_kernel.json`` holds (best wall clock of ``repeats``).

    The frozen pre-optimization ``baseline`` and the CI floor
    ``min_monotasks_per_s`` are carried forward from ``committed``: the
    slow code the baseline measured is gone, so it cannot be
    regenerated.  With nothing committed the floor is a quarter of the
    current measurement, low enough to absorb runner-speed variance
    while still catching an order-of-magnitude regression.
    """
    invariants, wall_s = repeat_deterministic(
        lambda: _run_once(WORKLOAD), repeats)
    current = {
        "wall_s": round(wall_s, 3),
        "monotasks_per_s": round(invariants["monotasks"] / wall_s, 1),
        "events_per_s": round(invariants["events_scheduled"] / wall_s, 1),
    }
    committed = committed or {}
    summary: Dict = {
        "benchmark": "kernel_throughput",
        "workload": {**asdict(WORKLOAD),
                     "telemetry_interval_s": TELEMETRY_INTERVAL_S,
                     "telemetry_retention_s": TELEMETRY_RETENTION_S},
        "repeats": repeats,
        "invariants": invariants,
        "current": current,
        "min_monotasks_per_s": committed.get(
            "min_monotasks_per_s",
            round(current["monotasks_per_s"] * 0.25, 1)),
    }
    baseline = committed.get("baseline")
    if baseline:
        summary["baseline"] = baseline
        summary["speedup_monotasks"] = round(
            current["monotasks_per_s"] / baseline["monotasks_per_s"], 2)
    return summary


def _gate(result: Dict) -> List[str]:
    """Measured monotasks/sec must clear the committed floor."""
    rate = result["current"]["monotasks_per_s"]
    floor = result["min_monotasks_per_s"]
    if rate < floor:
        return [f"monotasks_per_s {rate} fell below the committed "
                f"floor {floor}"]
    return []


def _run_once(workload: ClarityWorkload) -> Tuple[Dict, float]:
    """Serve ``workload`` once with telemetry on: invariants, wall s."""
    ctx, server, _ = build_clarity_run(workload)
    env = ctx.engine.env
    registry = TelemetryRegistry(retention_s=TELEMETRY_RETENTION_S)
    server.telemetry = TelemetrySampler(env, registry,
                                        interval_s=TELEMETRY_INTERVAL_S)

    start = time.perf_counter()
    report = server.run()
    wall_s = time.perf_counter() - start

    completed = sum(1 for r in report.records if r.outcome == "completed")
    return {
        "jobs": completed,
        "monotasks": len(ctx.metrics.monotasks),
        "events_scheduled": env.events_scheduled,
        "sim_time_s": round(env.now, 4),
        "telemetry_points": len(registry.store),
    }, wall_s


BENCH = Bench("kernel", _run, timing=("current", "speedup_monotasks"),
              gate=_gate)
