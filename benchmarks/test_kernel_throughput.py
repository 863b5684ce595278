"""Kernel-throughput benchmark: simulated monotasks/sec, observed.

Runs the seeded serving stream from ``repro.kernelbench`` -- the
MonoSpark engine with the full always-on clarity/telemetry pipeline
attached -- and checks it against the committed ``BENCH_kernel.json``:
the deterministic workload invariants must match exactly (same seed =>
identical counts on any machine), and the measured throughput must
clear the committed conservative floor.  The committed file also keeps
the frozen pre-optimization baseline, so the emitted table shows the
speedup trajectory.
"""

import json
import os

from helpers import emit, once

from repro.kernelbench import BENCH, KernelWorkload
from repro.trajectory import check

BASELINE_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_kernel.json")

WORKLOAD = KernelWorkload()


def test_kernel_throughput(benchmark):
    with open(BASELINE_PATH) as handle:
        committed = json.load(handle)

    result = once(benchmark, lambda: BENCH.run(2, committed))
    frozen = committed["baseline"]
    current = result["current"]
    invariants = result["invariants"]

    rows = [
        ["pre-optimization (frozen)", frozen["wall_s"],
         frozen["monotasks_per_s"], frozen["events_per_s"], "1.0x"],
        ["this run", f"{current['wall_s']:.3f}",
         f"{current['monotasks_per_s']:.1f}",
         f"{current['events_per_s']:.1f}",
         f"{result['speedup_monotasks']:.2f}x"],
    ]
    notes = [
        f"{invariants['jobs']} jobs / {invariants['monotasks']} monotasks / "
        f"{invariants['events_scheduled']} kernel events in "
        f"{invariants['sim_time_s']:.0f} simulated seconds (seed "
        f"{WORKLOAD.seed}), telemetry sampled every "
        f"{WORKLOAD.telemetry_interval_s:.0f}s",
        f"committed CI floor: {committed['min_monotasks_per_s']} "
        f"monotasks/s",
    ]
    emit("kernel_throughput",
         f"kernel throughput, {WORKLOAD.machines} workers x "
         f"{WORKLOAD.disks} HDD, observed serving stream",
         ["kernel", "wall s", "monotasks/s", "events/s", "speedup"],
         rows, notes=notes)

    # Workload and invariants exactly; throughput against the floor
    # only (wall clock is machine-bound).
    assert check(BENCH, result, committed) == []
