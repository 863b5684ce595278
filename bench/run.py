"""The repo benchmark: host time of the simulator on five workloads.

    python3 bench/run.py [--workload W] [--seed N]
                         [--repeats N | --seconds S] [--trace 0|1]
                         [--out FILE]
    python3 bench/run.py --ladder [--repeats N]

Each repeat runs in a fresh child process (``bench/child.py``), one at
a time, with ``PYTHONHASHSEED=0`` and ``src`` on the path.  The parent
prints every metric with its unit, checks every repeat's outputs and
simulation digest, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

By default each workload keeps starting repeats while the next one fits
in ``run_seconds`` of BENCHMARK.json, or in ``--seconds S`` when given;
``--repeats N`` runs exactly N instead.
``--trace 1`` adds one profiled repeat per workload and reports the
per-layer ledger instead of the end-to-end metrics.
``--ladder`` runs serve-observed at three durations and fails if host
time grows faster than linearly.

Times are host seconds scaled to a reference host speed: a probe
(``probe.py``) samples the host's speed 20 times a second while each
repeat runs, and every time is divided by the slowdown it saw over the
same interval, so a shared host that slows down does not read as a
regression.  The unscaled wall time is kept in ``--out`` files as
``raw_wall_s``.

Exit codes: 0 when every check passes, 1 when any output check, digest
or ladder check fails, 2 on a usage error or a missing source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from layers import LAYERS, OTHER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOAD_NAMES = ("serve-observed", "serve-bare", "shuffle-bulk",
                  "bdb-spark", "tenants-chaos")

#: End-to-end metrics (name, unit), measured untraced.  ``failed_share``
#: is printed too but is not a BENCHMARK.json metric: it is 0 whenever
#: the run is correct, and the final line carries it as
#: ``failed``/``attempted``.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: Counters read from public state after every untraced repeat.
COUNTERS = (
    ("simulator.core.events", "count", "lower"),
    ("simulator.core.sim_s", "s", "lower"),
    ("simulator.core.us_per_event", "us", "lower"),
    ("monospark.monotasks", "count", "lower"),
    ("monospark.monotasks_per_s", "1/s", "higher"),
    ("engine.attempts", "count", "lower"),
    ("engine.retries", "count", "lower"),
    ("metrics.spans", "count", "lower"),
    ("serve.jobs_submitted", "count", "higher"),
    ("serve.jobs_completed", "count", "higher"),
    ("xray.capsule_mb", "MiB", "lower"),
    ("xray.load_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
#: The counters derived from host time; every other one (and every
#: ``<layer>.calls``) repeats exactly for the same code and seed.
TIMED_COUNTERS = frozenset(("simulator.core.us_per_event",
                            "monospark.monotasks_per_s", "xray.load_s",
                            "trace_overhead"))

#: A traced repeat costs about this many untraced ones (cProfile).
TRACE_COST = 4.0
CHILD_TIMEOUT_S = 170.0

#: --ladder: serve-observed at these multiples of its benchmark size
#: (1200, 2400 and 4800 simulated seconds), and the growth limit.
LADDER_SCALES = (2.0, 4.0, 8.0)
LADDER_MAX_EXPONENT = 1.15


def load_spec() -> Dict:
    """The repo's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics = list(COUNTERS)
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
    metrics.append((f"{OTHER}.self_s", "s", "lower"))
    return metrics


def run_child(workload: str, seed: int, trace: bool,
              scale: float = 1.0) -> Dict:
    """One repeat in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC,
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload,
           str(seed), "1" if trace else "0", WORKDIR, repr(scale)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} repeat exceeded {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        return {"error": f"{workload} repeat exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: Sequence[float]) -> Dict:
    """Median, quartiles, min, max and n of a list of repeats."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (the median twice for one value)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(workload: str, seed: int, repeats: Optional[int],
                 seconds: Optional[float], trace: bool) -> Dict:
    """All repeats of one workload, checked and summarized."""
    started = time.monotonic()
    reps: List[Dict] = []
    errors: List[str] = []
    while True:
        rep = run_child(workload, seed, trace=False)
        if "error" in rep:
            errors.append(rep["error"])
            break
        reps.append(rep)
        if repeats is not None:
            if len(reps) >= repeats:
                break
            continue
        elapsed = time.monotonic() - started
        per_repeat = elapsed / len(reps)
        reserve = TRACE_COST * per_repeat if trace else 0.0
        if elapsed + per_repeat + reserve > seconds:
            break
    traced = None
    if trace and not errors:
        traced = run_child(workload, seed, trace=True)
        if "error" in traced:
            errors.append(traced["error"])
            traced = None
    result: Dict = {"workload": workload, "seed": seed, "errors": errors,
                    "repeats": reps}
    if not reps:
        result.update(attempted=1, failed=1, correct=False)
        return result

    failures = sorted({text for rep in reps for text in rep["failures"]})
    digests = sorted({rep["digest"] for rep in reps + [traced or reps[0]]})
    if len(digests) > 1:
        failures.append(f"sim_digest differs between repeats: {digests}")
    attempted = sum(rep["submitted"] for rep in reps)
    failed = (attempted if len(digests) > 1 or errors
              else sum(rep["failed"] for rep in reps))
    result.update(attempted=attempted, failed=failed,
                  correct=not failures and not errors and failed == 0,
                  failures=failures, digest=digests[0])

    metrics = {
        "wall_s": summarize([scaled(rep, "wall") for rep in reps]),
        "setup_s": summarize([scaled(rep, "setup") for rep in reps]),
        "peak_rss_mb": summarize([rep["peak_rss_mb"] for rep in reps]),
        "failed_share": summarize([failed / attempted])}
    for name, unit in END_TO_END + (("failed_share", "ratio"),):
        metrics[name]["unit"] = unit
    result["metrics"] = metrics
    result["raw_wall_s"] = summarize([rep["wall_s"] for rep in reps])
    result["host_slowdown"] = statistics.median(
        rep["wall_slowdown"] for rep in reps)

    wall = metrics["wall_s"]["median"]
    counters = {name: 0.0 for name, _, _ in COUNTERS}
    counters.update(reps[0]["counters"])
    for name in reps[0]["timings"]:
        counters[name] = statistics.median(
            rep["timings"][name] / rep["wall_slowdown"] for rep in reps)
    counters["simulator.core.us_per_event"] = (
        1e6 * wall / counters["simulator.core.events"])
    counters["monospark.monotasks_per_s"] = (
        counters["monospark.monotasks"] / wall)
    if traced is not None:
        # The traced repeat runs without the probe: compare raw times.
        counters["trace_overhead"] = (traced["wall_s"]
                                      / result["raw_wall_s"]["median"])
        for layer, seconds_ in traced["self_s"].items():
            counters[f"{layer}.self_s"] = seconds_
        for layer, calls in traced["calls"].items():
            counters[f"{layer}.calls"] = calls
    result["counters"] = counters
    return result


def scaled(rep: Dict, section: str) -> float:
    """A repeat's ``setup`` or ``wall`` time at reference host speed."""
    return rep[f"{section}_s"] / rep[f"{section}_slowdown"]


def run_ladder(seed: int, repeats: int) -> Dict:
    """serve-observed at three durations; the host-time growth exponent."""
    steps = []
    for scale in LADDER_SCALES:
        reps = [run_child("serve-observed", seed, trace=False, scale=scale)
                for _ in range(repeats)]
        errors = [rep["error"] for rep in reps if "error" in rep]
        if errors:
            return {"errors": errors, "correct": False, "steps": steps}
        steps.append({
            "scale": scale,
            "sim_horizon_s": reps[0]["counters"]["simulator.core.sim_s"],
            "jobs": reps[0]["submitted"],
            "failed": sum(rep["failed"] for rep in reps),
            "wall_s": statistics.median(scaled(rep, "wall")
                                        for rep in reps),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                             for rep in reps)})
    exponent = math.log2(steps[-1]["wall_s"] / steps[-2]["wall_s"])
    return {"steps": steps, "exponent": exponent,
            "max_exponent": LADDER_MAX_EXPONENT, "errors": [],
            "correct": (exponent <= LADDER_MAX_EXPONENT
                        and not any(step["failed"] for step in steps))}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(result: Dict, trace: bool) -> None:
    """Human-readable report of one workload."""
    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{len(result['repeats'])} repeats, "
          f"{'ok' if result['correct'] else 'FAILED'}")
    if "host_slowdown" in result:
        raw = result["raw_wall_s"]
        print(f"   host ran {result['host_slowdown']:.3f}x slower than the "
              f"reference; unscaled wall_s median {_fmt(raw['median'])} s")
    for error in result["errors"]:
        print(f"   error: {error}")
    for failure in result.get("failures", []):
        print(f"   check failed: {failure}")
    if "metrics" not in result:
        return
    for name, m in result["metrics"].items():
        print(f"   {name:<14} {_fmt(m['median']):>12} {m['unit']:<6} "
              f"(median; min {_fmt(m['min'])}, max {_fmt(m['max'])}, "
              f"n {m['n']})")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    counters = result["counters"]
    shown = list(units) if trace else [name for name, _, _ in COUNTERS]
    total = sum(v for k, v in counters.items() if k.endswith(".self_s"))
    for name in shown:
        share = ""
        if name.endswith(".self_s") and total > 0:
            share = f" ({100 * counters[name] / total:.1f}% of self time)"
        print(f"   {name:<32} {_fmt(counters.get(name, 0.0)):>12} "
              f"{units[name]}{share}")
    print(f"   sim_digest {result['digest']}")


def contract_line(results: List[Dict], trace: bool) -> Dict:
    """The final JSON line: correctness and the BENCHMARK.json metrics."""
    metrics: Dict[str, Dict] = {}
    names = ([(name, unit, "") for name, unit in END_TO_END] if not trace
             else per_layer_metrics())
    for result in results:
        if "metrics" not in result:
            continue
        prefix = "" if len(results) == 1 else f"{result['workload']}:"
        for name, unit, _ in names:
            value = (result["metrics"][name]["median"] if not trace
                     else result["counters"].get(name, 0.0))
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--repeats", type=int, default=None)
    budget.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="write every repeat and summary as JSON")
    parser.add_argument("--ladder", action="store_true")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.repeats is None and args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator source at {SRC}/repro: run from a full "
              f"checkout", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.ladder:
            return _ladder_main(args)
        workloads = (WORKLOAD_NAMES if args.workload == "all"
                     else (args.workload,))
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.repeats,
                                  args.seconds, bool(args.trace))
            print_workload(result, bool(args.trace))
            results.append(result)
        if args.out:
            _write(args.out, {"seed": args.seed, "trace": args.trace,
                              "host": _host(), "workloads": results})
        line = contract_line(results, bool(args.trace))
        print(json.dumps(line, sort_keys=True))
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _ladder_main(args: argparse.Namespace) -> int:
    ladder = run_ladder(args.seed, args.repeats or 1)
    for step in ladder["steps"]:
        print(f"   serve-observed x{step['scale']:g} "
              f"({step['jobs']} jobs, {step['sim_horizon_s']:.0f} sim s): "
              f"wall_s {_fmt(step['wall_s'])} s, "
              f"peak_rss_mb {_fmt(step['peak_rss_mb'])} MiB")
    for error in ladder["errors"]:
        print(f"   error: {error}")
    if "exponent" in ladder:
        print(f"   growth exponent log2(wall 2x / wall 1x) = "
              f"{ladder['exponent']:.3f} (limit {LADDER_MAX_EXPONENT})")
    if args.out:
        _write(args.out, {"seed": args.seed, "host": _host(),
                          "ladder": ladder})
    steps = ladder["steps"]
    print(json.dumps({
        "correct": ladder["correct"],
        "attempted": max(1, sum(step["jobs"] for step in steps)),
        "failed": sum(step["failed"] for step in steps),
        "metrics": {f"x{step['scale']:g}:{name}": {"value": step[name],
                                                     "unit": unit}
                    for step in steps
                    for name, unit in (("wall_s", "s"),
                                       ("peak_rss_mb", "MiB"))}},
        sort_keys=True))
    return 0 if ladder["correct"] else 1


def _host() -> Dict:
    return {"cpus": os.cpu_count(), "python": sys.version.split()[0],
            "platform": sys.platform}


def _write(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
