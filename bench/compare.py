"""Compare two benchmark runs written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

For each workload and end-to-end metric, prints both sides' median and
quartiles, the share of pairs B wins, and a verdict.  The repeats of A
and B come from two separate runs, so a pair is any repeat of A with any
repeat of B (ties count for neither side):

* improved   -- each side has at least ten repeats (``run.py --repeats
  10``), B wins at least 9/10 of the pairs, and the medians differ by
  more than A's interquartile range;
* worse      -- B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json (any increase, for ``failed_share``);
* unresolved -- either side's spread (IQR / median) is wider than the
  bound, unless B wins every pair;
* unchanged  -- otherwise.

A differing ``sim_digest`` or deterministic counter is flagged as
"simulation changed".  Exits 1 if any row is worse, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import TIMED_COUNTERS, load_spec, summarize  # noqa: E402

#: Fewer repeats than this on either side never count as an improvement.
MIN_REPEATS = 10


def load_bounds() -> Dict[str, Dict]:
    """End-to-end metric name -> {"bound", "better"} from BENCHMARK.json."""
    bounds = {m["name"]: {"bound": m["bound"], "better": m["better"]}
              for m in load_spec()["end_to_end"]}
    bounds["failed_share"] = {"bound": 0.0, "better": "lower"}
    return bounds


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str = "lower") -> Dict:
    """Compare two lists of repeats of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    sa, sb = summarize(a), summarize(b)
    wins = sum(1 for x in a for y in b if sign * (x - y) > 0)
    win_share = wins / (len(a) * len(b))
    gain = sign * (sa["median"] - sb["median"])
    iqr_a = sa["q3"] - sa["q1"]
    if sa["median"]:
        worse_by = -gain / abs(sa["median"])
    else:
        worse_by = float("inf") if gain < 0 else 0.0
    spread = max(_spread(sa), _spread(sb))
    if (min(len(a), len(b)) >= MIN_REPEATS and win_share >= 0.9
            and gain > iqr_a):
        word = "improved"
    elif worse_by > bound:
        word = "worse"
    elif spread > bound and win_share < 1.0:
        word = "unresolved"
    else:
        word = "unchanged"
    return {"a": sa, "b": sb, "wins": win_share, "worse_by": worse_by,
            "verdict": word}


def _spread(summary: Dict) -> float:
    median = abs(summary["median"])
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def simulation_changes(a: Dict, b: Dict) -> List[str]:
    """Deterministic differences between two runs of one workload."""
    changes = []
    if a.get("digest") != b.get("digest"):
        changes.append(f"sim_digest {a.get('digest')} -> {b.get('digest')}")
    ca, cb = a.get("counters", {}), b.get("counters", {})
    for name in sorted(set(ca) | set(cb)):
        if name in TIMED_COUNTERS or name.endswith(".self_s"):
            continue
        if ca.get(name) != cb.get(name):
            changes.append(f"{name} {ca.get(name)} -> {cb.get(name)}")
    return changes


def compare(run_a: Dict, run_b: Dict,
            bounds: Optional[Dict[str, Dict]] = None) -> List[Dict]:
    """One row per workload x end-to-end metric present in both runs."""
    bounds = bounds or load_bounds()
    by_name = {w["workload"]: w for w in run_b["workloads"]}
    rows = []
    for wa in run_a["workloads"]:
        wb = by_name.get(wa["workload"])
        if wb is None or "metrics" not in wa or "metrics" not in wb:
            continue
        changes = simulation_changes(wa, wb)
        for name, spec in bounds.items():
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            row = verdict(wa["metrics"][name]["values"],
                          wb["metrics"][name]["values"],
                          spec["bound"], spec["better"])
            row.update(workload=wa["workload"], metric=name,
                       unit=wa["metrics"][name]["unit"],
                       bound=spec["bound"], changes=changes)
            rows.append(row)
    return rows


def _side(summary: Dict) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}] n={summary['n']}")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json B.json",
              file=sys.stderr)
        return 2
    runs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    rows = compare(*runs)
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B wins':>6} {'worse':>8}  verdict")
    flagged = set()
    for row in rows:
        change = f"{100 * row['worse_by']:+.1f}%"
        print(f"{row['workload']:<15} {row['metric']:<12} "
              f"{_side(row['a']):<34} {_side(row['b']):<34} "
              f"{row['wins']:>6.0%} {change:>8}  {row['verdict']}")
        if row["changes"] and row["workload"] not in flagged:
            flagged.add(row["workload"])
            print(f"{'':<15} simulation changed: "
                  + "; ".join(row["changes"][:4]))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
