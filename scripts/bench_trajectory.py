"""Regenerate and check the committed BENCH_*.json trajectories.

Runs one bench from ``repro.trajectory.REGISTRY`` and writes its JSON
(default ``BENCH_<bench>.json`` at the repo root).  With ``--check
BASELINE`` the result must match BASELINE exactly, apart from
``repeats`` and the bench's wall-clock timing keys; see
``repro.trajectory.check``.  The bench's floor or budget gate applies
on every run.  The committed file (BASELINE, or the repo-root copy)
also supplies the fields a run carries forward, such as the kernel
bench's frozen baseline and floor.

Usage:
    python scripts/bench_trajectory.py [--bench clarity]
        [--output BENCH_clarity.json] [--check BASELINE] [--repeats 2]

Exit status 0 on match, 1 on drift or a failed gate.
"""

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.trajectory import REGISTRY, check, load  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", choices=sorted(REGISTRY),
                        default="clarity",
                        help="which trajectory to run (default clarity)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON summary "
                             "(default BENCH_<bench>.json at the repo root)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="diff against this committed baseline "
                             "instead of accepting the new result")
    parser.add_argument("--repeats", type=int, default=2,
                        help="runs per measurement: invariants must agree, "
                             "the best wall clock is kept (default 2)")
    args = parser.parse_args(argv)
    bench = load(args.bench)
    default = os.path.join(_ROOT, f"BENCH_{bench.name}.json")
    committed = None
    if args.check or os.path.exists(default):
        with open(args.check or default) as handle:
            committed = json.load(handle)

    result = bench.run(args.repeats, committed)
    output = args.output or default
    with open(output, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    timing = {key: result[key] for key in bench.timing if key in result}
    print(f"wrote {output}" + (f": {json.dumps(timing)}" if timing else ""))

    failures = check(bench, result, committed if args.check else None)
    if failures:
        print(f"{bench.name} trajectory failed:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    if args.check:
        print(f"{bench.name} trajectory matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
