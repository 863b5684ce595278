"""Check the five host-benchmark workloads' ``sim_digest``s.

Runs ``bench/run.py --workload W --repeats 1 --out FILE`` for each
workload with this interpreter and compares the digest of the run with
the value pinned below.  A digest hashes every job's (id, start, end)
and the simulation counters, so it moves only when the simulation does:
the same digests should come out on every supported interpreter.  On
Python 3.12 and later bdb-spark and tenants-chaos do not yet match,
because the built-in ``sum`` there rounds float sums differently.

Usage:
    python scripts/check_bench_digests.py

Exit status 0 when every digest matches, 1 when one differs or a run
fails.
"""

import json
import os
import subprocess
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Seed-0 digest of each workload; update one only with a change that
#: means to move the simulation, and say why.
PINNED = {
    "serve-observed":
        "31c897882b203de0301e978c15905a5edb3f1394b3911a93946c32aca18a16f7",
    "serve-bare":
        "ec9a364999b87cd60b4e733512af3d5001240f340fc474384e9e15ad81ef6509",
    "shuffle-bulk":
        "051834f88b956656b1dc0ef0d0ad8f09f250a471bb33a00c21da8a44cf2fb50f",
    "bdb-spark":
        "3d3900db47893546fa8ecac64e58c8d1420d52154e0dea6d427e5b3dee333d75",
    "tenants-chaos":
        "6c2658be3d7a6316539007de1d44063a47e04c5b283ae4dfa96e2df6d418a928",
}


def run_digest(workload: str, workdir: str) -> str:
    """One seed-0 repeat of ``workload``; its digest, or raises."""
    out = os.path.join(workdir, f"{workload}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "bench", "run.py"),
         "--workload", workload, "--repeats", "1", "--out", out],
        cwd=_ROOT, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"bench/run.py exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        (result,) = json.load(handle)["workloads"]
    return result["digest"]


def main() -> int:
    python = sys.version.split()[0]
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for workload, pinned in PINNED.items():
            try:
                digest = run_digest(workload, workdir)
            except RuntimeError as exc:
                print(f"{workload}: run failed on Python {python}: {exc}")
                failed += 1
                continue
            if digest == pinned:
                print(f"{workload}: {digest} ok")
            else:
                print(f"{workload}: {digest} differs on Python {python} "
                      f"from the pinned {pinned}")
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
