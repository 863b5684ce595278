"""Retained host bytes per extra job of a bench workload, by site.

    python scripts/retained_per_job.py WORKLOAD

Runs the ``bench/workloads.py`` workload at scale 1 and at scale 2, each
in a fresh interpreter with ``PYTHONHASHSEED=0`` and seed 0.  Around the
timed section it collects, starts ``tracemalloc`` with one frame, takes
a snapshot, runs the section, collects again and takes a second
snapshot; the difference is what the timed section left alive, by
``file:line`` of the allocation.  The script then prints, per site and
in total, the growth between the two horizons divided by the extra jobs
submitted, in KiB per job.  The sites with the largest growth come
first; sites that moved by less than 0.05 KiB per job are folded into
the total only.

It reads ``bench/`` and writes nothing there; tenants-chaos writes its
capsule into a temporary directory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Sequence, Tuple

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

#: Horizons compared, as ``bench/workloads.py`` scales.
SCALES = (1.0, 2.0)

#: Sites below this many KiB per job are not listed on their own.
MIN_KIB_PER_JOB = 0.05


def _import_paths() -> None:
    """Put ``src`` and ``bench`` first on the import path."""
    for path in (BENCH, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _site(filename: str, lineno: int) -> str:
    """``repro/...:N`` for the package, ``module.py:N`` for the rest."""
    marker = os.sep + "repro" + os.sep
    if marker in filename:
        filename = filename[filename.index(marker) + len(marker):]
    else:
        filename = os.path.basename(filename)
    return f"{filename}:{lineno}"


def measure(workload: str, scale: float) -> Tuple[int, Dict[str, int]]:
    """Run one horizon in this process: (jobs submitted, bytes by site)."""
    import gc
    import tracemalloc
    _import_paths()
    from workloads import build
    with tempfile.TemporaryDirectory() as workdir:
        timed = build(workload, 0, scale, workdir=workdir)
        gc.collect()
        tracemalloc.start(1)
        before = tracemalloc.take_snapshot()
        outcome = timed()
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
    sites: Dict[str, int] = {}
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        site = _site(frame.filename, frame.lineno)
        sites[site] = sites.get(site, 0) + stat.size_diff
    return outcome.submitted, sites


def _measure_fresh(workload: str, scale: float) -> Tuple[int, Dict[str, int]]:
    """:func:`measure` in a fresh interpreter."""
    code = ("import json, sys; sys.path.insert(0, %r); "
            "import retained_per_job as r; "
            "print(json.dumps(r.measure(%r, %r)))"
            % (SCRIPTS, workload, scale))
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    jobs, sites = json.loads(out.strip().splitlines()[-1])
    return jobs, sites


def per_job(workload: str, scales: Sequence[float] = SCALES
            ) -> Tuple[int, Dict[str, float]]:
    """(extra jobs, KiB per extra job by site) between two horizons."""
    (jobs_lo, lo), (jobs_hi, hi) = (_measure_fresh(workload, scale)
                                    for scale in scales)
    extra = jobs_hi - jobs_lo
    if extra <= 0:
        raise SystemExit(f"{workload}: the larger horizon submitted "
                         f"{jobs_hi} jobs, not more than {jobs_lo}")
    growth = {site: (hi.get(site, 0) - lo.get(site, 0)) / 1024.0 / extra
              for site in set(lo) | set(hi)}
    return extra, growth


def format_report(workload: str, extra: int, growth: Dict[str, float],
                  scales: Sequence[float] = SCALES) -> str:
    """The by-site table and the total, one line each."""
    lines = [f"{workload}: retained KiB per extra job "
             f"({extra} extra jobs, scales {scales[0]:g} and "
             f"{scales[1]:g}, seed 0)"]
    for site, kib in sorted(growth.items(), key=lambda item: (-item[1],
                                                               item[0])):
        if abs(kib) >= MIN_KIB_PER_JOB:
            lines.append(f"  {kib:9.2f}  {site}")
    lines.append(f"  {sum(growth.values()):9.2f}  total")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    _import_paths()
    from workloads import WORKLOADS
    if len(argv) != 1 or argv[0] not in WORKLOADS:
        print(f"usage: retained_per_job.py {{{','.join(WORKLOADS)}}}",
              file=sys.stderr)
        return 2
    extra, growth = per_job(argv[0])
    print(format_report(argv[0], extra, growth))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
