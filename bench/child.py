"""One repeat of one workload in a fresh process (started by run.py).

    python3 bench/child.py WORKLOAD SEED TRACE WORKDIR [SCALE]

Needs ``src`` on ``PYTHONPATH``.  Prints one JSON object: the repeat's
raw host times with the host slowdown the probe saw during each, peak
memory, counters, output-check failures and digest, plus the per-layer
profile when TRACE is 1.  A traced repeat runs without the probe, so
its timer signal stays out of the profile.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
import time

from probe import Probe


def main(argv) -> int:
    name, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", \
        argv[3]
    scale = float(argv[4]) if len(argv) > 4 else 1.0
    probe = Probe()
    if not trace:
        probe.start()
    # setup_s starts just before ``import repro`` (which workloads does).
    setup_start = time.perf_counter()
    from workloads import build
    timed = build(name, seed, scale, workdir=workdir)
    start = time.perf_counter()
    setup_s = start - setup_start
    setup_samples = len(probe.samples)
    profile = cProfile.Profile() if trace else None
    if profile is not None:
        profile.enable()
    outcome = timed()
    wall_s = time.perf_counter() - start
    if profile is not None:
        profile.disable()
    else:
        probe.stop()
    outcome.check()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_slowdown": probe.slowdown(0, setup_samples),
        "wall_slowdown": probe.slowdown(setup_samples),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "submitted": outcome.submitted,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "failures": [text for text, _ in outcome.failures],
        "counters": outcome.counters,
        "timings": outcome.timings,
        "digest": outcome.digest(),
    }
    if profile is not None:
        from layers import fold
        self_s, calls = fold(pstats.Stats(profile).stats)
        result["self_s"] = self_s
        result["calls"] = calls
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
