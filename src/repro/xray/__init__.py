"""repro.xray: run capsules plus a differential performance debugger.

The paper's clarity promise, made comparative: record any run into a
single deterministic *capsule* (spans, links, journal, telemetry,
clarity windows, summary -- schema-versioned and loadable without
re-simulation), query it like a trace-analytics store, and *diff* two
capsules to answer "why is run B slower than run A?" with ranked,
causal, per-``resource x machine x phase`` blame -- exact on MonoSpark,
explicitly NOT ATTRIBUTABLE on Spark (§6.6).
"""

from repro.xray.capsule import (CAPSULE_SCHEMA, KNOWN_SCHEMAS, Capsule,
                                RunRecorder)
from repro.xray.diff import (DEFAULT_MIN_FRACTION, DEFAULT_NOISE_FLOOR_S,
                             BlameEntry, DiffReport, JobPair, align_jobs,
                             diff_capsules)
from repro.xray.query import (GROUP_KEYS, AggregateRow, CapsuleQuery,
                              TenantRate)
from repro.xray.scenario import CanonicalRun, build_run, record_run

__all__ = [
    "CAPSULE_SCHEMA",
    "KNOWN_SCHEMAS",
    "Capsule",
    "RunRecorder",
    "CapsuleQuery",
    "AggregateRow",
    "TenantRate",
    "GROUP_KEYS",
    "DiffReport",
    "BlameEntry",
    "JobPair",
    "diff_capsules",
    "align_jobs",
    "DEFAULT_NOISE_FLOOR_S",
    "DEFAULT_MIN_FRACTION",
    "CanonicalRun",
    "build_run",
    "record_run",
]
