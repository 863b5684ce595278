"""Tracing cost and critical-path attribution on a shuffle workload.

Not a paper figure -- the acceptance gate for the `repro.trace`
subsystem.  Runs the paper's sort (scaled down) on both engines with
span tracing on and reports, per engine, how many spans/links/trace
events the run recorded on top of the existing metric records
(the "overhead" of tracing is bookkeeping volume; simulated time is
unchanged by construction), plus the critical-path verdict:

* MonoSpark's segments decompose the job's wall clock by resource and
  sum to it exactly;
* Spark's path is a single blended-task resource -- not attributable.

The table is a deterministic function of the seed, so a rerun must
reproduce it byte-for-byte (asserted below by running twice).
"""

from helpers import emit, once, run_sort_experiment

from repro.metrics.chrometrace import trace_events
from repro.trace import critical_path

FRACTION = 0.01
MACHINES = 4
MAP_TASKS = 32


def run_engine(engine):
    ctx, result, _ = run_sort_experiment(
        engine, machines=MACHINES, disks=2, fraction=FRACTION,
        num_map_tasks=MAP_TASKS)
    return ctx, result


def summarize(engine, ctx, result):
    metrics = ctx.metrics
    job_id = result.job_id
    spans = metrics.spans_for_job(job_id)
    links = metrics.links_for_job(job_id)
    events = trace_events(metrics, job_id=job_id)
    report = critical_path(metrics, job_id, engine=engine)
    records = (len(metrics.monotasks) + len(metrics.attempts) + len(metrics.transfers)
               + len(metrics.jobs))
    if report.attributable:
        top = sorted(report.fractions().items(),
                     key=lambda item: (-item[1], item[0]))[:2]
        verdict = "  ".join(f"{label} {100 * share:.1f}%"
                            for label, share in top)
    else:
        verdict = "not attributable (blended tasks)"
    residual = abs(report.total_attributed - report.duration)
    row = [engine, records, len(spans), len(links), len(events),
           len(report.segments), f"{result.duration:.2f}",
           f"{residual:.1e}", verdict]
    return row, report


def run_all():
    out = {}
    for engine in ("monospark", "spark"):
        ctx, result = run_engine(engine)
        out[engine] = summarize(engine, ctx, result)
    return out


def test_tracing_attribution(benchmark):
    results = once(benchmark, run_all)

    rows = [results[engine][0] for engine in ("monospark", "spark")]
    notes = [f"sort at fraction {FRACTION} on {MACHINES}x2 HDD, "
             f"{MAP_TASKS} map tasks; residual = |sum(segments) - "
             f"wall-clock|, exact by construction on monospark",
             "records = pre-existing metric records; tracing adds the "
             "span/link columns on top without changing simulated time"]
    text = emit(
        "tracing",
        "Causal tracing: span volume and critical-path attribution",
        ["engine", "records", "spans", "links", "trace events",
         "segments", "job (s)", "residual (s)", "critical path"],
        rows, notes=notes)

    mono = results["monospark"][1]
    spark = results["spark"][1]
    assert mono.attributable
    assert abs(mono.total_attributed - mono.duration) < 1e-9
    assert len(mono.by_label()) >= 3  # cpu/disk/queue/network decompose
    assert not spark.attributable
    assert set(spark.by_label()) <= {"task", "driver"}

    # Byte stability: the same seed must reproduce the table exactly.
    again = run_all()
    rows_again = [again[engine][0] for engine in ("monospark", "spark")]
    assert rows_again == rows, "tracing benchmark is not deterministic"
    assert text  # persisted under benchmarks/results/tracing.txt
