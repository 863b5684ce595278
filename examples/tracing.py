"""Causal tracing: which chain of waits and work set this job's runtime?

The paper's thesis is performance *clarity*: because every monotask
uses exactly one resource, the framework can explain where time went.
This example runs the same shuffle word count on both engines with full
span tracing and live telemetry enabled, then asks the clarity question:

* MonoSpark's span tree has per-resource monotask leaves, so the
  critical-path walk decomposes the job's wall clock into cpu, disk,
  disk-queue, and network segments per machine -- and the segments sum
  to the job's duration exactly.
* Spark's spans stop at blended task attempts; the same walk still
  partitions the window, but every segment is the pseudo-resource
  ``task`` and the report says NOT ATTRIBUTABLE instead of pretending.

Along the way each run records a run capsule (every span and link, as
they close), samples telemetry gauges once per simulated second,
exports a Chrome/Perfetto trace (with shuffle flow arrows and
driver-side job/stage spans), and prints a Prometheus text-exposition
snapshot.

Run:  python examples/tracing.py
Artifacts land in $REPRO_TRACE_DIR (default: the system temp dir).
"""

import os
import tempfile

from repro import AnalyticsContext, MB, hdd_cluster
from repro.metrics.chrometrace import write_chrome_trace
from repro.trace import (TelemetryRegistry, TelemetrySampler, critical_path,
                         render_prometheus)
from repro.workloads.wordcount import generate_text_input, word_count
from repro.xray import RunRecorder

MACHINES = 2
SEED = 42
OUT_DIR = os.environ.get("REPRO_TRACE_DIR", tempfile.gettempdir())


def run(engine):
    cluster = hdd_cluster(num_machines=MACHINES, num_disks=2, seed=SEED)
    generate_text_input(cluster, num_blocks=MACHINES * 4,
                        block_bytes=64 * MB, seed=SEED)
    ctx = AnalyticsContext(cluster, engine=engine)

    capsule_path = os.path.join(OUT_DIR, f"tracing-{engine}.capsule")
    recorder = RunRecorder(capsule_path, engine=engine, seed=SEED)
    recorder.attach(ctx.metrics)

    registry = TelemetryRegistry()
    ctx.engine.register_telemetry(registry)
    sampler = TelemetrySampler(ctx.engine.env, registry, interval_s=1.0)
    sampler.start()

    word_count(ctx)

    sampler.stop()
    recorder.finalize(telemetry=registry)
    recorder.close()
    return ctx, registry, capsule_path


def main():
    snapshot = None
    for engine in ("monospark", "spark"):
        ctx, registry, capsule_path = run(engine)
        if engine == "monospark":
            snapshot = (registry, ctx.engine.env.now)
        job_id = ctx.last_result.job_id
        print(f"== {engine} ==")

        spans = ctx.metrics.spans_for_job(job_id)
        links = ctx.metrics.links_for_job(job_id)
        by_kind = {}
        for span in spans:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        kinds = "  ".join(f"{kind}={count}"
                          for kind, count in sorted(by_kind.items()))
        print(f"spans: {len(spans)} ({kinds}), links: {len(links)}")
        print(f"run capsule: {capsule_path}")

        trace_path = os.path.join(OUT_DIR, f"tracing-{engine}.json")
        result = write_chrome_trace(ctx.metrics, trace_path, job_id=job_id)
        print(f"chrome trace: {result.events} events -> {result.path}")

        # The clarity question: decompose the critical path, or admit
        # you cannot.
        print(critical_path(ctx.metrics, job_id, engine=engine).format())

        series = registry.read()
        total = sum(len(points) for points in series.values())
        print(f"telemetry: {total} series across {len(series)} metrics, "
              f"{len(registry.samples)} samples recorded")
        if engine == "monospark":
            print("per-resource queue-depth gauges exist only here; the "
                  "blended engine has no per-resource queues to sample")
        print()

    # The exposition format the gauges export in (post-run, so the
    # queues have drained back to zero).
    print("== Prometheus snapshot (monospark, end of run) ==")
    registry, now = snapshot
    text = render_prometheus(registry, now=now)
    wanted = ("repro_pending_tasks", "repro_resource_queue_depth")
    for line in text.splitlines():
        if any(line.startswith(f"# {kind} {name}") or line.startswith(name)
               for name in wanted for kind in ("HELP", "TYPE")):
            print(line)


if __name__ == "__main__":
    main()
