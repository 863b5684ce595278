"""Command-line interface: run the paper's workloads and analyses.

Examples::

    python -m repro sort --engine monospark --machines 20 --fraction 0.05
    python -m repro bdb --query 2c --engine spark --fraction 0.1
    python -m repro ml --iterations 3
    python -m repro wordcount --engine monospark
    python -m repro whatif --disks 4 --in-memory
    python -m repro diagnose --degrade-machine 3 --disk-factor 0.3
    python -m repro trace --output trace.json
    python -m repro faults --crash-machine 1 --restart-after 20
    python -m repro serve --duration 300 --rate 0.1 --max-queued 8
    python -m repro clarity advise --duration 120 --rate 0.05
    python -m repro health --degrade-machine 1 --factor 10
    python -m repro datasvc --nodes 3 --replication 2 --crash-machine 1
    python -m repro controlplane --drivers 4 --crash-driver 3 --crash-at 20
    python -m repro obs alerts --degrade-machine 1 --factor 10
    python -m repro obs events --min-severity warning
    python -m repro obs watch --jobs 20
    python -m repro xray record clean.capsule
    python -m repro xray record degraded.capsule --degrade-machine 1
    python -m repro xray query clean.capsule --group-by machine --metric queue
    python -m repro xray diff clean.capsule degraded.capsule
    python -m repro xray regress clean.capsule degraded.capsule --threshold 0.5

Every command prints simulated runtimes; ``whatif``/``diagnose``/``trace``
additionally exercise the §6 performance-clarity machinery, ``serve``
runs a continuous multi-tenant request stream with SLO accounting, and
``health`` degrades one machine's NIC mid-stream and shows the online
health monitor detecting, attributing, and excluding it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import GB, MB, AnalyticsContext
from repro.cluster import hdd_cluster, ssd_cluster
from repro.config import SSD
from repro.metrics import format_seconds, render_timeline
from repro.metrics.chrometrace import write_chrome_trace
from repro.model import (WhatIf, diagnose_stragglers, hardware_profile,
                         predict, profile_job)
from repro.workloads.bigdata import (BdbScale, QUERIES, generate_bdb_tables,
                                     run_query)
from repro.workloads.ml import MlWorkload, make_ml_context, run_ml_workload
from repro.workloads.scaling import scaled_memory_overrides
from repro.workloads.sortgen import (SortWorkload, generate_sort_input,
                                     run_sort)
from repro.workloads.wordcount import generate_text_input, word_count

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Monotasks (SOSP 2017) reproduction: run the paper's "
                    "workloads on a simulated cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_machines=20):
        p.add_argument("--engine", choices=("spark", "monospark"),
                       default="monospark")
        p.add_argument("--machines", type=int, default=default_machines)
        p.add_argument("--disks", type=int, default=2)
        p.add_argument("--kind", choices=("hdd", "ssd"), default="hdd")
        p.add_argument("--fraction", type=float, default=0.05,
                       help="scale of the paper's data volume (default "
                            "0.05)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sort", help="the paper's 600 GB-class sort")
    common(p)
    p.add_argument("--values", type=int, default=25,
                   help="longs per key (CPU:I/O ratio knob)")
    p.add_argument("--tasks", type=int, default=480)

    p = sub.add_parser("bdb", help="a Big Data Benchmark query")
    common(p, default_machines=5)
    p.add_argument("--query", choices=QUERIES, default="2c")

    p = sub.add_parser("ml", help="least-squares block coordinate descent")
    p.add_argument("--engine", choices=("spark", "monospark"),
                   default="monospark")
    p.add_argument("--machines", type=int, default=15)
    p.add_argument("--iterations", type=int, default=3)

    p = sub.add_parser("wordcount", help="the Figure 1 word count")
    common(p, default_machines=4)

    p = sub.add_parser("whatif",
                       help="measure a sort once, predict new configs")
    common(p)
    p.add_argument("--values", type=int, default=25)
    p.add_argument("--tasks", type=int, default=480)
    p.add_argument("--new-disks", type=int, default=None,
                   help="predict with this many disks per machine")
    p.add_argument("--new-machines", type=int, default=None)
    p.add_argument("--ssd", action="store_true",
                   help="predict with SSD-speed disks")
    p.add_argument("--in-memory", action="store_true",
                   help="predict input cached deserialized in memory")

    p = sub.add_parser("diagnose",
                       help="inject degradation, find it from monotasks")
    common(p, default_machines=10)
    p.add_argument("--degrade-machine", type=int, default=None)
    p.add_argument("--disk-factor", type=float, default=1.0)
    p.add_argument("--cpu-factor", type=float, default=1.0)

    p = sub.add_parser("trace",
                       help="run a job and export / analyze its trace")
    p.add_argument("action", nargs="?", default="export",
                   choices=["export", "critical-path", "span-stats"],
                   help="export a chrome://tracing JSON (default), "
                        "attribute the job's critical path, or print "
                        "span/link statistics")
    common(p, default_machines=4)
    p.add_argument("--output", default="trace.json")
    p.add_argument("--timeline", action="store_true",
                   help="also print the ASCII timeline")
    p.add_argument("--capsule", default=None,
                   help="also record the run into this capsule file")
    p.add_argument("--workload", default="wordcount",
                   choices=["wordcount", "sort"],
                   help="wordcount (map-only-ish) or sort (shuffle-"
                        "heavy; shows disk/network on the path)")

    p = sub.add_parser("faults",
                       help="crash a machine mid-sort, watch recovery")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--tasks", type=int, default=32)
    p.add_argument("--crash-machine", type=int, default=1)
    p.add_argument("--crash-at", type=float, default=None,
                   help="crash time in seconds (default: 30%% of the "
                        "fault-free runtime)")
    p.add_argument("--restart-after", type=float, default=15.0,
                   help="seconds until the machine restarts (empty)")
    p.add_argument("--no-restart", action="store_true",
                   help="the machine never comes back")
    p.add_argument("--speculation", action="store_true",
                   help="enable straggler speculation")

    p = sub.add_parser("serve",
                       help="serve a multi-tenant job stream with SLOs")
    common(p, default_machines=4)
    p.add_argument("--duration", type=float, default=300.0,
                   help="arrival horizon in simulated seconds")
    p.add_argument("--rate", type=float, default=0.1,
                   help="interactive tenant arrivals per second")
    p.add_argument("--batch-rate", type=float, default=0.05,
                   help="batch tenant arrivals per second")
    p.add_argument("--slo", type=float, default=30.0,
                   help="interactive tenant SLO in seconds")
    p.add_argument("--policy",
                   choices=("fifo", "weighted_fair", "deadline"),
                   default="weighted_fair")
    p.add_argument("--max-queued", type=int, default=None,
                   help="shed arrivals beyond this queue length")
    p.add_argument("--max-backlog", type=float, default=None,
                   help="shed arrivals beyond this estimated backlog (s)")
    p.add_argument("--max-concurrent", type=int, default=None,
                   help="bound on concurrently running jobs")
    p.add_argument("--crash-machine", type=int, default=None,
                   help="crash this machine mid-stream")
    p.add_argument("--crash-at", type=float, default=60.0)
    p.add_argument("--restart-after", type=float, default=30.0)

    p = sub.add_parser("clarity",
                       help="serve a job stream with the always-on "
                            "clarity pipeline attached")
    p.add_argument("action", nargs="?", default="report",
                   choices=["report", "watch", "advise"],
                   help="report: serve then print the SLO report with "
                        "the clarity window folded in (default); watch: "
                        "print rolling bottleneck snapshots during the "
                        "serve; advise: rank capacity what-ifs over the "
                        "window")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--duration", type=float, default=120.0,
                   help="arrival horizon in simulated seconds")
    p.add_argument("--rate", type=float, default=0.05,
                   help="sort-job arrivals per second")
    p.add_argument("--sort-gb", type=float, default=0.5,
                   help="data volume of each served sort job (GB)")
    p.add_argument("--tasks", type=int, default=32,
                   help="map/reduce tasks per served job")
    p.add_argument("--window", type=float, default=600.0,
                   help="rolling bottleneck window in seconds")
    p.add_argument("--interval", type=float, default=30.0,
                   help="watch: snapshot interval in seconds")

    p = sub.add_parser("health",
                       help="degrade a NIC mid-stream, watch online "
                            "detection and exclusion")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--degrade-machine", type=int, default=1)
    p.add_argument("--degrade-at", type=float, default=5.0)
    p.add_argument("--factor", type=float, default=10.0,
                   help="NIC slowdown factor (>1 = slower)")
    p.add_argument("--jobs", type=int, default=12,
                   help="sequential word-count jobs to run")
    p.add_argument("--interval", type=float, default=5.0,
                   help="heartbeat/estimation interval in seconds")
    p.add_argument("--no-monitor", action="store_true",
                   help="run without the health monitor (for contrast)")

    p = sub.add_parser("datasvc",
                       help="disaggregated shuffle/storage data tier: "
                            "crash and corruption contrast")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--nodes", type=int, default=3,
                   help="dedicated storage nodes (default 3)")
    p.add_argument("--replication", type=int, default=2,
                   help="replicas per stored block (default 2)")
    p.add_argument("--records", type=int, default=4000,
                   help="driver-side word-count records (default 4000)")
    p.add_argument("--partitions", type=int, default=8)
    p.add_argument("--crash-machine", type=int, default=1,
                   help="compute machine crashed just after its maps "
                        "finish")
    p.add_argument("--restart-after", type=float, default=1.0)
    p.add_argument("--corrupt-node", type=int, default=0,
                   help="storage node whose replica gets a flipped "
                        "checksum")

    p = sub.add_parser("controlplane",
                       help="sharded multi-driver serving: crash a "
                            "driver mid-run and watch checkpointed "
                            "failover adopt its tenants")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--drivers", type=int, default=2,
                   help="driver replicas sharding the tenants "
                        "(default 2)")
    p.add_argument("--tenants", type=int, default=4,
                   help="tenants spread over the ring (default 4)")
    p.add_argument("--duration", type=float, default=40.0,
                   help="arrival horizon in simulated seconds")
    p.add_argument("--rate", type=float, default=0.5,
                   help="per-tenant arrivals per second")
    p.add_argument("--control-service", type=float, default=0.05,
                   help="driver seconds serialized per dispatch")
    p.add_argument("--crash-driver", type=int, default=None,
                   help="crash this driver replica mid-run")
    p.add_argument("--crash-at", type=float, default=20.0)
    p.add_argument("--restart-after", type=float, default=None,
                   help="bring the crashed driver back after this many "
                        "seconds (default: stays dead)")
    p.add_argument("--partition-driver", type=int, default=None,
                   help="partition this driver from its peers mid-run")
    p.add_argument("--heal-after", type=float, default=None,
                   help="heal the partition after this many seconds")
    p.add_argument("--no-failover", action="store_true",
                   help="disable checkpointing and failover (for "
                        "contrast; crashed shards lose their requests)")

    p = sub.add_parser("obs",
                       help="stream a fail-slow scenario through the "
                            "alerting plane: burn-rate SLO alerts, "
                            "source attribution, event journal")
    p.add_argument("action", nargs="?", default="alerts",
                   choices=["alerts", "events", "watch"],
                   help="alerts: run the scenario, print the alert "
                        "timeline and serve report (default); events: "
                        "print the unified event journal; watch: print "
                        "alert transitions live as the stream runs")
    common(p, default_machines=4)
    p.set_defaults(fraction=0.01)
    p.add_argument("--degrade-machine", type=int, default=1)
    p.add_argument("--degrade-at", type=float, default=5.0)
    p.add_argument("--factor", type=float, default=10.0,
                   help="NIC slowdown factor (>1 = slower; 1 = healthy "
                        "run, nothing should fire)")
    p.add_argument("--jobs", type=int, default=20,
                   help="word-count requests in the arrival trace")
    p.add_argument("--period", type=float, default=2.5,
                   help="seconds between arrivals")
    p.add_argument("--slo", type=float, default=3.0,
                   help="tenant SLO in seconds (the burn-rate target)")
    p.add_argument("--min-severity", default="info",
                   choices=["info", "warning", "critical"],
                   help="events: lowest journal severity to print")
    p.add_argument("--capsule", default=None,
                   help="also record the run, journal included, into "
                        "this capsule file")
    p.add_argument("--no-monitor", action="store_true",
                   help="run without the health monitor (alerts still "
                        "fire; nothing excludes the machine)")

    p = sub.add_parser("xray",
                       help="record run capsules, query them, and diff "
                            "two runs into ranked per-resource blame")
    xray = p.add_subparsers(dest="xray_action", required=True)

    x = xray.add_parser("record",
                        help="simulate the canonical serving run and "
                             "record it into a capsule file")
    x.add_argument("output", help="capsule path to write (JSONL)")
    x.add_argument("--engine", choices=("spark", "monospark"),
                   default="monospark")
    x.add_argument("--machines", type=int, default=4)
    x.add_argument("--disks", type=int, default=2)
    x.add_argument("--seed", type=int, default=1)
    x.add_argument("--jobs", type=int, default=12,
                   help="word-count requests in the arrival trace")
    x.add_argument("--num-blocks", type=int, default=4)
    x.add_argument("--block-mb", type=float, default=48.0)
    x.add_argument("--period", type=float, default=2.5,
                   help="seconds between arrivals")
    x.add_argument("--slo", type=float, default=3.0)
    x.add_argument("--tenant", default="analytics")
    x.add_argument("--degrade-machine", type=int, default=None,
                   help="degrade this machine's NIC mid-run (the "
                        "canonical fail-slow fault)")
    x.add_argument("--degrade-at", type=float, default=5.0)
    x.add_argument("--factor", type=float, default=10.0,
                   help="NIC slowdown factor (>1 = slower)")
    x.add_argument("--health", action="store_true",
                   help="also run the health monitor (exclusion "
                        "mitigates the fault, muddying the diff demo)")

    x = xray.add_parser("query",
                        help="trace analytics over one capsule: "
                             "group/aggregate spans, RED tenant rates")
    x.add_argument("capsule", help="capsule path to load")
    x.add_argument("--group-by", default="resource",
                   choices=["resource", "machine", "phase", "stage",
                            "tenant", "kind"])
    x.add_argument("--metric", choices=("duration", "queue"),
                   default="duration",
                   help="service seconds or scheduler queueing seconds")
    x.add_argument("--rates", action="store_true",
                   help="print RED-style per-tenant rates instead")
    x.add_argument("--kind", default=None,
                   help="span kind filter (default: leaf layer -- "
                        "monotask when present, attempt otherwise)")
    x.add_argument("--resource", default=None)
    x.add_argument("--phase", default=None)
    x.add_argument("--machine", type=int, default=None)
    x.add_argument("--tenant", default=None)
    x.add_argument("--job", type=int, default=None)

    x = xray.add_parser("diff",
                        help="why is run B slower than run A? ranked "
                             "per-resource x machine x phase blame")
    x.add_argument("a", help="baseline capsule (run A)")
    x.add_argument("b", help="comparison capsule (run B)")
    x.add_argument("--noise-floor", type=float, default=0.05,
                   help="ignore per-cell deltas below this many "
                        "seconds (default 0.05)")
    x.add_argument("--min-fraction", type=float, default=0.02,
                   help="...and below this fraction of the total delta")
    x.add_argument("--json", action="store_true",
                   help="print the machine-readable report instead")

    x = xray.add_parser("regress",
                        help="CI gate: diff B against baseline A, exit "
                             "3 if the regression exceeds the threshold")
    x.add_argument("a", help="baseline capsule (run A)")
    x.add_argument("b", help="candidate capsule (run B)")
    x.add_argument("--threshold", type=float, default=0.5,
                   help="fail past this many seconds of total "
                        "critical-path regression (default 0.5)")
    x.add_argument("--noise-floor", type=float, default=0.05)

    p = sub.add_parser("reproduce",
                       help="regenerate one of the paper's figures "
                            "(runs its benchmark)")
    p.add_argument("figure",
                   help="e.g. fig05, fig11, sort, ablation_write_policy; "
                        "'list' shows all targets")
    return parser


def _capsule_recorder(args, metrics, **config):
    """A :class:`~repro.xray.RunRecorder` on ``--capsule``, attached to
    ``metrics`` (None without the flag)."""
    if not args.capsule:
        return None
    from repro.xray import RunRecorder
    config.update(machines=args.machines, disks=args.disks, kind=args.kind,
                  fraction=args.fraction)
    return RunRecorder(args.capsule, engine=args.engine, seed=args.seed,
                       config=config).attach(metrics)


def _out_of_range(flag: str, value: Optional[int], bound: int) -> bool:
    """Print the usage error for an id outside ``[0, bound)``.

    ``None`` (an optional flag left unset) is in range.
    """
    if value is None or 0 <= value < bound:
        return False
    print(f"{flag} must be in [0, {bound})")
    return True


def _make_cluster(args):
    factory = hdd_cluster if args.kind == "hdd" else ssd_cluster
    return factory(num_machines=args.machines, num_disks=args.disks,
                   seed=args.seed,
                   **scaled_memory_overrides(args.fraction))


def _sort_workload(args) -> SortWorkload:
    return SortWorkload(total_bytes=600 * GB * args.fraction,
                        values_per_key=args.values,
                        num_map_tasks=args.tasks)


def _report_job(ctx, label: str) -> None:
    result = ctx.last_result
    print(f"{label}: {format_seconds(result.duration)} simulated "
          f"on {ctx.cluster.describe()}")
    for stage in ctx.metrics.stage_records(result.job_id):
        attrs = stage.attrs
        print(f"  stage {attrs['stage_id']} ({stage.name}): "
              f"{format_seconds(stage.duration)}, {attrs['num_tasks']} tasks")


def _cmd_sort(args) -> int:
    cluster = _make_cluster(args)
    workload = _sort_workload(args)
    generate_sort_input(cluster, workload, seed=args.seed)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    run_sort(ctx, workload)
    _report_job(ctx, f"sort ({args.engine})")
    return 0


def _cmd_bdb(args) -> int:
    cluster = _make_cluster(args)
    scale = BdbScale(fraction=args.fraction)
    generate_bdb_tables(cluster, scale, seed=args.seed)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    run_query(ctx, args.query, scale)
    _report_job(ctx, f"BDB query {args.query} ({args.engine})")
    return 0


def _cmd_ml(args) -> int:
    cluster = ssd_cluster(num_machines=args.machines)
    ctx = make_ml_context(cluster, args.engine, MlWorkload())
    results = run_ml_workload(ctx, iterations=args.iterations)
    for index, result in enumerate(results):
        print(f"iteration {index}: {format_seconds(result.duration)}")
    return 0


def _cmd_wordcount(args) -> int:
    cluster = _make_cluster(args)
    generate_text_input(cluster, num_blocks=args.machines * 4,
                        block_bytes=64 * MB, seed=args.seed)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    word_count(ctx)
    _report_job(ctx, f"word count ({args.engine})")
    return 0


def _cmd_whatif(args) -> int:
    cluster = _make_cluster(args)
    workload = _sort_workload(args)
    generate_sort_input(cluster, workload, seed=args.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    result = run_sort(ctx, workload)
    profiles = profile_job(ctx.metrics, result.job_id)
    hardware = hardware_profile(cluster)
    new_hardware = hardware.scaled(
        machines=args.new_machines,
        disks_per_machine=args.new_disks,
        disk_throughput_bps=(SSD.throughput_bps if args.ssd else None))
    what_if = WhatIf(hardware=new_hardware,
                     input_in_memory_deserialized=args.in_memory)
    prediction = predict(profiles, result.duration, hardware, what_if)
    print(f"measured: {format_seconds(result.duration)} on "
          f"{cluster.describe()}")
    print(f"what-if ({what_if.describe()}): "
          f"{format_seconds(prediction.predicted_s)} predicted "
          f"({result.duration / prediction.predicted_s:.2f}x)")
    return 0


def _cmd_diagnose(args) -> int:
    if _out_of_range("--degrade-machine", args.degrade_machine,
                     args.machines):
        return 2
    cluster = _make_cluster(args)
    if args.degrade_machine is not None:
        cluster.degrade_machine(args.degrade_machine,
                                cpu_factor=args.cpu_factor,
                                disk_factor=args.disk_factor)
    workload = SortWorkload(total_bytes=600 * GB * args.fraction,
                            values_per_key=25,
                            num_map_tasks=args.machines * 24)
    generate_sort_input(cluster, workload, seed=args.seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    result = run_sort(ctx, workload)
    report = diagnose_stragglers(ctx.metrics, result.job_id)
    print(f"job took {format_seconds(result.duration)}")
    for machine_id, health in sorted(report.machines.items()):
        disk = (f"{health.disk_bps / MB:7.1f} MB/s"
                if health.disk_bps else "      -")
        cpu = (f"{health.cpu_slowdown:5.2f}x"
               if health.cpu_slowdown else "    -")
        print(f"  machine {machine_id:3d}: disk {disk}, cpu {cpu}")
    print(f"slow disks: {report.slow_disks or 'none'}; "
          f"slow CPUs: {report.slow_cpus or 'none'}")
    return 0 if report.healthy else 3


def _cmd_trace(args) -> int:
    from repro.trace import critical_path

    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    recorder = _capsule_recorder(args, ctx.metrics, workload=args.workload)
    if args.workload == "sort":
        workload = SortWorkload(total_bytes=600 * GB * args.fraction,
                                values_per_key=25,
                                num_map_tasks=args.machines * 8)
        generate_sort_input(cluster, workload, seed=args.seed)
        run_sort(ctx, workload)
    else:
        generate_text_input(cluster, num_blocks=args.machines * 4,
                            block_bytes=64 * MB, seed=args.seed)
        word_count(ctx)
    job_id = ctx.last_result.job_id
    if recorder is not None:
        recorder.finalize()
        recorder.close()
        print(f"wrote {recorder.counts.get('span', 0)} spans and "
              f"{recorder.counts.get('link', 0)} links to {args.capsule}")
    if args.engine == "monospark" and args.timeline:
        print(render_timeline(ctx.metrics, job_id))
    if args.action == "critical-path":
        print(critical_path(ctx.metrics, job_id, engine=args.engine).format())
        return 0
    if args.action == "span-stats":
        spans = ctx.metrics.spans_for_job(job_id)
        links = ctx.metrics.links_for_job(job_id)
        by_kind: dict = {}
        for span in spans:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
        print(f"job {job_id}: {len(spans)} spans, {len(links)} links")
        for kind in sorted(by_kind):
            print(f"  {kind:<10} {by_kind[kind]}")
        link_kinds: dict = {}
        for link in links:
            link_kinds[link.kind] = link_kinds.get(link.kind, 0) + 1
        for kind in sorted(link_kinds):
            print(f"  link:{kind:<10} {link_kinds[kind]}")
        return 0
    result = write_chrome_trace(ctx.metrics, args.output, job_id=job_id)
    print(f"wrote {result.events} events to {result.path} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import FaultInjector, FaultPlan, MachineCrash, RecoveryPolicy
    from repro.metrics.report import format_fault_report

    if _out_of_range("--crash-machine", args.crash_machine, args.machines):
        return 2
    policy = RecoveryPolicy(speculation=args.speculation)
    workload = SortWorkload(total_bytes=600 * GB * args.fraction,
                            values_per_key=25,
                            num_map_tasks=args.tasks)

    def run_once(plan=None):
        cluster = _make_cluster(args)
        generate_sort_input(cluster, workload, seed=args.seed)
        ctx = AnalyticsContext(cluster, engine=args.engine, recovery=policy)
        if plan is not None:
            FaultInjector(ctx.engine, plan).start()
        result = run_sort(ctx, workload)
        return ctx, result

    ctx, baseline = run_once()
    print(f"fault-free: {format_seconds(baseline.duration)} simulated on "
          f"{ctx.cluster.describe()}")
    crash_at = (args.crash_at if args.crash_at is not None
                else baseline.duration * 0.3)
    restart_after = None if args.no_restart else args.restart_after
    plan = FaultPlan([MachineCrash(at=crash_at,
                                   machine_id=args.crash_machine,
                                   restart_after=restart_after)])
    ctx, result = run_once(plan)
    restart_note = (f", restart after {format_seconds(restart_after)}"
                    if restart_after is not None else ", no restart")
    print(f"crash machine {args.crash_machine} at "
          f"{format_seconds(crash_at)}{restart_note}: "
          f"{format_seconds(result.duration)} "
          f"({result.duration / baseline.duration:.2f}x)")
    print()
    print(format_fault_report(ctx.metrics, result.job_id))
    return 0


def _cmd_serve(args) -> int:
    from repro.faults import FaultInjector, FaultPlan, MachineCrash
    from repro.serve import (AdmissionController, JobServer, PoissonArrivals,
                             ml_template, wordcount_template)

    if _out_of_range("--crash-machine", args.crash_machine, args.machines):
        return 2
    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine,
                           scheduling_policy="fair")
    if args.crash_machine is not None:
        plan = FaultPlan([MachineCrash(at=args.crash_at,
                                       machine_id=args.crash_machine,
                                       restart_after=args.restart_after)])
        FaultInjector(ctx.engine, plan).start()
    admission = None
    if args.max_queued is not None or args.max_backlog is not None:
        admission = AdmissionController(max_queued_jobs=args.max_queued,
                                        max_backlog_s=args.max_backlog)
    server = JobServer(ctx, admission=admission, policy=args.policy,
                       max_concurrent_jobs=args.max_concurrent,
                       seed=args.seed)
    server.add_tenant("interactive", weight=2.0, slo_s=args.slo)
    server.add_tenant("batch", weight=1.0)
    server.add_workload(
        "interactive",
        wordcount_template(ctx, num_blocks=args.machines * 2, block_mb=32.0,
                           seed=args.seed),
        PoissonArrivals(args.rate, horizon_s=args.duration))
    server.add_workload(
        "batch",
        ml_template(ctx, num_partitions=args.machines, seed=args.seed),
        PoissonArrivals(args.batch_rate, horizon_s=args.duration))
    print(server.run().format())
    return 0


def _cmd_clarity(args) -> int:
    from repro.clarity import CapacityAdvisor, ClarityAggregator
    from repro.model import hardware_profile
    from repro.serve import JobServer, PoissonArrivals, sort_template

    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine,
                           scheduling_policy="fair")
    aggregator = ClarityAggregator(window_s=args.window,
                                   engine=ctx.engine.name)
    server = JobServer(ctx, policy="fifo", max_concurrent_jobs=1,
                       seed=args.seed, clarity=aggregator)
    server.add_tenant("analytics")
    template = sort_template(ctx, total_gb=args.sort_gb,
                             num_tasks=args.tasks, seed=args.seed)
    server.add_workload(
        "analytics", template,
        PoissonArrivals(args.rate, horizon_s=args.duration))
    env = ctx.engine.env

    if args.action == "watch":
        def snapshots():
            elapsed = 0.0
            while elapsed < args.duration:
                yield env.timeout(args.interval)
                elapsed += args.interval
                print(aggregator.bottleneck(now=env.now,
                                            window_s=args.window).format())
                print()
        env.process(snapshots())

    report = server.run()
    if args.action == "watch":
        print("final " + aggregator.bottleneck().format())
        return 0
    if args.action == "advise":
        print(aggregator.bottleneck().format())
        print()
        advisor = CapacityAdvisor(hardware_profile(cluster))
        advice = advisor.advise(aggregator.observations())
        print(advice.format())
        # Like `diagnose`, a window the engine cannot explain exits 3.
        return 0 if advice.attributable else 3
    print(report.format())
    return 0


def _cmd_health(args) -> int:
    from repro.faults import FaultInjector, fail_slow_plan
    from repro.health import HealthMonitor, HealthPolicy
    from repro.metrics.events import HealthEventRecord
    from repro.serve import wordcount_template

    if _out_of_range("--degrade-machine", args.degrade_machine,
                     args.machines):
        return 2
    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    env = ctx.engine.env
    plan = fail_slow_plan(machine_id=args.degrade_machine,
                          at=args.degrade_at, factor=args.factor)
    FaultInjector(ctx.engine, plan).start()
    monitor = None
    if not args.no_monitor:
        monitor = HealthMonitor(
            ctx.engine, HealthPolicy(interval_s=args.interval))
        monitor.start()
    template = wordcount_template(ctx, num_blocks=args.machines * 2,
                                  block_mb=32.0, seed=args.seed)
    print(f"degrade machine {args.degrade_machine} NIC {args.factor:g}x "
          f"at {format_seconds(args.degrade_at)} on "
          f"{ctx.cluster.describe()}; monitor "
          f"{'off' if args.no_monitor else 'on'}")
    for i in range(args.jobs):
        driver = ctx.engine.submit_job(template.instantiate(ctx))
        start = env.now
        env.run(until=driver)
        print(f"job {i:2d}: {format_seconds(env.now - start)}")
    if monitor is not None:
        monitor.stop()
    env.run()
    events = ctx.metrics.events_of(HealthEventRecord)
    if events:
        print()
        print("health events:")
        for h in events:
            relative = ("" if h.relative_rate != h.relative_rate
                        else f" rel={h.relative_rate:.3f}")
            detail = f" ({h.detail})" if h.detail else ""
            resource = f" {h.resource}" if h.resource else ""
            print(f"  t={h.at:7.1f}  {h.kind:10s} machine "
                  f"{h.machine_id}{resource}{relative}{detail}")
        excluded = sorted(ctx.engine.excluded_machines)
        print(f"excluded at end: {excluded if excluded else 'none'}")
    elif monitor is not None:
        print("\nno health events (nothing fell below the cluster-typical "
              "rate)")
    return 0


def _cmd_datasvc(args) -> int:
    from repro.datasvc import DataService
    from repro.faults import (BlockCorruption, FaultInjector, FaultPlan,
                              MachineCrash)

    if args.nodes < 1:
        print("--nodes must be at least 1")
        return 2
    if args.replication < 1:
        print("--replication must be at least 1")
        return 2
    if (_out_of_range("--crash-machine", args.crash_machine, args.machines)
            or _out_of_range("--corrupt-node", args.corrupt_node,
                             args.nodes)):
        return 2
    records = [f"w{i % 17} w{i % 11}" for i in range(args.records)]

    def run_once(disaggregated, plan=None):
        cluster = _make_cluster(args)
        service = None
        options = {}
        if disaggregated:
            service = DataService(cluster, num_nodes=args.nodes,
                                  replication=args.replication)
            options["datasvc"] = service
        ctx = AnalyticsContext(cluster, engine=args.engine, **options)
        if plan is not None:
            FaultInjector(ctx.engine, plan).start()
        rdd = ctx.parallelize(records, num_partitions=args.partitions)
        (rdd.flat_map(lambda line: line.split())
            .map(lambda word: (word, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect())
        return ctx, service

    def outcomes(ctx):
        counts = ctx.metrics.attempt_outcome_counts(ctx.last_result.job_id)
        return {kind: count for kind, count in sorted(counts.items())
                if count}

    ctx, _ = run_once(False)
    baseline = ctx.last_result
    crash_at = min(s.end for s in
                   ctx.metrics.stage_records(baseline.job_id)) * 1.02
    print(f"fault-free co-located: {format_seconds(baseline.duration)} "
          f"simulated on {ctx.cluster.describe()}")
    ctx, _ = run_once(True)
    corrupt_at = min(s.end for s in
                     ctx.metrics.stage_records(ctx.last_result.job_id)) * 0.9
    print(f"fault-free disaggregated ({args.nodes} storage nodes, "
          f"{args.replication}x replication): "
          f"{format_seconds(ctx.last_result.duration)}")
    print()

    plan = FaultPlan([MachineCrash(at=crash_at,
                                   machine_id=args.crash_machine,
                                   restart_after=args.restart_after)])
    ctx, _ = run_once(False, plan)
    print(f"crash machine {args.crash_machine} at "
          f"{format_seconds(crash_at)} (maps done, reduces fetching):")
    print(f"  co-located:    {outcomes(ctx)} -- the crash took its map "
          f"output with it")
    ctx, service = run_once(True, plan)
    crash_outcomes = outcomes(ctx)
    print(f"  disaggregated: {crash_outcomes} -- map output lives on the "
          f"data tier")

    plan = FaultPlan([BlockCorruption(at=corrupt_at,
                                      node_index=args.corrupt_node)])
    ctx, service = run_once(True, plan)
    stats = service.stats()
    print()
    print(f"corrupt a replica on storage node {args.corrupt_node}: "
          f"{stats['integrity_faults']:g} integrity fault(s) detected, "
          f"{stats['failovers']:g} failover(s), "
          f"{stats['re_replications']:g} re-replication(s)")
    for node, count in sorted(service.suspicion_counts().items()):
        print(f"  storage node s{node}: {count} integrity suspicion(s)")
    return 0 if not crash_outcomes.get("fetch-failed") else 3


def _cmd_controlplane(args) -> int:
    from repro.controlplane import ControlPlane, ControlPlanePolicy
    from repro.faults import (DriverCrash, DriverPartition, FaultInjector,
                              FaultPlan)
    from repro.serve import PoissonArrivals, wordcount_template

    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    policy = ControlPlanePolicy(control_service_s=args.control_service,
                                failover=not args.no_failover)
    plane = ControlPlane(ctx, num_drivers=args.drivers, config=policy,
                         seed=args.seed)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0,
                                  seed=args.seed)
    for i in range(args.tenants):
        plane.add_workload(f"tenant{i}", template,
                           PoissonArrivals(args.rate,
                                           horizon_s=args.duration))
    faults = []
    if args.crash_driver is not None:
        faults.append(DriverCrash(at=args.crash_at,
                                  driver_id=args.crash_driver,
                                  restart_after=args.restart_after))
    if args.partition_driver is not None:
        faults.append(DriverPartition(at=args.crash_at,
                                      driver_id=args.partition_driver,
                                      heal_after=args.heal_after))
    if faults:
        FaultInjector(ctx.engine, FaultPlan(faults)).start()
    report = plane.run()
    print(report.format())
    if report.jobs_lost:
        print(f"\n{report.jobs_lost} request(s) lost with their driver "
              f"-- run without --no-failover to keep them")
        return 3
    return 0


def _cmd_obs(args) -> int:
    from repro.faults import FaultInjector, fail_slow_plan
    from repro.health import HealthMonitor, HealthPolicy
    from repro.obs import ObservabilityPlane
    from repro.obs.plane import INTERVAL_S
    from repro.serve import JobServer, TraceArrivals, wordcount_template

    if _out_of_range("--degrade-machine", args.degrade_machine,
                     args.machines):
        return 2
    cluster = _make_cluster(args)
    ctx = AnalyticsContext(cluster, engine=args.engine)
    env = ctx.engine.env
    if args.factor != 1.0:
        plan = fail_slow_plan(machine_id=args.degrade_machine,
                              at=args.degrade_at, factor=args.factor)
        FaultInjector(ctx.engine, plan).start()
    monitor = None
    if not args.no_monitor:
        monitor = HealthMonitor(ctx.engine, HealthPolicy())
    obs = ObservabilityPlane()
    server = JobServer(ctx, seed=args.seed, health=monitor, obs=obs)
    recorder = _capsule_recorder(
        args, ctx.metrics, degrade_machine=args.degrade_machine,
        degrade_at=args.degrade_at, factor=args.factor, jobs=args.jobs,
        period=args.period, slo=args.slo, monitor=not args.no_monitor)
    server.add_tenant("analytics", slo_s=args.slo)
    template = wordcount_template(ctx, num_blocks=args.machines,
                                  block_mb=16.0, seed=args.seed)
    server.add_workload(
        "analytics", template,
        TraceArrivals([1.0 + args.period * i for i in range(args.jobs)]))
    print(f"degrade machine {args.degrade_machine} NIC {args.factor:g}x "
          f"at {format_seconds(args.degrade_at)} on "
          f"{ctx.cluster.describe()}; SLO {args.slo:g}s; monitor "
          f"{'off' if args.no_monitor else 'on'}")

    if args.action == "watch":
        def follow():
            seen = 0
            while True:
                yield env.timeout(INTERVAL_S)
                transitions = obs.alert_timeline()
                for record in transitions[seen:]:
                    exemplar = (f"  exemplar={record.trace_id}/"
                                f"{record.span_id}"
                                if record.span_id >= 0 else "")
                    value = ("" if record.value != record.value
                             else f" value={record.value:.3f}")
                    print(f"  t={record.at:7.2f}  {record.kind:9s} "
                          f"{record.rule}{{{record.labels}}}"
                          f"{value}{exemplar}")
                seen = len(transitions)
        env.process(follow())

    report = server.run()
    if recorder is not None:
        recorder.finalize(report=report, telemetry=obs.registry)
        recorder.close()
    if args.action == "watch":
        firing = obs.firing()
        names = [f"{a.rule}{{{_labels_str(a)}}}" for a in firing]
        print(f"still firing at drain: {', '.join(names) or 'none'}")
        return 0
    if args.action == "events":
        print(obs.journal.format(min_severity=args.min_severity))
        if recorder is not None:
            print(f"\nwrote {recorder.counts.get('journal', 0)} journal "
                  f"events to {args.capsule}")
        return 0
    print(report.format())
    return 0


def _cmd_xray(args) -> int:
    from repro.xray import (CanonicalRun, Capsule, CapsuleQuery,
                            diff_capsules, record_run)

    if args.xray_action == "record":
        if _out_of_range("--degrade-machine", args.degrade_machine,
                         args.machines):
            return 2
        run = CanonicalRun(
            engine=args.engine, machines=args.machines, disks=args.disks,
            seed=args.seed, tenant=args.tenant, slo_s=args.slo,
            num_blocks=args.num_blocks, block_mb=args.block_mb,
            jobs=args.jobs, period_s=args.period,
            degrade_machine=args.degrade_machine,
            degrade_at=args.degrade_at, degrade_factor=args.factor,
            health=args.health)
        capsule = record_run(args.output, run)
        print(capsule.describe())
        return 0

    if args.xray_action == "query":
        query = CapsuleQuery(Capsule.load(args.capsule))
        if args.rates:
            print(query.format_rates(query.tenant_rates()))
            return 0
        rows = query.aggregate(
            group_by=args.group_by, metric=args.metric, kind=args.kind,
            resource=args.resource, phase=args.phase,
            machine=args.machine, tenant=args.tenant, job=args.job)
        print(query.format_aggregate(rows, args.group_by, args.metric))
        return 0

    report = diff_capsules(Capsule.load(args.a), Capsule.load(args.b),
                           noise_floor_s=args.noise_floor,
                           min_fraction=getattr(args, "min_fraction", 0.02))
    if args.xray_action == "regress":
        print(report.format())
        if report.regression(args.threshold):
            print(f"\nREGRESSION: {report.delta_total:+.3f}s exceeds "
                  f"the {args.threshold:g}s threshold")
            return 3
        print(f"\nok: {report.delta_total:+.3f}s within the "
              f"{args.threshold:g}s threshold")
        return 0
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
        return 0
    print(report.format())
    return 0


def _labels_str(alert) -> str:
    from repro.obs import format_labels
    return format_labels(alert.labels)


def _cmd_reproduce(args) -> int:
    import glob
    import os
    import subprocess
    bench_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "benchmarks")
    if not os.path.isdir(bench_dir):
        print("benchmarks/ not found; run from a source checkout")
        return 2
    targets = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "test_*.py"))):
        name = os.path.basename(path)[len("test_"):-len(".py")]
        targets[name] = path
        prefix = name.split("_")[0]
        if prefix.startswith(("fig", "sec", "sort")):
            targets[prefix] = path  # fig05 etc. as shorthand
    if args.figure == "list":
        for name in sorted(n for n in targets if "_" in n):
            print(name)
        return 0
    path = targets.get(args.figure)
    if path is None:
        print(f"unknown figure {args.figure!r}; try 'repro reproduce list'")
        return 2
    return subprocess.call([sys.executable, "-m", "pytest", path,
                            "--benchmark-only", "-s", "-q"])


_COMMANDS = {
    "sort": _cmd_sort,
    "bdb": _cmd_bdb,
    "ml": _cmd_ml,
    "wordcount": _cmd_wordcount,
    "whatif": _cmd_whatif,
    "diagnose": _cmd_diagnose,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "serve": _cmd_serve,
    "clarity": _cmd_clarity,
    "health": _cmd_health,
    "datasvc": _cmd_datasvc,
    "controlplane": _cmd_controlplane,
    "obs": _cmd_obs,
    "xray": _cmd_xray,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
