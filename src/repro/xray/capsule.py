"""Run capsules: one run, one versioned, deterministic artifact.

The capsule is the only JSON-lines file the simulator writes; spans,
links and the event journal persist nowhere else.

A *capsule* bundles everything the xray tools need to explain a run
after the fact -- config and seed, the full span/link trace, the event
journal, serve records, telemetry time-series snapshots, clarity
windows, and the ServeReport summary -- into a single JSON-lines file
that loads without re-simulation.

Layout (one JSON object per line, every line stamped with a ``schema``
version):

* line 1 -- the **header**: ``{"type": "capsule", "schema": 1,
  "engine": ..., "seed": ..., "config": {...}}``.
* body -- typed lines.  Spans, links, journal events, and serve
  records stream out *as the run happens* via the existing
  ``MetricsCollector`` sink/listener hooks (:meth:`RunRecorder.attach`);
  job records, telemetry series, the clarity window, and the summary
  are appended by :meth:`RunRecorder.finalize`.
* last line -- the **manifest**: per-type line counts, so a loader can
  prove the capsule is complete before trusting it.

Determinism: lines go through :class:`repro.jsonl.JsonlWriter` (fixed
key order, one-shot encode, ``repr``-exact floats) and nothing derived
from the wall clock is ever written -- so two same-seed runs produce
byte-identical capsules, which is the property CI pins.
"""

from __future__ import annotations

import gc
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CapsuleError, ModelError
from repro.jsonl import JsonlWriter
from repro.metrics.collector import MetricsCollector
from repro.metrics.events import JobRecord, ServeRecord
from repro.trace.spans import SpanLink, SpanRecord, link_to_json, span_to_json

__all__ = ["CAPSULE_SCHEMA", "KNOWN_SCHEMAS", "RunRecorder", "Capsule"]

#: Version stamped into every capsule line; bump on incompatible change.
CAPSULE_SCHEMA = 1

#: Schema versions this loader understands.
KNOWN_SCHEMAS = (1,)

#: Line types a capsule may contain, in manifest order.
LINE_TYPES = ("capsule", "span", "link", "journal", "serve", "job",
              "telemetry", "clarity", "summary", "manifest")

#: TenantStats fields serialized into the summary line, in order.
_TENANT_FIELDS = ("tenant", "completed", "failed", "shed", "lost",
                  "p50_s", "p95_s", "p99_s", "mean_queue_delay_s",
                  "mean_service_s", "slo_s", "goodput")

#: ServeRecord fields serialized into serve lines, in order.
_SERVE_FIELDS = ("tenant", "template", "arrival", "job_id", "dispatched",
                 "completed", "outcome", "estimate_s", "slo_s", "detail")

#: Telemetry series never written to a capsule: wall-clock values are
#: the machine's, not the seed's, and would break the byte-identity of
#: same-seed capsules that CI pins.
WALL_CLOCK_METRICS = ("repro_obs_self_overhead_ms_per_s",)


def _serve_to_json(record: ServeRecord) -> Dict[str, Any]:
    line: Dict[str, Any] = {"type": "serve"}
    for field in _SERVE_FIELDS:
        line[field] = getattr(record, field)
    return line


def _serve_from_json(line: Dict[str, Any]) -> ServeRecord:
    return ServeRecord(**{field: line[field] for field in _SERVE_FIELDS})


def _span_from_json(line: Dict[str, Any],
                    strings: Dict[str, str]) -> SpanRecord:
    share = strings.setdefault
    trace_id, kind, name = line["trace_id"], line["kind"], line["name"]
    resource, phase = line.get("resource", ""), line.get("phase", "")
    return SpanRecord(
        span_id=line["span_id"], trace_id=share(trace_id, trace_id),
        parent_id=line["parent_id"], kind=share(kind, kind),
        name=share(name, name), start=line["start"], end=line["end"],
        machine_id=line["machine_id"], resource=share(resource, resource),
        phase=share(phase, phase), queue_s=line.get("queue_s", 0.0),
        nbytes=line.get("nbytes", 0.0), attrs=dict(line.get("attrs", {})))


def _link_from_json(line: Dict[str, Any],
                    strings: Dict[str, str]) -> SpanLink:
    share = strings.setdefault
    kind, trace_id = line["kind"], line["trace_id"]
    detail = line.get("detail", "")
    return SpanLink(
        from_span_id=line["from"], to_span_id=line["to"],
        kind=share(kind, kind), trace_id=share(trace_id, trace_id),
        at=line.get("at", float("nan")), detail=share(detail, detail))


def _job_to_json(record: JobRecord) -> Dict[str, Any]:
    return {"type": "job", "job_id": record.job_id, "name": record.name,
            "start": record.start, "end": record.end}


def _job_from_json(line: Dict[str, Any]) -> JobRecord:
    return JobRecord(job_id=line["job_id"], name=line["name"],
                     start=line["start"], end=line["end"])


class RunRecorder(JsonlWriter):
    """Streams one run into a capsule file via the collector hooks.

    Usage::

        with RunRecorder("run.capsule", engine="monospark", seed=1,
                         config={...}) as recorder:
            recorder.attach(ctx.metrics)
            report = server.run()
            recorder.finalize(report=report, clarity=aggregator,
                              telemetry=obs.registry)

    :meth:`attach` registers the recorder both as a span sink (spans
    and links stream out as they close) and as an event listener
    (each event becomes a journal line holding the row the obs journal
    writes; serve records become serve lines).  :meth:`finalize`
    appends everything that only exists at end of run; :meth:`close`
    writes the manifest footer.
    """

    def __init__(self, path: str, engine: str = "", seed: int = 0,
                 config: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(path, CAPSULE_SCHEMA)
        self.engine = engine
        self._metrics = None
        self._finalized = False
        self.write_record({"type": "capsule", "engine": engine, "seed": seed,
                           "config": dict(sorted((config or {}).items()))})

    # -- streaming (collector hooks) -----------------------------------------------

    def attach(self, metrics) -> "RunRecorder":
        """Register with a collector's span-sink and listener hooks."""
        self._metrics = metrics
        metrics.add_span_sink(self)
        metrics.add_event_listener(self._on_event)
        return self

    def span_finished(self, span: SpanRecord) -> None:
        """Span-sink hook: stream one finished span into the capsule."""
        self.write_record(span_to_json(span))

    def link_recorded(self, link: SpanLink) -> None:
        """Span-sink hook: stream one causal link into the capsule."""
        self.write_record(link_to_json(link))

    def _on_event(self, record) -> None:
        if isinstance(record, ServeRecord):
            self.write_record(_serve_to_json(record))
        else:
            self.write_record({"type": "journal", **record.journal_row()})

    # -- finalization --------------------------------------------------------------

    def finalize(self, report=None, clarity=None, telemetry=None,
                 metrics=None) -> None:
        """Append the end-of-run sections (jobs, telemetry, clarity,
        summary).  Idempotent-hostile by design: call exactly once."""
        if self._finalized:
            raise CapsuleError(f"capsule {self.path} already finalized")
        self._finalized = True
        metrics = metrics if metrics is not None else self._metrics
        if metrics is not None:
            for job_id in sorted(metrics.jobs):
                self.write_record(_job_to_json(metrics.jobs[job_id]))
        if telemetry is not None:
            store = getattr(telemetry, "store", telemetry)
            for name, labels in sorted(store.series()):
                if name in WALL_CLOCK_METRICS:
                    continue
                points = [[t, value]
                          for t, value in store.points(name, labels=labels)]
                self.write_record({"type": "telemetry", "name": name,
                                   "labels": dict(labels), "points": points})
        if clarity is not None:
            window = clarity.bottleneck()
            self.write_record({
                "type": "clarity", "window_s": window.window_s,
                "now": window.now, "jobs": window.jobs,
                "attributable_jobs": window.attributable_jobs,
                "attributable": window.attributable,
                "fractions": dict(sorted(window.fractions.items())),
                "machine_fractions": {
                    str(machine): fraction for machine, fraction
                    in sorted(window.machine_fractions.items())},
                "attributed_seconds": window.attributed_seconds,
                "reason": window.reason,
                "shard_fractions": {
                    str(driver): fraction for driver, fraction
                    in sorted(window.shard_fractions.items())}})
        if report is not None:
            tenants = [{field: getattr(stats, field)
                        for field in _TENANT_FIELDS}
                       for stats in report.stats]
            self.write_record({"type": "summary",
                               "engine": report.engine_name,
                               "duration_s": report.duration_s,
                               "total_completed": report.total_completed,
                               "tenants": tenants})

    def close(self) -> None:
        """Write the manifest footer and close (idempotent)."""
        if self._handle is None:
            return
        counts = {kind: self.counts[kind] for kind in LINE_TYPES
                  if kind not in ("capsule", "manifest")
                  and self.counts.get(kind)}
        super().close(footer={
            "type": "manifest", "schema": CAPSULE_SCHEMA, "counts": counts,
            "lines": sum(counts.values()) + 2})


class Capsule(MetricsCollector):
    """A loaded run capsule, queryable without re-simulation.

    A :class:`~repro.metrics.collector.MetricsCollector` filled from
    the file: :meth:`load` replays spans, links and serve records
    through ``record_span``, ``record_link`` and ``record_serve``, so
    the per-job span and stage queries and the cached critical paths
    are the collector's own.  Spans are written as they close, so the
    attempt spans land in ``attempts`` in the live collector's order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.path = ""
        self.header: Dict[str, Any] = {}
        self.manifest: Dict[str, Any] = {}
        #: Journal rows as dicts (the obs journal's row keys).
        self.journal: List[Dict[str, Any]] = []
        #: One (name, labels, [[t, value], ...]) triple per series.
        self.telemetry: List[Tuple[str, Dict[str, str], List[List[float]]]] \
            = []
        self.clarity: Optional[Dict[str, Any]] = None
        self.summary: Optional[Dict[str, Any]] = None
        #: Body line order, for byte-faithful :meth:`save`.
        self._body: List[Tuple[str, Any]] = []

    # -- identity ------------------------------------------------------------------

    @property
    def engine(self) -> str:
        """The engine the run used ("monospark" or "spark")."""
        return self.header.get("engine", "")

    @property
    def seed(self) -> int:
        """The run's RNG seed, as recorded in the capsule header."""
        return self.header.get("seed", 0)

    @property
    def config(self) -> Dict[str, Any]:
        """The scenario configuration dict from the capsule header."""
        return self.header.get("config", {})

    # -- queries -------------------------------------------------------------------

    def critical_path_report(self, job_id: int, engine: str = ""):
        """The job's critical path, attributed for the recorded engine
        unless ``engine`` says otherwise."""
        return super().critical_path_report(job_id, engine or self.engine)

    def stage_profiles(self, job_id: int):
        """Always raises :class:`ModelError`: stage profiles are built
        from monotask records, and a capsule carries none."""
        raise ModelError(
            f"capsule {self.path} carries no monotask records, so job "
            f"{job_id} has no stage profiles")

    def completed_jobs(self) -> List[ServeRecord]:
        """Serve records of completed, traced requests, arrival order."""
        return [record for record in self.serves
                if record.outcome == "completed" and record.job_id >= 0
                and record.job_id in self.jobs]

    # -- load / save ---------------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "Capsule":
        """Parse and validate one capsule file.

        Raises :class:`~repro.errors.CapsuleError` on a missing or
        unknown schema version, a missing header or manifest, or
        manifest counts or a manifest line total that disagree with the
        lines actually present.

        Parsing allocates many objects and drops no cycles, so the
        cyclic collector is paused for the duration (and left as found,
        like :meth:`~repro.simulator.core.Environment.run`).  Each
        distinct span or link string value -- trace ids, kinds, names,
        resources, phases, details -- becomes one shared object, through
        a dict that lives only for this call.
        """
        capsule = cls()
        capsule.path = path
        counts: Dict[str, int] = {}
        strings: Dict[str, str] = {}
        collecting = gc.isenabled()
        gc.disable()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for index, raw in enumerate(handle):
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        line = json.loads(raw)
                    except ValueError as exc:
                        raise CapsuleError(
                            f"{path}:{index + 1}: not JSON: {exc}") from exc
                    capsule._ingest(path, index, line, counts, strings)
        finally:
            if collecting:
                gc.enable()
        if not capsule.header:
            raise CapsuleError(f"{path}: missing capsule header line")
        if not capsule.manifest:
            raise CapsuleError(f"{path}: missing manifest footer line")
        declared = capsule.manifest.get("counts", {})
        body_counts = {kind: n for kind, n in counts.items()
                       if kind not in ("capsule", "manifest")}
        if declared != body_counts:
            raise CapsuleError(
                f"{path}: manifest counts {declared} disagree with "
                f"observed lines {body_counts}")
        lines = capsule.manifest.get("lines")
        if lines is not None and lines != sum(counts.values()):
            raise CapsuleError(
                f"{path}: manifest says {lines} lines, file has "
                f"{sum(counts.values())}")
        return capsule

    def _ingest(self, path: str, index: int, line: Dict[str, Any],
                counts: Dict[str, int], strings: Dict[str, str]) -> None:
        schema = line.get("schema")
        if schema not in KNOWN_SCHEMAS:
            raise CapsuleError(
                f"{path}:{index + 1}: unknown schema version {schema!r} "
                f"(known: {list(KNOWN_SCHEMAS)})")
        kind = line.get("type")
        if kind not in LINE_TYPES:
            raise CapsuleError(
                f"{path}:{index + 1}: unknown line type {kind!r}")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "capsule":
            if index != 0:
                raise CapsuleError(
                    f"{path}:{index + 1}: header must be the first line")
            self.header = line
            return
        if kind == "manifest":
            self.manifest = line
            return
        if kind == "span":
            span = _span_from_json(line, strings)
            self.record_span(span)
            self._body.append(("span", span))
        elif kind == "link":
            link = _link_from_json(line, strings)
            self.record_link(link)
            self._body.append(("link", link))
        elif kind == "serve":
            record = _serve_from_json(line)
            self.record_serve(record)
            self._body.append(("serve", record))
        elif kind == "job":
            record = _job_from_json(line)
            self.jobs[record.job_id] = record
            self._body.append(("job", record))
        elif kind == "telemetry":
            series = (line["name"], dict(line["labels"]),
                      [list(point) for point in line["points"]])
            self.telemetry.append(series)
            self._body.append(("telemetry", series))
        else:  # journal / clarity / summary: kept as dicts
            payload = {k: v for k, v in line.items()
                       if k not in ("type", "schema")}
            if kind == "journal":
                self.journal.append(payload)
            elif kind == "clarity":
                self.clarity = payload
            else:
                self.summary = payload
            self._body.append((kind, payload))

    def save(self, path: str) -> None:
        """Re-serialize from the *parsed* objects (not raw lines).

        Loading a capsule and saving it again reproduces the original
        bytes -- the round-trip property the tests pin, and the proof
        that parsing is lossless.
        """
        with JsonlWriter(path, CAPSULE_SCHEMA) as writer:
            writer.write_record({k: v for k, v in self.header.items()
                                 if k != "schema"})
            for kind, payload in self._body:
                if kind == "span":
                    record = span_to_json(payload)
                elif kind == "link":
                    record = link_to_json(payload)
                elif kind == "serve":
                    record = _serve_to_json(payload)
                elif kind == "job":
                    record = _job_to_json(payload)
                elif kind == "telemetry":
                    name, labels, points = payload
                    record = {"type": "telemetry", "name": name,
                              "labels": labels, "points": points}
                else:  # journal / clarity / summary
                    record = {"type": kind, **payload}
                writer.write_record(record)
            writer.close(footer={
                "type": "manifest", "schema": CAPSULE_SCHEMA,
                **{k: v for k, v in self.manifest.items()
                   if k not in ("type", "schema")}})

    def describe(self) -> str:
        """One human line: what this capsule holds."""
        counts = self.manifest.get("counts", {})
        body = " ".join(f"{kind}={counts[kind]}" for kind in LINE_TYPES
                        if kind in counts)
        return (f"capsule {self.path or '(unsaved)'}: engine={self.engine} "
                f"seed={self.seed} {body}")
