"""Streaming span/link sinks for long serving runs.

The in-memory span list in :class:`~repro.metrics.collector.
MetricsCollector` is fine for batch jobs, but a serving run that lives
for hours of simulated time should stream its trace out instead of
holding it.  A sink attached via ``MetricsCollector.add_span_sink``
receives every span when it *closes* (spans are emitted complete, never
half-open) and every link when it is recorded.

Lines go through :class:`repro.jsonl.JsonlWriter` and carry a
``schema`` version field (:data:`TRACE_SCHEMA`), so readers -- the
capsule loader in ``repro.xray`` and ``scripts/validate_trace.py`` --
can refuse lines they do not understand instead of misparsing them.
"""

from __future__ import annotations

from repro.jsonl import JsonlWriter
from repro.trace.spans import SpanLink, SpanRecord, link_to_json, span_to_json

__all__ = ["JsonlSpanSink", "TRACE_SCHEMA"]

#: Version stamped into every JSONL line this module writes.  Bump when
#: the per-line shape changes incompatibly.
TRACE_SCHEMA = 1


class JsonlSpanSink(JsonlWriter):
    """Writes one JSON object per line: finished spans and links.

    Usage::

        with JsonlSpanSink("trace.jsonl") as sink:
            ctx.metrics.add_span_sink(sink)
            ... run jobs ...

    The output is deterministic: key order is fixed by the
    ``span_to_json``/``link_to_json`` helpers and floats are emitted
    with ``repr`` precision, so identical runs produce identical files.
    Each line gains a trailing ``schema`` field with :data:`TRACE_SCHEMA`.
    """

    def __init__(self, path: str) -> None:
        super().__init__(path, TRACE_SCHEMA)

    @property
    def spans_written(self) -> int:
        """Span lines written so far."""
        return self.counts.get("span", 0)

    @property
    def links_written(self) -> int:
        """Link lines written so far."""
        return self.counts.get("link", 0)

    def span_finished(self, span: SpanRecord) -> None:
        """Write one closed span."""
        self.write_record(span_to_json(span))

    def link_recorded(self, link: SpanLink) -> None:
        """Write one causal link."""
        self.write_record(link_to_json(link))
