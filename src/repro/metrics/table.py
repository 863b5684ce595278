"""Monotask self-reports and causal links stored as rows of typed
columns.

A serving run is meant to keep every monotask's report for good (§6.1:
the reports *are* the measurement), so the collector keeps each one as
one row of :mod:`array` columns, not as a :class:`MonotaskRecord`
object: a row costs about 80 bytes where the object and its floats cost
about 350.  Causal links are kept the same way (:class:`LinkTable`),
about 40 bytes a link, and so is each monotask span a loaded capsule
holds.  Readers see records all the same.  ``metrics.monotasks`` and
``metrics.links`` are :class:`TableRows` views, and a traced row's leaf
span sits in the span lists as the shared :data:`ROW` marker
(:class:`SpanList`): the k-th marker of a list is the k-th traced row
behind it.  They build an equal record on read.  The per-job hot
readers (critical paths, stage profiles, health estimators) read the
columns or plain tuples instead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import islice
from typing import (Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from repro.metrics.events import _NO_ATTRS, MonotaskRecord
from repro.trace.spans import SPAN_MONOTASK, SpanLink, SpanRecord

__all__ = ["ROW", "MonotaskTable", "LinkTable", "TableRows", "SpanList",
           "job_trace_id"]


#: What a traced monotask row leaves in a span list in place of a span.
ROW = object()

_NO_COSTS = (0.0, 0.0, 0.0)

#: Kinds a monotask table can code: ``2 * kind + 1`` fits an ``H``.
_MAX_KINDS = 1 << 15


def job_trace_id(job_id: int) -> str:
    """The trace id under which a job's spans are recorded."""
    return f"job-{job_id}"


class MonotaskTable:
    """Every monotask report of a run, one row each, in record order.

    ``code`` packs the row's kind (an index into :attr:`kinds`; a run
    has a few dozen) with a traced bit: ``2 * kind + traced``.  A kind
    is the resource, the phase, the disk index, the number types of
    ``nbytes`` and of the three compute costs (so a byte count or cost
    filed as an ``int`` reads back as one and serializes the same),
    whether the row has compute costs, and whether the row is a loaded
    capsule's monotask span rather than a report (:meth:`append_span`).
    A traced row is its job's leaf span, under the job's trace; an
    untraced row keeps the record defaults (span id 0, no parent).
    Compute costs live in three columns of their own with the row each
    belongs to, so a row without costs pays nothing for them.  Times
    are kept as floats, the engine clock's type.
    """

    __slots__ = ("job_id", "stage_id", "task_index", "machine_id", "code",
                 "start", "end", "queue_s", "nbytes", "span_id",
                 "parent_id", "kinds", "_kind_codes", "cost_rows",
                 "deserialize_s", "op_s", "serialize_s", "span_traces")

    def __init__(self) -> None:
        self.job_id = array("q")
        self.stage_id = array("i")
        self.task_index = array("i")
        self.machine_id = array("i")
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.queue_s = array("d")
        self.nbytes = array("d")
        self.span_id = array("q")
        self.parent_id = array("q")
        #: (resource, phase, disk_index, nbytes type, deserialize_s
        #: type, op_s type, serialize_s type, has costs, loaded span)
        #: per kind code.
        self.kinds: List[Tuple] = []
        self._kind_codes: Dict[Tuple, int] = {}
        #: Ascending rows that carry compute costs, and the costs.
        self.cost_rows = array("I")
        self.deserialize_s = array("d")
        self.op_s = array("d")
        self.serialize_s = array("d")
        #: job -> the trace id object its loaded span rows read back
        #: with (:meth:`append_span`).
        self.span_traces: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.code)

    def append(self, record: MonotaskRecord, span_id: int = 0,
               parent_id: Optional[int] = None) -> int:
        """Add one report; returns its row.

        A ``parent_id`` makes the row traced, as leaf span ``span_id``.
        """
        row = len(self.code)
        nbytes = record.nbytes
        deserialize_s = record.deserialize_s
        op_s = record.op_s
        serialize_s = record.serialize_s
        costed = False
        if deserialize_s or op_s or serialize_s:
            costed = True
            self.cost_rows.append(row)
            self.deserialize_s.append(deserialize_s)
            self.op_s.append(op_s)
            self.serialize_s.append(serialize_s)
        key = (record.resource, record.phase, record.disk_index,
               type(nbytes), type(deserialize_s), type(op_s),
               type(serialize_s), costed, False)
        kind = self._kind_codes.get(key)
        if kind is None:
            kind = self._kind_codes[key] = len(self.kinds)
            self.kinds.append(key)
        self.job_id.append(record.job_id)
        self.stage_id.append(record.stage_id)
        self.task_index.append(record.task_index)
        self.machine_id.append(record.machine_id)
        self.start.append(record.start)
        self.end.append(record.end)
        self.queue_s.append(record.queue_s)
        self.nbytes.append(nbytes)
        if parent_id is None:
            self.code.append(2 * kind)
            self.span_id.append(0)
            self.parent_id.append(0)
        else:
            self.code.append(2 * kind + 1)
            self.span_id.append(span_id)
            self.parent_id.append(parent_id)
        return row

    def append_span(self, job_id: int, trace_id: str, span_id: int,
                    parent_id: int, machine_id: int, start: float,
                    end: float, queue_s: float, nbytes: float,
                    resource: str, phase: str,
                    disk_index: Optional[int]) -> int:
        """Add a loaded capsule's monotask span as a traced row of job
        ``job_id``, whose trace id is ``trace_id``; returns its row, or
        -1 (nothing added) when the table has no kind code left for it.

        The row reads back as the :class:`SpanRecord` the span line
        holds: named after its phase, its disk index an attr, its trace
        id the first object the job's rows were added with.  It has no
        stage, task or costs: a capsule carries spans, not reports.
        """
        key = (resource, phase, disk_index, type(nbytes), float, float,
               float, False, True)
        kind = self._kind_codes.get(key)
        if kind is None:
            if len(self.kinds) >= _MAX_KINDS:
                return -1
            kind = self._kind_codes[key] = len(self.kinds)
            self.kinds.append(key)
        self.span_traces.setdefault(job_id, trace_id)
        row = len(self.code)
        self.job_id.append(job_id)
        self.stage_id.append(-1)
        self.task_index.append(-1)
        self.machine_id.append(machine_id)
        self.start.append(start)
        self.end.append(end)
        self.queue_s.append(queue_s)
        self.nbytes.append(nbytes)
        self.code.append(2 * kind + 1)
        self.span_id.append(span_id)
        self.parent_id.append(parent_id)
        return row

    def _costs(self, row: int) -> Tuple[float, float, float]:
        """(deserialize_s, op_s, serialize_s) of a row that has costs."""
        index = bisect_left(self.cost_rows, row)
        return (self.deserialize_s[index], self.op_s[index],
                self.serialize_s[index])

    def traced_rows(self, rows: Optional[Iterable[int]] = None
                    ) -> Iterator[int]:
        """The traced rows among ``rows`` (default: all), in order."""
        code = self.code
        if rows is None:
            rows = range(len(code))
        return (row for row in rows if code[row] & 1)

    def record(self, row: int) -> SpanRecord:
        """The row as the record it was filed from, span identity
        stamped when traced; a loaded span's row as its span."""
        (resource, phase, disk_index, nbytes_type, deserialize_type,
         op_type, serialize_type, costed, loaded) = \
            self.kinds[self.code[row] >> 1]
        job_id = self.job_id[row]
        if loaded:
            return SpanRecord(
                span_id=self.span_id[row],
                trace_id=self.span_traces[job_id],
                parent_id=self.parent_id[row], kind=SPAN_MONOTASK,
                name=phase, start=self.start[row], end=self.end[row],
                machine_id=self.machine_id[row], resource=resource,
                phase=phase, queue_s=self.queue_s[row],
                nbytes=nbytes_type(self.nbytes[row]),
                attrs=(_NO_ATTRS if disk_index is None
                       else {"disk_index": disk_index}))
        deserialize_s, op_s, serialize_s = (self._costs(row) if costed
                                            else _NO_COSTS)
        if self.code[row] & 1:
            span_id, trace_id = self.span_id[row], job_trace_id(job_id)
            parent_id, name = self.parent_id[row], phase
        else:
            span_id, trace_id, parent_id, name = 0, "", None, ""
        return MonotaskRecord(
            span_id=span_id, trace_id=trace_id, parent_id=parent_id,
            name=name, start=self.start[row], end=self.end[row],
            machine_id=self.machine_id[row], resource=resource, phase=phase,
            queue_s=self.queue_s[row], nbytes=nbytes_type(self.nbytes[row]),
            job_id=job_id, stage_id=self.stage_id[row],
            task_index=self.task_index[row], disk_index=disk_index,
            deserialize_s=deserialize_type(deserialize_s),
            op_s=op_type(op_s), serialize_s=serialize_type(serialize_s))

    def scan(self, rows: Iterable[int]) -> List[Tuple]:
        """``(stage_id, resource, phase, machine_id, start, end,
        queue_s, nbytes, deserialize_s, op_s, serialize_s)`` for each of
        ``rows``, which must ascend; byte counts and costs come as
        floats."""
        kinds, code = self.kinds, self.code
        stage_id, machine_id = self.stage_id, self.machine_id
        start, end, queue_s, nbytes = (self.start, self.end, self.queue_s,
                                       self.nbytes)
        cost_rows, deserialize, op, serialize = (
            self.cost_rows, self.deserialize_s, self.op_s, self.serialize_s)
        index = 0
        out = []
        for row in rows:
            kind = kinds[code[row] >> 1]
            if kind[7]:
                # Rows ascend, so the cost row is next or further on.
                if cost_rows[index] != row:
                    index = bisect_left(cost_rows, row, index)
                out.append((stage_id[row], kind[0], kind[1], machine_id[row],
                            start[row], end[row], queue_s[row], nbytes[row],
                            deserialize[index], op[index], serialize[index]))
                index += 1
            else:
                out.append((stage_id[row], kind[0], kind[1], machine_id[row],
                            start[row], end[row], queue_s[row], nbytes[row],
                            0.0, 0.0, 0.0))
        return out

    def leaves(self, rows: Iterable[int]) -> List[Tuple]:
        """``(start, end, resource, machine_id, phase, span_id,
        queue_s)``, the fields a critical-path walk reads, for each
        traced row among ``rows``, in order."""
        kinds, code, machine_id, span_id = (self.kinds, self.code,
                                            self.machine_id, self.span_id)
        start, end, queue_s = self.start, self.end, self.queue_s
        out = []
        for row in rows:
            packed = code[row]
            if packed & 1:
                kind = kinds[packed >> 1]
                out.append((start[row], end[row], kind[0], machine_id[row],
                            kind[1], span_id[row], queue_s[row]))
        return out


class LinkTable:
    """Every causal link of a run, one row each, in record order.

    ``from_id``, ``to_id`` and ``at`` are columns; ``kind``, ``trace``
    and ``detail`` hold small-int codes into :attr:`kinds`,
    :attr:`traces` and :attr:`details`, lists of the values a run
    repeats.  A kind code also keeps the number type of ``at``, so an
    ``int`` reads back and serializes as one; NaN means no ``at``.
    :attr:`trace_rows` lists each trace's rows, ascending, for the
    per-job reader.
    """

    __slots__ = ("from_id", "to_id", "at", "kind", "trace", "detail",
                 "kinds", "_kind_codes", "traces", "_trace_codes",
                 "trace_rows", "details", "_detail_codes")

    def __init__(self) -> None:
        self.from_id = array("q")
        self.to_id = array("q")
        self.at = array("d")
        self.kind = array("I")
        self.trace = array("I")
        self.detail = array("I")
        #: (link kind, type of ``at``) per kind code.
        self.kinds: List[Tuple[str, type]] = []
        self._kind_codes: Dict[Tuple[str, type], int] = {}
        self.traces: List[str] = []
        self._trace_codes: Dict[str, int] = {}
        self.trace_rows: List[array] = []
        self.details: List[str] = []
        self._detail_codes: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.kind)

    def append(self, from_span_id: int, to_span_id: int, kind: str,
               trace_id: str, at: float, detail: str) -> int:
        """Add one link; returns its row."""
        key = (kind, type(at))
        kind_code = self._kind_codes.get(key)
        if kind_code is None:
            kind_code = self._kind_codes[key] = len(self.kinds)
            self.kinds.append(key)
        trace = self._trace_codes.get(trace_id)
        if trace is None:
            trace = self._trace_codes[trace_id] = len(self.traces)
            self.traces.append(trace_id)
            self.trace_rows.append(array("I"))
        detail_code = self._detail_codes.get(detail)
        if detail_code is None:
            detail_code = self._detail_codes[detail] = len(self.details)
            self.details.append(detail)
        row = len(self.kind)
        self.from_id.append(from_span_id)
        self.to_id.append(to_span_id)
        self.at.append(at)
        self.kind.append(kind_code)
        self.trace.append(trace)
        self.detail.append(detail_code)
        self.trace_rows[trace].append(row)
        return row

    def record(self, row: int) -> SpanLink:
        """The row as the link it was filed as."""
        kind, at_type = self.kinds[self.kind[row]]
        return SpanLink(from_span_id=self.from_id[row],
                        to_span_id=self.to_id[row], kind=kind,
                        trace_id=self.traces[self.trace[row]],
                        at=at_type(self.at[row]),
                        detail=self.details[self.detail[row]])

    def trace_links(self, trace_id: str) -> List[SpanLink]:
        """The links of one trace, in record order."""
        trace = self._trace_codes.get(trace_id)
        if trace is None:
            return []
        record = self.record
        return [record(row) for row in self.trace_rows[trace]]


class TableRows(Sequence):
    """``metrics.monotasks`` and ``metrics.links``: every row of a table
    as its record, in record order.

    Records are built on read: indexing and iteration give records equal
    to the ones filed, a slice gives a list of them.
    """

    __slots__ = ("_table",)

    def __init__(self, table) -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            record = self._table.record
            return [record(row)
                    for row in range(*index.indices(len(self._table)))]
        if index < 0:
            index += len(self._table)
        if not 0 <= index < len(self._table):
            raise IndexError("table row out of range")
        return self._table.record(index)

    def __iter__(self) -> Iterator:
        record = self._table.record
        return (record(row) for row in range(len(self._table)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (TableRows, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TableRows({len(self)} rows)"


class SpanList(Sequence):
    """``metrics.spans``: spans in open order, monotask rows in place.

    ``entries`` holds span objects and :data:`ROW` markers; the k-th
    marker reads as the record of the table's k-th traced row.
    Iteration is one pass; indexing a marker counts the markers before
    it, so walk the list rather than index it in a loop.
    """

    __slots__ = ("_entries", "_table")

    def __init__(self, entries: List[object],
                 table: MonotaskTable) -> None:
        self._entries = entries
        self._table = table

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return list(self)[index]
        entry = self._entries[index]
        if entry is not ROW:
            return entry
        if index < 0:
            index += len(self._entries)
        marker = sum(1 for other in islice(self._entries, index)
                     if other is ROW)
        row = next(islice(self._table.traced_rows(), marker, None))
        return self._table.record(row)

    def __iter__(self) -> Iterator[SpanRecord]:
        rows = self._table.traced_rows()
        record = self._table.record
        for entry in self._entries:
            yield record(next(rows)) if entry is ROW else entry

    def __eq__(self, other) -> bool:
        if isinstance(other, (SpanList, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SpanList({len(self)} spans)"
