"""Plain-text tables for benchmark output.

Every benchmark prints a table of "paper says / we measured" rows; this
module keeps the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.metrics.events import FaultEventRecord

if TYPE_CHECKING:
    from repro.metrics.collector import MetricsCollector

__all__ = ["format_table", "print_table", "format_seconds", "ratio",
           "format_fault_report"]


def format_seconds(seconds: float) -> str:
    """Human-friendly rendering with ms/s/min/h units."""
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1000:.1f} ms"


def ratio(a: float, b: float) -> float:
    """Safe a/b for table cells."""
    if b == 0:
        return float("inf") if a > 0 else 1.0
    return a / b


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    rendered_rows: List[List[str]] = [[_render(cell) for cell in row]
                                      for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index])
                         for index, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(row) for row in rendered_rows)
    return "\n".join(lines)


def print_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                title: Optional[str] = None) -> None:
    """Print an aligned plain-text table, padded with blank lines."""
    print()
    print(format_table(headers, rows, title=title))
    print()


def format_fault_report(metrics: "MetricsCollector",
                        job_id: Optional[int] = None) -> str:
    """Render the faults-and-recovery summary for a run.

    Counts injected faults by kind, task attempts by outcome, retries,
    and speculative launches, so a report shows at a glance how much
    work a job lost and re-executed.
    """
    rows: List[List[object]] = []
    fault_kinds: dict = {}
    for fault in metrics.events_of(FaultEventRecord):
        fault_kinds[fault.kind] = fault_kinds.get(fault.kind, 0) + 1
    for kind in sorted(fault_kinds):
        rows.append([f"fault: {kind}", fault_kinds[kind]])
    outcomes = metrics.attempt_outcome_counts(job_id)
    for outcome in sorted(outcomes):
        rows.append([f"attempts: {outcome}", outcomes[outcome]])
    rows.append(["retries", metrics.retry_count(job_id)])
    speculations = [s for s in metrics.speculations
                    if job_id is None or s.job_id == job_id]
    rows.append(["speculative launches", len(speculations)])
    return format_table(["event", "count"], rows,
                        title="Faults and recovery")


def _render(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)
