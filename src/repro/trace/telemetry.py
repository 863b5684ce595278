"""Live telemetry: simulated-time-sampled gauges and counters.

Event records answer "what happened"; telemetry answers "what does the
cluster look like *right now*" -- per-resource queue depths, outstanding
network flows, buffer-cache dirty bytes, excluded machines.  Components
register callback-backed series in a :class:`TelemetryRegistry`; a
:class:`TelemetrySampler` process snapshots every series on a fixed
simulated-time cadence, and :func:`render_prometheus` exports the
current values in the Prometheus text exposition format (v0.0.4) so the
same numbers a health monitor consumes in-simulation are also readable
by standard tooling.

The registry never *computes* anything itself: a series is a zero-arg
callback into the owning component (scheduler queue, network, cache),
so sampling reads the live simulation state without copies or
double-bookkeeping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.simulator import Environment
from repro.trace.tsdb import TimeSeriesStore

__all__ = [
    "TelemetryRegistry",
    "TelemetrySampler",
    "TelemetrySample",
    "render_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sorted (key, value) pairs -- hashable, deterministic label identity.
Labels = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class TelemetrySample:
    """One sampled value of one labeled series."""

    t: float
    name: str
    labels: Labels
    value: float


@dataclass
class _Metric:
    name: str
    help_text: str
    kind: str  # "gauge" | "counter"
    series: Dict[Labels, Callable[[], float]] = field(default_factory=dict)


class TelemetryRegistry:
    """Named gauge/counter series backed by live callbacks.

    Sampled history lives in a per-series ring-buffer
    :class:`~repro.trace.tsdb.TimeSeriesStore` (``capacity_per_series``
    points per series, optionally age-bounded by ``retention_s``), so an
    always-on serving run holds a sliding window of telemetry rather
    than an ever-growing flat list, and :meth:`history` is a per-series
    lookup instead of a scan over every sample ever taken.
    """

    def __init__(self, capacity_per_series: int = 4096,
                 retention_s: Optional[float] = None) -> None:
        self._metrics: Dict[str, _Metric] = {}
        #: Ring-buffered time-series history appended by :meth:`sample`.
        self.store = TimeSeriesStore(
            capacity_per_series=capacity_per_series,
            retention_s=retention_s)

    @property
    def retention_s(self) -> Optional[float]:
        """The store's age bound (None when only capacity-bounded)."""
        return self.store.retention_s

    def gauge(self, name: str, help_text: str,
              callback: Callable[[], float], **labels: object) -> None:
        """Register a gauge series (a value that can go up and down)."""
        self._register(name, help_text, "gauge", callback, labels)

    def counter(self, name: str, help_text: str,
                callback: Callable[[], float], **labels: object) -> None:
        """Register a counter series (monotonically non-decreasing)."""
        self._register(name, help_text, "counter", callback, labels)

    def _register(self, name: str, help_text: str, kind: str,
                  callback: Callable[[], float],
                  labels: Dict[str, object]) -> None:
        if not _NAME_RE.match(name):
            raise SimulationError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise SimulationError(
                    f"invalid label name {label!r} on metric {name!r}")
            if label.startswith("__"):
                # Prometheus reserves double-underscore label names for
                # internal use; exporting one breaks real scrapers.
                raise SimulationError(
                    f"label name {label!r} on metric {name!r} is "
                    f"reserved (double-underscore prefix)")
        metric = self._metrics.get(name)
        if metric is None:
            metric = _Metric(name, help_text, kind)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise SimulationError(
                f"metric {name!r} registered as both {metric.kind} "
                f"and {kind}")
        elif metric.help_text != help_text:
            # Two registrations disagreeing about what the metric means
            # is a bug in the caller, and the exposition format has one
            # HELP line per metric -- first writer would silently win.
            raise SimulationError(
                f"metric {name!r} registered with conflicting help "
                f"text: {metric.help_text!r} vs {help_text!r}")
        key: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        if key in metric.series:
            raise SimulationError(
                f"duplicate series {name}{dict(key)!r}")
        metric.series[key] = callback

    # -- reading -------------------------------------------------------------------

    def read(self) -> Dict[str, List[Tuple[Labels, float]]]:
        """Current value of every series, by metric name (sorted)."""
        out: Dict[str, List[Tuple[Labels, float]]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[name] = [(labels, float(metric.series[labels]()))
                         for labels in sorted(metric.series)]
        return out

    def latest(self, name: str, **labels: object) -> float:
        """Current value of one series (calls its callback now)."""
        metric = self._metrics.get(name)
        if metric is None:
            raise SimulationError(f"unknown metric {name!r}")
        key: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        callback = metric.series.get(key)
        if callback is None:
            raise SimulationError(
                f"unknown series {name}{dict(key)!r}; have "
                f"{[dict(k) for k in sorted(metric.series)]}")
        return float(callback())

    def sample(self, now: float) -> None:
        """Snapshot every series into :attr:`store` at time ``now``."""
        for name, series in self.read().items():
            for labels, value in series:
                self.store.append(name, now, value, labels=labels)

    def history(self, name: str, **labels: object) -> List[Tuple[float, float]]:
        """(t, value) points retained for one series (per-series lookup)."""
        key: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        return self.store.points(name, labels=key)

    @property
    def samples(self) -> List[TelemetrySample]:
        """Every retained sample, flattened and time-ordered.

        A compatibility view over :attr:`store`: bounded by the ring
        buffers, so on long runs it is the recent window, not all of
        history.  Prefer :meth:`history` or :attr:`store` queries.
        """
        out = [TelemetrySample(t=t, name=name, labels=labels, value=value)
               for name, labels in self.store.series()
               for t, value in self.store.points(name, labels=labels)]
        out.sort(key=lambda s: (s.t, s.name, s.labels))
        return out

    def render_prometheus(self, now: Optional[float] = None,
                          windows: Sequence[float] = (),
                          window_aggs: Sequence[str] = ("mean", "p95"),
                          ) -> str:
        """The current values in Prometheus text exposition format."""
        return render_prometheus(self, now=now, windows=windows,
                                 window_aggs=window_aggs)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _window_suffix(window_s: float) -> str:
    # "60" -> "60s", "1.5" -> "1_5s": metric names cannot contain ".".
    return f"{window_s:g}".replace(".", "_").replace("+", "").replace(
        "-", "_") + "s"


def _series_line(name: str, labels: Labels, value: float) -> str:
    if labels:
        body = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in labels)
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_prometheus(registry: TelemetryRegistry,
                      now: Optional[float] = None,
                      windows: Sequence[float] = (),
                      window_aggs: Sequence[str] = ("mean", "p95"),
                      ) -> str:
    """Render a registry's live values as a Prometheus exposition page.

    Output is deterministic: metrics sorted by name, series by label
    set.  ``now`` (simulated seconds) is attached as a trailing comment,
    not a Prometheus timestamp, because simulated time is not epoch
    milliseconds.

    For each window in ``windows`` (seconds) and each aggregation in
    ``window_aggs``, additional recording-rule-style gauges named
    ``<metric>:<agg>_<window>s`` are emitted from the registry's sampled
    ring-buffer history -- e.g. ``repro_serve_running_jobs:p95_60s``.
    Series with no samples in the window are omitted.
    """
    lines: List[str] = []
    if now is not None:
        lines.append(f"# simulated_time_seconds {now!r}")
    for name, series in registry.read().items():
        metric = registry._metrics[name]
        lines.append(f"# HELP {name} {metric.help_text}")
        lines.append(f"# TYPE {name} {metric.kind}")
        for labels, value in series:
            lines.append(_series_line(name, labels, value))
        for window_s in windows:
            for agg in window_aggs:
                agg_lines: List[str] = []
                for labels, _ in series:
                    value = registry.store.aggregate(
                        name, agg, window_s=window_s, now=now, labels=labels)
                    if value is None:
                        continue
                    agg_lines.append(_series_line(
                        f"{name}:{agg}_{_window_suffix(window_s)}",
                        labels, value))
                if agg_lines:
                    agg_name = f"{name}:{agg}_{_window_suffix(window_s)}"
                    lines.append(
                        f"# HELP {agg_name} {window_s:g}s-window {agg} of "
                        f"{name}")
                    lines.append(f"# TYPE {agg_name} gauge")
                    lines.extend(agg_lines)
    return "\n".join(lines) + "\n"


class TelemetrySampler:
    """Samples a registry on a fixed simulated-time cadence.

    Start it before ``env.run`` (or any time mid-run); it snapshots
    immediately, then every ``interval_s`` until stopped.  Like the
    health monitor, it is an ``env.every`` service: runs driven by
    ``env.run(until=...)`` simply stop observing at ``until``; call
    :meth:`stop` before an open-ended ``env.run()`` drain.
    """

    def __init__(self, env: Environment, registry: TelemetryRegistry,
                 interval_s: float = 1.0) -> None:
        if not interval_s > 0:
            raise SimulationError(
                f"sampler interval must be positive, got {interval_s!r}")
        self.env = env
        self.registry = registry
        self.interval_s = interval_s
        self._process = None

    def start(self) -> None:
        """Begin sampling; a no-op while sampling, an error once stopped."""
        if self._process is None:
            self._process = self.env.every(
                self.interval_s, lambda: self.registry.sample(self.env.now))
        elif not self._process.is_alive:
            raise SimulationError("a stopped sampler cannot restart")

    def stop(self) -> None:
        """Stop sampling now (idempotent)."""
        if self._process is not None:
            self._process.cancel()
