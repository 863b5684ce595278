"""The always-on clarity pipeline: the paper's §6 payoff, continuously.

Four siloed subsystems -- serving (:mod:`repro.serve`), causal tracing
(:mod:`repro.trace`), the ideal model (:mod:`repro.model`), and metrics
-- become one observability story:

* :class:`ClarityAggregator` -- folds each completed job's
  critical-path attribution into rolling windows that answer "which
  resource/machine is the cluster's bottleneck over the last N
  seconds" (and say *not attributable* on blended engines);
* :class:`CapacityAdvisor` -- ranks candidate what-ifs (add a disk,
  HDD->SSD, 2x network, +/- machines, input in memory) by predicted
  p50/p95 improvement, with modeled-vs-measured provenance;
* :mod:`repro.clarity.validate` -- checks the advisor's ranking and
  error envelope against ground-truth re-simulation.

Sampled telemetry and its ring-buffered history
(:class:`repro.trace.TimeSeriesStore`) live in :mod:`repro.trace`.
See ``docs/clarity.md``.
"""

from repro.clarity.advisor import (AdvisorReport, Candidate,
                                   CapacityAdvisor, Recommendation,
                                   default_candidates)
from repro.clarity.aggregator import (BottleneckWindow, ClarityAggregator,
                                      JobClarity)

__all__ = [
    "ClarityAggregator",
    "JobClarity",
    "BottleneckWindow",
    "CapacityAdvisor",
    "Candidate",
    "Recommendation",
    "AdvisorReport",
    "default_candidates",
]
