"""Always-on clarity: live cluster bottlenecks and capacity advice.

One seeded sort stream is served with the clarity pipeline attached.
As jobs finish, a `ClarityAggregator` folds each one's critical-path
attribution into a rolling window that answers the operator's question
continuously -- *which resource, on which machine, is the cluster's
bottleneck right now?* -- and a `CapacityAdvisor` ranks candidate
capacity changes (add a disk, HDD->SSD, 2x network, +/-1 machine, input
in memory) by predicted p95 service time, the paper's §6.2 what-if
machinery applied to a whole serving window.

The same stream on Spark shows the §6.6 contrast: blended tasks admit
no decomposition, and both the window and the advisor say so explicitly
instead of fabricating numbers.

Run:  python examples/clarity_pipeline.py
"""

from repro.clarity import CapacityAdvisor
from repro.clarity.validate import ClarityWorkload, run_clarity_serving
from repro.model import hardware_profile


def main():
    for engine in ("monospark", "spark"):
        ctx, _, aggregator = run_clarity_serving(ClarityWorkload(
            duration_s=120.0, rate_per_s=0.05, sort_gb=0.5, sort_tasks=32,
            engine=engine))
        print(f"=== {engine} ===")
        print(aggregator.bottleneck().format())
        print()
        advisor = CapacityAdvisor(hardware_profile(ctx.cluster))
        print(advisor.advise(aggregator.observations()).format())
        print()
    print("Same stream, same cluster: monospark's window decomposes into "
          "resources and yields a ranked capacity plan; spark's is "
          "explicitly not attributable.")


if __name__ == "__main__":
    main()
