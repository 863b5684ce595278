"""Xray benchmark: capsule determinism and differential blame.

Seeded, deterministic scenarios pin the run-capsule + differential-
debugger claims (ISSUE 10; the paper's §6.6 contrast, differential):

* **Capsule determinism** -- recording the canonical clean run twice
  with the same seed produces byte-identical capsules (sha256-gated),
  for both engines.  This is what makes capsules diffable artifacts
  rather than logs.
* **Fail-slow blame** -- diffing the degraded capsule (machine 1's NIC
  10x slower from t=5s) against the clean one must rank *network on
  machine 1* as the #1 delta, with a positive sign, carrying the
  majority of the total regression, and the diff report itself must be
  byte-stable.
* **Spark contrast** -- the same diff over Spark capsules must say NOT
  ATTRIBUTABLE: blended tasks align and total fine, but cannot be
  decomposed into per-resource blame.
* **Regress gate** -- ``DiffReport.regression``: the degraded run
  trips the threshold, the clean-vs-clean self-diff does not.

Every invariant is a deterministic function of the seed: the benchmark
runs the scenario set ``repeats`` times and raises on any cross-run
drift, so CI diffs the committed ``BENCH_xray.json`` exactly.

``scripts/bench_trajectory.py --bench xray`` runs :data:`BENCH`.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional

from repro.trajectory import Bench, repeat_deterministic
from repro.xray.capsule import Capsule
from repro.xray.diff import diff_capsules
from repro.xray.scenario import CanonicalRun, record_run

__all__ = ["XrayWorkload", "BENCH"]


@dataclass(frozen=True)
class XrayWorkload:
    """The seeded scenarios the xray benchmark drives: ``run`` is the
    clean MonoSpark recording; the degraded and Spark recordings are
    its variants."""

    run: CanonicalRun = CanonicalRun()
    noise_floor_s: float = 0.05
    #: ``repro xray regress`` default: fail CI past this many seconds.
    regress_threshold_s: float = 0.5


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _capsule_invariants(capsule: Capsule, path: str) -> Dict:
    return {
        "sha256": _sha256(path),
        "counts": dict(capsule.manifest.get("counts", {})),
        "completed_jobs": len(capsule.completed_jobs()),
    }


def _record_deterministic(workdir: str, name: str,
                          run: CanonicalRun) -> Capsule:
    """Record the run twice; gate byte-identity; return the capsule."""
    first = os.path.join(workdir, f"{name}.capsule")
    again = os.path.join(workdir, f"{name}-again.capsule")
    capsule = record_run(first, run)
    record_run(again, run)
    if _sha256(first) != _sha256(again):
        raise AssertionError(
            f"same-seed capsules differ for {name}: recording is not "
            f"deterministic")
    return capsule


def _blame_gate(clean: Capsule, degraded: Capsule,
                workload: XrayWorkload) -> Dict:
    """Diff degraded vs clean: machine 1's network must be blamed."""
    report = diff_capsules(clean, degraded,
                           noise_floor_s=workload.noise_floor_s)
    if not report.attributable:
        raise AssertionError("monospark diff came back unattributable")
    if report.delta_total <= 0:
        raise AssertionError(
            f"degraded run was not slower: delta "
            f"{report.delta_total:+.3f}s")
    if not report.entries:
        raise AssertionError("no blame cells cleared the noise floor")
    top = report.entries[0]
    slow = degraded.config["degrade_machine"]
    if "network" not in top.label or top.machine_id != slow:
        raise AssertionError(
            f"#1 blame is {top.label} on machine {top.machine_id}, "
            f"expected network on machine {slow}")
    if top.delta <= 0:
        raise AssertionError(
            f"#1 blame has the wrong sign: {top.delta:+.3f}s")
    if top.delta < 0.5 * report.delta_total:
        raise AssertionError(
            f"#1 blame carries only {top.delta:.3f}s of the "
            f"{report.delta_total:.3f}s regression -- magnitude is off")
    if report.first_divergence is None:
        raise AssertionError("no first diverging span was identified")
    if not report.regression(workload.regress_threshold_s):
        raise AssertionError(
            f"regression gate missed a {report.delta_total:+.3f}s "
            f"regression at threshold {workload.regress_threshold_s}s")
    text = report.format()
    return {
        "aligned_jobs": len(report.pairs),
        "delta_total_s": round(report.delta_total, 6),
        "top": {
            "label": top.label,
            "machine": top.machine_id,
            "phase": top.phase,
            "delta_s": round(top.delta, 6),
            "share": round(top.delta / report.delta_total, 4),
        },
        "ranked_cells": len(report.entries),
        "first_diverging_job": report.first_divergence.job_b,
        "narrative": report.narrative(),
        "report_sha256": hashlib.sha256(
            text.encode("utf-8")).hexdigest(),
    }


def _spark_gate(spark_clean: Capsule, spark_degraded: Capsule,
                workload: XrayWorkload) -> Dict:
    """The same diff on Spark capsules must refuse to decompose."""
    report = diff_capsules(spark_clean, spark_degraded,
                           noise_floor_s=workload.noise_floor_s)
    if report.attributable:
        raise AssertionError(
            "spark diff claims per-resource attribution -- blended "
            "tasks cannot support that")
    text = report.format()
    if "NOT ATTRIBUTABLE" not in text:
        raise AssertionError(
            f"spark diff report does not say NOT ATTRIBUTABLE:\n{text}")
    return {
        "aligned_jobs": len(report.pairs),
        "delta_total_s": round(report.delta_total, 6),
        "not_attributable": True,
        "narrative": report.narrative(),
    }


def _self_diff_gate(clean: Capsule, workload: XrayWorkload) -> Dict:
    """A run diffed against itself must be silent: no regression."""
    report = diff_capsules(clean, clean,
                           noise_floor_s=workload.noise_floor_s)
    if report.entries:
        raise AssertionError(
            f"self-diff produced blame cells: {report.entries}")
    if report.regression(workload.regress_threshold_s):
        raise AssertionError("self-diff tripped the regression gate")
    if abs(report.delta_total) > 1e-9:
        raise AssertionError(
            f"self-diff delta is not zero: {report.delta_total!r}")
    return {
        "aligned_jobs": len(report.pairs),
        "delta_total_s": round(report.delta_total, 6),
        "regression": False,
    }


def _invariants(workload: XrayWorkload) -> Dict:
    """Record the four capsules and gate every diff over them."""
    workdir = tempfile.mkdtemp(prefix="repro-xray-bench-")
    try:
        spark = replace(workload.run, engine="spark")
        clean = _record_deterministic(workdir, "clean", workload.run)
        degraded = _record_deterministic(
            workdir, "degraded", workload.run.degraded(1))
        spark_clean = _record_deterministic(workdir, "spark-clean", spark)
        spark_degraded = _record_deterministic(
            workdir, "spark-degraded", spark.degraded(1))
        return {
            "capsules": {
                "clean": _capsule_invariants(clean, clean.path),
                "degraded": _capsule_invariants(degraded, degraded.path),
                "spark_clean": _capsule_invariants(
                    spark_clean, spark_clean.path),
                "spark_degraded": _capsule_invariants(
                    spark_degraded, spark_degraded.path),
            },
            "blame": _blame_gate(clean, degraded, workload),
            "spark": _spark_gate(spark_clean, spark_degraded, workload),
            "self_diff": _self_diff_gate(clean, workload),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(repeats: int, committed: Optional[Dict]) -> Dict:
    """The dict ``BENCH_xray.json`` holds."""
    workload = XrayWorkload()
    invariants, _ = repeat_deterministic(
        lambda: (_invariants(workload), None), repeats)
    return {
        "benchmark": "xray_diff",
        "workload": asdict(workload),
        "repeats": repeats,
        "invariants": invariants,
    }


BENCH = Bench("xray", _run)
