"""Model-drift detection: measured attribution vs the ideal model.

Monotasks' performance clarity rests on the claim that the ideal-rate
model *predicts* job runtime from per-resource monotask measurements
(§6 of the paper validates modeled-vs-measured across workloads).
That makes the model itself a health signal -- but not via the raw
ratio: the model divides by *aggregate cluster* capacity, so a job too
small to fill the cluster runs at a measured/modeled ratio well above
1.0 even when perfectly healthy, and the bias is workload-shaped, not
a constant.  What is stable on a healthy cluster is that a given job
*template* keeps producing the same ratio run after run.

So the detector self-calibrates: the first :data:`BASELINE_SAMPLES`
attributable jobs per template establish that template's baseline
ratio (their median), and from then on every job is scored by its
*normalized* ratio -- measured/modeled divided by the baseline.  A
healthy cluster holds the normalized ratio at ~1.0; a sick NIC, a
contended disk, or a failing-slow machine pushes the jobs it touches
off their baseline before anyone has diagnosed why, and the verdict
names the worst stage.  Firing condition: normalized ratio outside
``[1/DRIFT_ENVELOPE, DRIFT_ENVELOPE]``.

Stage profiles come from the collector's per-job cache
(``metrics.stage_profiles``, shared with admission and clarity).  On
the Spark-style engine the model has no per-resource measurements to
work from (§6.6) -- the profiles raise ``ModelError`` -- and every
verdict is NOT ATTRIBUTABLE: the same observability cliff the paper
demonstrates offline, here online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ModelError, ObsError
from repro.model.ideal import hardware_profile, model_stage
from repro.stats import percentile

__all__ = ["DRIFT_ENVELOPE", "DriftVerdict", "ModelDriftDetector"]

#: Tolerated multiplicative drift of the normalized ratio; also the
#: plane's ``model-drift`` rule threshold.
DRIFT_ENVELOPE = 2.0
#: Attributable jobs per template that calibrate its baseline.
BASELINE_SAMPLES = 2
#: Verdicts retained, newest last.
KEEP = 256
#: Scored verdicts the drift-ratio gauge averages over.
WINDOW = 8


@dataclass(frozen=True)
class DriftVerdict:
    """One completed job's modeled-vs-measured comparison."""

    job_id: int
    tenant: str
    at: float
    #: False on the Spark-style engine: no monotask measurements, no
    #: model, no attribution (the §6.6 contrast, online).
    attributable: bool
    template: str = ""
    measured_s: float = float("nan")
    modeled_s: float = float("nan")
    #: Raw measured / modeled (carries the model's small-job bias).
    ratio: float = float("nan")
    #: The template's calibrated healthy ratio (nan while calibrating).
    baseline: float = float("nan")
    #: ratio / baseline; ~1.0 = the template behaves as it always has.
    normalized: float = float("nan")
    drifting: bool = False
    worst_stage_id: int = -1
    worst_stage_ratio: float = float("nan")
    reason: str = ""

    @property
    def calibrating(self) -> bool:
        """True while this verdict only fed the baseline."""
        return self.attributable and self.baseline != self.baseline


class ModelDriftDetector:
    """Compares completed jobs against the ideal model, online.

    A job drifts when its normalized ratio is above
    :data:`DRIFT_ENVELOPE` or below its inverse (running far *faster*
    than baseline also means the detector's picture of the workload is
    stale).  :data:`BASELINE_SAMPLES` attributable jobs per template
    calibrate that template's baseline (their median) before scoring
    starts.  Verdicts are kept newest-last, bounded by :data:`KEEP`;
    :meth:`drift_ratio` feeds the plane's ``repro_obs_drift_ratio``
    gauge with the mean normalized ratio over the last :data:`WINDOW`
    scored verdicts (1.0 when there are none, so the gauge reads "no
    drift" on an idle or still-calibrating cluster).  All four are
    fixed constants.
    """

    def __init__(self, cluster=None) -> None:
        self.cluster = cluster
        self.verdicts: List[DriftVerdict] = []
        #: template -> calibration ratios (until BASELINE_SAMPLES).
        self._calibration: Dict[str, List[float]] = {}
        #: template -> established baseline ratio.
        self._baselines: Dict[str, float] = {}
        self._hardware = None

    def _hardware_profile(self):
        if self._hardware is None:
            if self.cluster is None:
                raise ObsError("drift detector has no cluster to "
                               "profile hardware from")
            self._hardware = hardware_profile(self.cluster)
        return self._hardware

    def baseline_for(self, template: str = "") -> float:
        """The template's calibrated baseline ratio (nan = not yet)."""
        return self._baselines.get(template, float("nan"))

    def observe_job(self, metrics, job_id: int, tenant: str, at: float,
                    template: str = "") -> DriftVerdict:
        """Score one completed job; returns (and retains) the verdict."""
        try:
            profiles = metrics.stage_profiles(job_id)
        except ModelError as exc:
            return self._retain(DriftVerdict(
                job_id=job_id, tenant=tenant, at=at, attributable=False,
                template=template, reason=f"NOT ATTRIBUTABLE: {exc}"))
        hardware = self._hardware_profile()
        measured = 0.0
        modeled = 0.0
        worst_id = -1
        worst_ratio = 0.0
        for profile in profiles:
            stage_model = model_stage(profile, hardware)
            ideal = stage_model.ideal_completion_s
            measured += profile.measured_duration_s
            modeled += ideal
            if ideal > 0:
                stage_ratio = profile.measured_duration_s / ideal
                if stage_ratio > worst_ratio:
                    worst_ratio = stage_ratio
                    worst_id = profile.stage_id
        if modeled <= 0:
            return self._retain(DriftVerdict(
                job_id=job_id, tenant=tenant, at=at, attributable=False,
                template=template, measured_s=measured,
                reason="NOT ATTRIBUTABLE: model predicts zero runtime"))
        ratio = measured / modeled
        baseline = self._baselines.get(template)
        if baseline is None:
            samples = self._calibration.setdefault(template, [])
            samples.append(ratio)
            if len(samples) >= BASELINE_SAMPLES:
                self._baselines[template] = percentile(samples, 50.0)
                del self._calibration[template]
            return self._retain(DriftVerdict(
                job_id=job_id, tenant=tenant, at=at, attributable=True,
                template=template, measured_s=measured,
                modeled_s=modeled, ratio=ratio,
                worst_stage_id=worst_id, worst_stage_ratio=worst_ratio))
        normalized = ratio / baseline
        drifting = (normalized > DRIFT_ENVELOPE
                    or normalized < 1.0 / DRIFT_ENVELOPE)
        reason = ""
        if drifting:
            direction = "above" if normalized > 1.0 else "below"
            reason = (f"job {job_id} runs at {normalized:.2f}x its "
                      f"template baseline, {direction} the "
                      f"{DRIFT_ENVELOPE:g}x envelope; worst stage "
                      f"{worst_id} at {worst_ratio:.2f}x the model")
        return self._retain(DriftVerdict(
            job_id=job_id, tenant=tenant, at=at, attributable=True,
            template=template, measured_s=measured, modeled_s=modeled,
            ratio=ratio, baseline=baseline, normalized=normalized,
            drifting=drifting, worst_stage_id=worst_id,
            worst_stage_ratio=worst_ratio, reason=reason))

    def _retain(self, verdict: DriftVerdict) -> DriftVerdict:
        self.verdicts.append(verdict)
        del self.verdicts[:-KEEP]
        return verdict

    # -- gauge feeds ---------------------------------------------------------------

    def drift_ratio(self) -> float:
        """Mean normalized ratio over recently *scored* verdicts."""
        recent = [v.normalized for v in self.verdicts[-WINDOW:]
                  if v.attributable and v.normalized == v.normalized]
        if not recent:
            return 1.0
        return sum(recent) / len(recent)

    def unattributable_count(self) -> int:
        """How many retained verdicts could not be modeled at all."""
        return sum(1 for v in self.verdicts if not v.attributable)
