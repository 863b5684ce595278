"""The control plane's frozen settings: dispatch cost and feature gates.

Mirrors :class:`repro.health.HealthPolicy`: every setting is validated
at construction so a misconfigured plane fails loudly before the
simulation starts, and the policy object is immutable so mid-run state
cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ControlPlanePolicy"]


@dataclass(frozen=True)
class ControlPlanePolicy:
    """Settings for a sharded multi-driver control plane.

    * ``control_service_s`` -- seconds of sequential driver work each
      dispatch costs; this serialization is exactly what sharding
      tenants across replicas parallelizes.
    * ``failover`` -- feature gate: with ``failover=True`` every
      replica checkpoints its shard and the leader adopts a dead
      driver's tenants from those checkpoints; with ``failover=False``
      nothing is checkpointed and a dead driver's requests are lost.

    The heartbeat interval and timeout, the checkpoint sweep interval
    and the checkpoint store's size are fixed constants in
    :mod:`repro.controlplane.plane`; the ring's virtual points per
    member are :data:`repro.controlplane.ring.VNODES`.
    """

    control_service_s: float = 0.005
    failover: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.control_service_s)
                and self.control_service_s >= 0):
            raise ConfigError(f"control_service_s must be finite and >= 0: "
                              f"{self.control_service_s!r}")
