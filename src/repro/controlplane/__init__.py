"""Sharded multi-driver control plane (``repro.controlplane``).

There is one serving loop, in two configurations.  A
:class:`~repro.serve.server.JobServer` runs it with one
:class:`~repro.serve.replica.DriverReplica` and zero control cost; that
single driver is both a throughput ceiling (every dispatch serializes
through one admission loop) and a single point of failure.
:class:`ControlPlane` subclasses the job server to run N driver
replicas over one engine: a consistent-hash ring shards
tenants across replicas, heartbeat membership and bully leader
election keep the replica set coherent, and per-tenant checkpoints on
a dedicated metadata data-service tier let a surviving replica adopt a
dead driver's shard -- resuming its in-flight jobs through the
engine's attempt-tracked task pool instead of failing them.  See
``docs/controlplane.md``.
"""

from repro.controlplane.checkpoint import (CheckpointStore, decode_state,
                                           encode_state)
from repro.controlplane.plane import ControlPlane
from repro.controlplane.policy import ControlPlanePolicy
from repro.controlplane.report import ControlPlaneReport, FailoverSummary
from repro.controlplane.ring import HashRing
from repro.serve.replica import DriverReplica

__all__ = [
    "CheckpointStore",
    "ControlPlane",
    "ControlPlanePolicy",
    "ControlPlaneReport",
    "DriverReplica",
    "FailoverSummary",
    "HashRing",
    "decode_state",
    "encode_state",
]
