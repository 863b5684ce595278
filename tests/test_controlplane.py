"""The sharded multi-driver control plane: ring, membership, failover.

Covers the hash ring's determinism and churn-stability properties, the
policy/recovery validation surfaces, duplicate-tenant regression on
both serving front-ends, crash/partition failure semantics (zero lost
with checkpointed failover, lost accounting without), and the report's
rendering.
"""

import random

import pytest

from repro.api.context import AnalyticsContext
from repro.cluster import hdd_cluster
from repro.controlplane import (ControlPlane, ControlPlanePolicy, HashRing,
                                decode_state, encode_state)
from repro.errors import ConfigError, SimulationError
from repro.faults import (DriverCrash, DriverPartition, FaultInjector,
                          FaultPlan, RecoveryPolicy)
from repro.serve import JobServer, PoissonArrivals, wordcount_template


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------

class TestHashRing:
    def test_assignment_is_deterministic(self):
        a, b = HashRing(), HashRing()
        for member in range(4):
            a.add(member)
            b.add(member)
        keys = [f"tenant{i}" for i in range(50)]
        assert a.assignment(keys) == b.assignment(keys)

    def test_duplicate_join_rejected(self):
        ring = HashRing()
        ring.add(0)
        with pytest.raises(SimulationError):
            ring.add(0)

    def test_unknown_leave_rejected(self):
        ring = HashRing()
        with pytest.raises(SimulationError):
            ring.remove(3)

    def test_empty_ring_cannot_assign(self):
        with pytest.raises(SimulationError):
            HashRing().assign("tenant")

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_churn_stability(self, seed):
        # Removing one member moves only the keys that member owned;
        # re-adding it restores the original assignment exactly.
        rng = random.Random(seed)
        members = list(range(5))
        ring = HashRing()
        for member in members:
            ring.add(member)
        keys = [f"key-{seed}-{rng.randrange(10 ** 6)}" for _ in range(200)]
        before = ring.assignment(keys)
        victim = rng.choice(members)
        ring.remove(victim)
        after = ring.assignment(keys)
        for key in keys:
            if before[key] != victim:
                assert after[key] == before[key]
            else:
                assert after[key] != victim
        ring.add(victim)
        assert ring.assignment(keys) == before

    def test_load_spreads_across_members(self):
        ring = HashRing()
        for member in range(4):
            ring.add(member)
        owners = set(ring.assignment(
            [f"tenant{i}" for i in range(64)]).values())
        assert owners == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Policy validation
# ---------------------------------------------------------------------------

class TestControlPlanePolicy:
    def test_defaults_valid(self):
        policy = ControlPlanePolicy()
        assert policy.failover

    @pytest.mark.parametrize("kwargs", [
        {"control_service_s": -0.1},
        {"control_service_s": float("nan")},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ControlPlanePolicy(**kwargs)


class TestRecoveryPolicyValidation:
    """The validated backoff cap on the fault-recovery policy."""

    @pytest.mark.parametrize("kwargs", [
        {"backoff_max_s": float("nan")},
        {"backoff_max_s": float("inf")},
        {"backoff_max_s": 0.0},
        {"backoff_max_s": -1.0},
        {"backoff_base_s": float("nan")},
        {"backoff_base_s": -0.5},
        {"backoff_factor": 0.5},
        {"backoff_factor": float("inf")},
        {"speculation_interval_s": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RecoveryPolicy(**kwargs)

    def test_backoff_capped_without_overflow(self):
        policy = RecoveryPolicy(backoff_base_s=0.5, backoff_factor=2.0,
                                backoff_max_s=10.0)
        assert policy.backoff_s(1) == 0.5
        assert policy.backoff_s(3) == 2.0
        # An attempt count that would overflow 2**n as a float must
        # still return exactly the cap.
        assert policy.backoff_s(10_000) == 10.0


# ---------------------------------------------------------------------------
# Checkpoint codec
# ---------------------------------------------------------------------------

class TestCheckpointCodec:
    def test_round_trip(self):
        state = {"tenant": "t", "queued": [3, 1], "virtual_time": 1.25,
                 "inflight": [[7, 2, 0.5]]}
        assert decode_state(encode_state(state)) == state

    def test_encoding_is_canonical(self):
        a = encode_state({"b": 1, "a": 2})
        b = encode_state({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'


# ---------------------------------------------------------------------------
# Duplicate-tenant regression (both serving front-ends)
# ---------------------------------------------------------------------------

def make_plane(num_drivers=2, tenants=4, rate=0.5, horizon=30.0,
               failover=True, seed=2):
    cluster = hdd_cluster(num_machines=4, seed=seed)
    ctx = AnalyticsContext(cluster, engine="monospark")
    policy = ControlPlanePolicy(control_service_s=0.05, failover=failover)
    plane = ControlPlane(ctx, num_drivers=num_drivers, config=policy,
                         seed=seed)
    template = wordcount_template(ctx, num_blocks=2, block_mb=4.0)
    for i in range(tenants):
        plane.add_workload(f"tenant{i}", template,
                           PoissonArrivals(rate, horizon_s=horizon))
    return ctx, plane


class TestDuplicateTenant:
    def test_jobserver_rejects_duplicate(self):
        cluster = hdd_cluster(num_machines=2, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        server = JobServer(ctx)
        server.add_tenant("t")
        with pytest.raises(SimulationError):
            server.add_tenant("t")

    def test_controlplane_rejects_duplicate(self):
        cluster = hdd_cluster(num_machines=2, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        plane = ControlPlane(ctx, num_drivers=2)
        plane.add_tenant("t")
        with pytest.raises(SimulationError):
            plane.add_tenant("t")


# ---------------------------------------------------------------------------
# Crash failover
# ---------------------------------------------------------------------------

class TestCrashFailover:
    def test_leader_crash_loses_nothing(self):
        # Crash the initial leader (highest id) mid-run: the survivor
        # must win the election, adopt every tenant from checkpoints,
        # resume the in-flight jobs, and lose zero requests.
        ctx, plane = make_plane(num_drivers=2, horizon=40.0)
        plan = FaultPlan([DriverCrash(at=20.0, driver_id=1)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        assert report.jobs_lost == 0
        assert report.leader_id == 0
        assert report.counters["elections"] == 1
        assert report.counters["jobs_resumed"] >= 1
        assert report.counters["checkpoint_restores"] >= 1
        assert set(report.assignment.values()) == {0}
        assert len(report.failovers) == 1
        summary = report.failovers[0]
        assert summary.dead_driver == 1
        assert summary.lost == 0
        kinds = {e.kind for e in report.events}
        assert {"driver-crash", "heartbeat-miss", "election", "leader",
                "reassign", "checkpoint-restore"} <= kinds

    def test_crash_without_failover_loses_requests(self):
        ctx, plane = make_plane(num_drivers=2, horizon=40.0,
                                failover=False)
        plan = FaultPlan([DriverCrash(at=20.0, driver_id=1)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        assert report.jobs_lost > 0
        assert report.counters["jobs_resumed"] == 0
        assert report.counters["tenants_reassigned"] == 0
        # The SLO report only grows a "lost" column when something was
        # actually lost.
        assert "lost" in report.serve.format()
        stats = {s.tenant: s for s in report.serve.stats}
        assert sum(s.lost for s in stats.values()) == report.jobs_lost

    def test_crashed_driver_restart_rejoins(self):
        ctx, plane = make_plane(num_drivers=2, horizon=40.0)
        plan = FaultPlan([DriverCrash(at=15.0, driver_id=0,
                                      restart_after=10.0)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        assert report.jobs_lost == 0
        kinds = {e.kind for e in report.events}
        assert "driver-restart" in kinds
        assert plane.drivers[0].incarnation == 1
        # Shards are sticky: the restarted driver serves only what the
        # ring gives it afterwards; nothing was lost either way.
        assert report.counters["tenants_reassigned"] >= 1

    def test_drain_leaves_only_checkpoint_writes_pending(self):
        ctx, plane = make_plane(num_drivers=2, horizon=40.0)
        plan = FaultPlan([DriverCrash(at=20.0, driver_id=1)])
        FaultInjector(ctx.engine, plan).start()
        plane.run()
        assert len(plane._services) == 2
        assert not any(service.is_alive for service in plane._services)
        env = ctx.engine.env
        waiting = [callback.__self__._generator.gi_code.co_name
                   for _, _, event in list(env._heap) + list(env._immediate)
                   for callback in event.callbacks]
        assert set(waiting) <= {"_write_checkpoint"}

    def test_single_driver_plane_serves(self):
        ctx, plane = make_plane(num_drivers=1, tenants=2, horizon=15.0)
        report = plane.run()
        assert report.jobs_lost == 0
        assert report.total_completed > 0
        assert report.counters["elections"] == 0


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

class TestPartition:
    def test_partition_isolates_then_heals(self):
        # The partitioned driver loses its witness lease, quiesces
        # (isolated), its shard fails over, and on heal it rejoins
        # without double-completing anything.
        ctx, plane = make_plane(num_drivers=2, horizon=40.0)
        plan = FaultPlan([DriverPartition(at=15.0, driver_id=0,
                                          heal_after=15.0)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        assert report.jobs_lost == 0
        kinds = {e.kind for e in report.events}
        assert {"driver-partition", "isolated", "partition-heal"} <= kinds
        completed = sum(d["completed"] for d in report.per_driver)
        assert completed == report.total_completed

    def test_mass_crash_survivor_keeps_serving(self):
        # All peers dead is NOT a partition: the survivor still holds
        # its witness lease, so it must elect itself and adopt every
        # shard rather than quiescing.
        ctx, plane = make_plane(num_drivers=3, horizon=30.0)
        plan = FaultPlan([DriverCrash(at=10.0, driver_id=1),
                          DriverCrash(at=10.0, driver_id=2)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        assert report.jobs_lost == 0
        assert report.leader_id == 0
        assert set(report.assignment.values()) == {0}
        assert "isolated" not in {e.kind for e in report.events}


# ---------------------------------------------------------------------------
# Report / lifecycle
# ---------------------------------------------------------------------------

class TestReport:
    def test_format_sections(self):
        ctx, plane = make_plane(num_drivers=2, tenants=2, horizon=15.0)
        plan = FaultPlan([DriverCrash(at=8.0, driver_id=1)])
        FaultInjector(ctx.engine, plan).start()
        report = plane.run()
        text = report.format()
        assert "SLO report (monospark" in text
        assert "Control plane (2 drivers" in text
        assert "Control-plane counters" in text
        assert "Failover timeline" in text
        assert "Driver event timeline" in text

    def test_plane_runs_once(self):
        ctx, plane = make_plane(num_drivers=1, tenants=1, horizon=5.0,
                                rate=0.2)
        plane.run()
        with pytest.raises(SimulationError):
            plane.run()

    def test_submit_after_run_rejected(self):
        ctx, plane = make_plane(num_drivers=2, tenants=1, horizon=5.0,
                                rate=0.2)
        template = wordcount_template(ctx, num_blocks=2, block_mb=4.0,
                                      name="late")
        plane.run()
        with pytest.raises(SimulationError):
            plane.submit(template, tenant="tenant0")

    def test_timers_exit_after_drain(self):
        # Membership and the checkpoint sweep are cancelled as run()
        # returns, with no extra env.run(); a later one drains the queue.
        ctx, plane = make_plane(num_drivers=2, tenants=2, horizon=10.0)
        plane.run()
        assert len(plane._services) == 2
        assert not any(service.is_alive for service in plane._services)
        env = ctx.engine.env
        env.run(until=env.now + 100.0)
        assert env.queue_size == 0

    def test_num_drivers_validated(self):
        cluster = hdd_cluster(num_machines=2, seed=0)
        ctx = AnalyticsContext(cluster, engine="monospark")
        with pytest.raises(ConfigError):
            ControlPlane(ctx, num_drivers=0)
