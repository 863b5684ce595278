"""The one rule every committed BENCH_*.json trajectory is checked by."""

import glob
import hashlib
import json
import os
import re
from dataclasses import replace

import pytest

from repro.kernelbench import WORKLOAD, _run_once
from repro.trajectory import (REGISTRY, Bench, check, load,
                              repeat_deterministic)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _floor_gate(result):
    rate, floor = result["current"]["rate"], result["floor"]
    return [f"rate {rate} below floor {floor}"] if rate < floor else []


DEMO = Bench("demo", run=None, timing=("current",), gate=_floor_gate)

COMMITTED = {
    "benchmark": "demo",
    "repeats": 2,
    "floor": 10.0,
    "workload": {"seed": 0, "tenant": "analytics", "counts": [1, 2, 4]},
    "invariants": {"jobs": 12, "ok": True, "note": None, "empty": {}},
    "current": {"rate": 50.0},
}


def _result(**changes):
    result = json.loads(json.dumps(COMMITTED))
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = result
        for key in parents:
            node = node[key]
        node[leaf] = value
    return result


class TestCheck:
    def test_identical_result_passes(self):
        assert check(DEMO, _result(), COMMITTED) == []

    def test_drifted_number_fails(self):
        failures = check(DEMO, _result(**{"invariants.jobs": 13}), COMMITTED)
        assert failures == ["$.invariants.jobs: committed 12 vs current 13"]

    def test_int_and_float_are_not_the_same_leaf(self):
        assert check(DEMO, _result(**{"invariants.jobs": 12.0}), COMMITTED)

    def test_drifted_string_fails(self):
        assert check(DEMO, _result(**{"workload.tenant": "batch"}),
                     COMMITTED)

    def test_drifted_bool_fails(self):
        assert check(DEMO, _result(**{"invariants.ok": 1}), COMMITTED)

    def test_missing_key_fails(self):
        result = _result()
        del result["invariants"]["note"]
        assert check(DEMO, result, COMMITTED) == [
            "$.invariants.note: committed null vs current <missing>"]

    def test_missing_empty_container_fails(self):
        result = _result()
        del result["invariants"]["empty"]
        assert check(DEMO, result, COMMITTED)

    def test_extra_key_fails(self):
        assert check(DEMO, _result(**{"invariants.extra": 0}), COMMITTED)

    def test_timing_and_repeats_are_not_diffed(self):
        result = _result(**{"current.rate": 99.0, "repeats": 5})
        assert check(DEMO, result, COMMITTED) == []

    def test_tuple_equals_list(self):
        result = _result(**{"workload.counts": (1, 2, 4)})
        assert check(DEMO, result, COMMITTED) == []

    def test_floor_breach_fails_with_or_without_committed(self):
        result = _result(**{"current.rate": 9.0})
        assert check(DEMO, result, COMMITTED) == [
            "rate 9.0 below floor 10.0"]
        assert check(DEMO, result) == ["rate 9.0 below floor 10.0"]

    def test_no_committed_copy_skips_the_diff(self):
        assert check(DEMO, _result(**{"invariants.jobs": 0})) == []


class TestRepeatDeterministic:
    def test_keeps_the_smallest_timing(self):
        timings = iter([3.0, 1.0, 2.0])
        invariants, best = repeat_deterministic(
            lambda: ({"jobs": 1}, next(timings)), 3)
        assert invariants == {"jobs": 1} and best == 1.0

    def test_runs_at_least_once(self):
        calls = []
        repeat_deterministic(lambda: (calls.append(1) or {}, None), 0)
        assert calls == [1]

    def test_drift_raises(self):
        runs = iter([{"jobs": 1}, {"jobs": 2}])
        with pytest.raises(AssertionError, match="non-deterministic"):
            repeat_deterministic(lambda: (next(runs), None), 2)


class TestRegistry:
    def test_registry_files_and_ci_matrix_agree(self):
        committed = {os.path.basename(path)[len("BENCH_"):-len(".json")]
                     for path in glob.glob(os.path.join(ROOT, "BENCH_*.json"))}
        with open(os.path.join(ROOT, ".github", "workflows",
                               "ci.yml")) as handle:
            line = re.search(r"^ +bench: \[(.*)\]$", handle.read(), re.M)
        matrix = {name.strip() for name in line.group(1).split(",")}
        assert set(REGISTRY) == committed == matrix

    def test_every_entry_exports_its_bench(self):
        for name in REGISTRY:
            bench = load(name)
            assert bench.name == name
            assert callable(bench.run)

    @pytest.mark.parametrize("name, path, value", [
        ("kernel", "current.monotasks_per_s", 1.0),
        ("obs", "observed_overhead.ms_per_sim_s", 50.5),
        ("clarity", "ranking_matches", False),
        ("clarity", "max_error_p95", 0.31),
    ])
    def test_registered_gates_fail_on_a_breach(self, name, path, value):
        bench = load(name)
        with open(os.path.join(ROOT, f"BENCH_{name}.json")) as handle:
            committed = json.load(handle)
        assert check(bench, committed, committed) == []
        section, _, key = path.rpartition(".")
        breached = json.loads(json.dumps(committed))
        (breached[section] if section else breached)[key] = value
        assert check(bench, breached) != []

    @pytest.mark.parametrize("name", ["obs", "xray", "datasvc"])
    def test_fast_benches_match_committed(self, name):
        bench = load(name)
        with open(os.path.join(ROOT, f"BENCH_{name}.json")) as handle:
            committed = json.load(handle)
        assert check(bench, bench.run(1, committed), committed) == []

    def test_kernel_stream_at_a_short_horizon(self):
        # The kernel bench's stream over 120 simulated seconds: its
        # invariants pin the stream on every interpreter CI runs.
        invariants, _ = _run_once(replace(WORKLOAD, duration_s=120.0))
        assert invariants == {
            "jobs": 54, "monotasks": 7776, "events_scheduled": 51200,
            "sim_time_s": 141.4392, "telemetry_points": 3630}

    def test_committed_clean_capsule_matches_bench_xray(self):
        with open(os.path.join(ROOT, "benchmarks", "results",
                               "xray_clean.capsule"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        with open(os.path.join(ROOT, "BENCH_xray.json")) as handle:
            committed = json.load(handle)
        assert digest == committed["invariants"]["capsules"]["clean"]["sha256"]
