"""Tests of the benchmark itself (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import bisect
import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.api.plan import DfsOutput
from repro.workloads import QUERIES, run_query, run_sort, sort_boundaries
from repro.workloads.bigdata import Q1_SELECTIVITY

from layers import LAYERS, OTHER, SRC, fold, layer_of
from run import (END_TO_END, ROOT, WORKLOAD_NAMES, contract_line,
                 load_spec, per_layer_metrics)
from workloads import WHY, WORKLOADS, bdb_setup, build, shuffle_setup
from compare import verdict

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_every_module_maps_to_one_layer():
    paths = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    assert paths
    unmapped = [p for p in paths if layer_of(p) not in LAYERS]
    assert unmapped == []


def test_files_outside_repro_have_no_layer():
    assert layer_of(os.path.abspath(__file__)) is None
    assert layer_of(json.__file__) is None
    assert layer_of("~") is None


def test_metric_names_match_benchmark_json():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer_metrics()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)


def _func(module: str, name: str):
    return (os.path.join(SRC, *module.split("/")) + ".py", 1, name)


def test_fold_charges_builtin_time_to_the_calling_layer():
    core = _func("simulator/core", "step")
    net = _func("simulator/network", "rates")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/functools.py", 10, "wrapper")
    glue = ("/elsewhere/glue.py", 1, "main")
    stats = {
        # func: (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})
        glue: (1, 1, 0.5, 10.0, {}),
        core: (5, 5, 2.0, 6.0, {glue: (5, 5, 2.0, 6.0)}),
        net: (7, 7, 1.0, 3.0, {glue: (7, 7, 1.0, 3.0)}),
        # 3 s of builtin self time: 1 s called from core, 2 s from net.
        heappush: (9, 9, 3.0, 3.0, {core: (3, 3, 1.0, 1.0),
                                    net: (6, 6, 2.0, 2.0)}),
        # A stdlib function called from both layers: its 0.4 s splits
        # 3:1 core:net by per-caller self time.
        helper: (4, 4, 0.4, 0.4, {core: (3, 3, 0.3, 0.3),
                                  net: (1, 1, 0.1, 0.1)}),
    }
    self_s, calls = fold(stats)
    assert self_s["simulator.core"] == pytest.approx(2.0 + 1.0 + 0.3)
    assert self_s["simulator.network"] == pytest.approx(1.0 + 2.0 + 0.1)
    assert self_s[OTHER] == pytest.approx(0.5)
    assert calls["simulator.core"] == 5
    assert calls["simulator.network"] == 7
    assert sum(self_s.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))


def test_fold_walks_up_through_stdlib_callers():
    api = _func("api/rdd", "collect")
    middle = ("/usr/lib/python3/copy.py", 5, "deepcopy")
    leaf = ("~", 0, "<built-in method builtins.id>")
    stats = {
        api: (1, 1, 0.0, 2.0, {}),
        middle: (2, 2, 0.0, 2.0, {api: (2, 2, 0.0, 2.0)}),
        leaf: (50, 50, 2.0, 2.0, {middle: (50, 50, 2.0, 2.0)}),
    }
    self_s, _ = fold(stats)
    assert self_s["api"] == pytest.approx(2.0)
    assert self_s[OTHER] == pytest.approx(0.0)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_runs_tiny_and_passes_checks(name, tmp_path):
    outcome = build(name, seed=1, scale=0.05, workdir=str(tmp_path))()
    assert outcome.failures == []
    assert outcome.failed == 0
    assert outcome.submitted >= 1
    assert outcome.completed == outcome.submitted
    assert outcome.counters["simulator.core.events"] > 0
    assert os.listdir(tmp_path) == []


@pytest.fixture
def keep_outputs(monkeypatch):
    """Make every DFS output keep its sample records, so a test can read
    them (``run_sort`` and ``run_query`` save timing-only output)."""
    init = DfsOutput.__init__

    def keeping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.keep_payload = True

    monkeypatch.setattr(DfsOutput, "__init__", keeping)


def _records(ctx, name):
    return [block.payload.records
            for block in ctx.cluster.dfs.get_file(name).blocks]


def test_shuffle_bulk_output_is_the_sorted_input(keep_outputs):
    ctx, workload = shuffle_setup(seed=1, scale=0.05)
    run_sort(ctx, workload)
    boundaries = sort_boundaries(workload)
    ranges = []
    for records in _records(ctx, "sort-output"):
        keys = [key for key, _ in records]
        assert keys == sorted(keys)
        # The range partitioner sends a key equal to a boundary down.
        owners = {bisect.bisect_left(boundaries, key) for key in keys}
        assert len(owners) <= 1
        ranges.extend(owners)
    assert len(set(ranges)) == len(ranges)
    output_keys = [key for records in _records(ctx, "sort-output")
                   for key, _ in records]
    input_keys = [key for records in _records(ctx, "sort-input")
                  for key, _ in records]
    assert output_keys and sorted(output_keys) == sorted(input_keys)


def test_bdb_spark_query_results(keep_outputs):
    ctx, tables = bdb_setup(seed=1, scale=0.05)
    for query in QUERIES:
        run_query(ctx, query, tables)
    for query, selectivity in Q1_SELECTIVITY.items():
        cutoff = int(10000 * (1 - selectivity))
        rows = [row for records in _records(ctx, f"bdb-out-{query}")
                for row in records]
        assert rows and all(row[1][0] > cutoff for row in rows)
    links = sum(len(doc[1]) for records in _records(ctx, "documents")
                for doc in records)
    counted = sum(count for records in _records(ctx, "bdb-out-4")
                  for _, count in records)
    assert counted == links


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(base, base, 0.1)["verdict"] == "unchanged"
    faster = [v * 0.8 for v in base]
    assert verdict(base, faster, 0.1)["verdict"] == "improved"
    slower = [v * 1.2 for v in base]
    assert verdict(base, slower, 0.1)["verdict"] == "worse"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert verdict(base, noisy, 0.1)["verdict"] == "unresolved"
    assert verdict([0.0], [0.1], 0.0)["verdict"] == "worse"
    # Too few repeats to call an improvement, though B wins every pair.
    assert verdict(base[:5], faster[:5], 0.1)["verdict"] == "unchanged"


def test_contract_line_reports_every_end_to_end_metric():
    result = {"workload": "serve-bare", "correct": True, "attempted": 4,
              "failed": 0,
              "metrics": {name: {"median": 1.5} for name, _ in END_TO_END},
              "counters": {}}
    line = contract_line([result], trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {name for name, _ in END_TO_END}
    traced = contract_line([result], trace=True)
    assert set(traced["metrics"]) == {n for n, _, _ in per_layer_metrics()}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve-bare",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
