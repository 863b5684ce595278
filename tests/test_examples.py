"""Smoke tests: the runnable examples actually run.

Only the fast examples run here (the sweep-style ones take minutes and
are exercised by the benchmarks instead).
"""

import runpy
import sys

import pytest

from repro.xray import Capsule


def run_example(name, capsys):
    runpy.run_module(f"examples.{name}", run_name="__main__")
    return capsys.readouterr().out


@pytest.fixture(autouse=True)
def examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(".")


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "monospark" in out
        assert "Monotask self-reports" in out

    def test_ml_pipeline(self, capsys):
        out = run_example("ml_pipeline", capsys)
        assert "iterations" in out
        assert "0 disk bytes" in out

    def test_bottleneck_debugging(self, capsys):
        out = run_example("bottleneck_debugging", capsys)
        assert "bottleneck = cpu" in out
        assert "execution timeline" in out

    def test_fault_recovery(self, capsys):
        out = run_example("fault_recovery", capsys)
        assert "fault-free run" in out
        assert "machine-crash" in out
        assert "lineage" in out

    def test_data_service(self, capsys):
        out = run_example("data_service", capsys)
        assert "disaggregated shuffle" in out
        assert "zero lineage losses" in out
        assert "integrity suspicions" in out
        assert "same answer, same bytes" in out

    def test_driver_failover(self, capsys):
        out = run_example("driver_failover", capsys)
        assert "won the election" in out
        assert "in-flight job(s) resumed" in out
        assert "0 lost" in out
        assert "lost requests into zero" in out

    def test_clarity_pipeline(self, capsys):
        out = run_example("clarity_pipeline", capsys)
        assert "bottleneck: disk" in out
        assert "recommend: " in out
        assert "NOT ATTRIBUTABLE" in out

    def test_gray_failure(self, capsys):
        out = run_example("gray_failure", capsys)
        assert "exclude" in out
        assert "network" in out
        assert "excluded at end: [1]" in out
        assert "cannot find the sick machine" in out

    def test_alerting(self, capsys):
        out = run_example("alerting", capsys)
        assert "slo-burn{tenant=analytics}" in out
        assert "source-slow{machine=1}" in out
        assert "the alert led the exclusion by" in out
        assert "the exemplar resolves to a real span" in out
        assert "0 outside the envelope" in out
        assert "CRITICAL alert/firing" in out
        assert "WARNING  fault/net-degradation machine 1" in out

    def test_serving(self, capsys):
        out = run_example("serving", capsys)
        assert "SLO report (spark" in out
        assert "SLO report (monospark" in out
        assert "Queueing attribution (monotask queue seconds)" in out

    def test_run_diff(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        out = run_example("run_diff", capsys)
        assert "why is B slower than A?" in out
        assert "#1 network" in out
        assert "machine 1" in out
        assert "NOT ATTRIBUTABLE" in out
        assert (tmp_path / "run-diff-clean.capsule").exists()
        assert (tmp_path / "run-diff-degraded.capsule").exists()

    def test_tracing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        out = run_example("tracing", capsys)
        assert "critical path: job 0" in out
        assert "dominant:" in out
        assert "NOT ATTRIBUTABLE" in out
        assert "# TYPE repro_resource_queue_depth gauge" in out
        assert (tmp_path / "tracing-monospark.json").exists()
        for engine in ("monospark", "spark"):
            capsule = Capsule.load(str(tmp_path / f"tracing-{engine}.capsule"))
            assert capsule.engine == engine and capsule.spans
