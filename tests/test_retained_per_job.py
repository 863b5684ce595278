"""Smoke test of ``scripts/retained_per_job.py`` at a small horizon."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "retained_per_job.py")


def load_script():
    spec = importlib.util.spec_from_file_location("retained_per_job",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_small_horizons():
    script = load_script()
    scales = (0.05, 0.1)
    extra, growth = script.per_job("serve-bare", scales)
    assert extra == 12
    assert sum(growth.values()) > 0
    report = script.format_report("serve-bare", extra, growth, scales)
    lines = report.splitlines()
    assert lines[0] == ("serve-bare: retained KiB per extra job "
                        "(12 extra jobs, scales 0.05 and 0.1, seed 0)")
    assert lines[-1].split() == [f"{sum(growth.values()):.2f}", "total"]
    # The monotask reports are retained as table columns.
    assert any(line.split()[1].startswith("metrics/table.py:")
               for line in lines[1:-1])


def test_unknown_workload_is_a_usage_error(capsys):
    assert load_script().main(["no-such-workload"]) == 2
    assert "usage" in capsys.readouterr().err
