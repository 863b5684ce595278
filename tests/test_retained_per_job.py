"""Smoke test of ``scripts/retained_per_job.py`` at a small horizon."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "retained_per_job.py")


def source_line(site):
    """The source line a ``repro/...:N`` site names ("" if none)."""
    filename, lineno = site.rsplit(":", 1)
    path = os.path.join(ROOT, "src", "repro", filename)
    if not os.path.exists(path):
        return ""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return lines[int(lineno) - 1]


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
    # The monotask reports and links are retained as table columns:
    # no listed site builds a SpanLink.
    sites = [line.split()[1] for line in lines[1:-1]]
    assert any(site.startswith("metrics/table.py:") for site in sites)
    assert not [site for site in sites if "SpanLink(" in source_line(site)]


def test_unknown_workload_is_a_usage_error(capsys):
    assert load_script().main(["no-such-workload"]) == 2
    assert "usage" in capsys.readouterr().err
