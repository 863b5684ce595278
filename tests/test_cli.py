"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


ALL_COMMANDS = ("sort", "bdb", "ml", "wordcount", "whatif", "diagnose",
                "trace", "faults", "serve", "clarity", "health",
                "datasvc", "controlplane", "obs", "xray", "reproduce")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("sort", "bdb", "ml", "wordcount", "whatif",
                        "diagnose", "trace"):
            args = parser.parse_args([command] if command != "bdb"
                                     else ["bdb", "--query", "1a"])
            assert args.command == command or command == "bdb"

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ALL_COMMANDS:
            assert command in out

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--engine", "flink"])

    def test_clarity_actions_parse(self):
        parser = build_parser()
        for action in ("report", "watch", "advise"):
            args = parser.parse_args(["clarity", action])
            assert args.action == action
        assert parser.parse_args(["clarity"]).action == "report"

    def test_clarity_bad_action_and_flag_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["clarity", "bogus"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["clarity", "report", "--bogus-flag"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_sort(self, capsys):
        code = main(["sort", "--machines", "2", "--fraction", "0.01",
                     "--tasks", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sort (monospark)" in out
        assert "stage" in out

    def test_bdb(self, capsys):
        code = main(["bdb", "--query", "1a", "--fraction", "0.01",
                     "--machines", "2"])
        assert code == 0
        assert "BDB query 1a" in capsys.readouterr().out

    def test_ml(self, capsys):
        code = main(["ml", "--machines", "3", "--iterations", "1"])
        assert code == 0
        assert "iteration 0" in capsys.readouterr().out

    def test_wordcount(self, capsys):
        code = main(["wordcount", "--machines", "2", "--fraction", "0.01"])
        assert code == 0
        assert "word count" in capsys.readouterr().out

    def test_whatif(self, capsys):
        code = main(["whatif", "--machines", "2", "--fraction", "0.01",
                     "--tasks", "32", "--new-disks", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured" in out
        assert "predicted" in out

    def test_diagnose_healthy_exits_zero(self, capsys):
        code = main(["diagnose", "--machines", "2", "--fraction", "0.01"])
        assert code == 0
        assert "slow disks: none" in capsys.readouterr().out

    def test_diagnose_degraded_exits_nonzero(self, capsys):
        code = main(["diagnose", "--machines", "4", "--fraction", "0.01",
                     "--degrade-machine", "1", "--disk-factor", "0.3"])
        assert code == 3
        assert "slow disks: [1]" in capsys.readouterr().out

    def test_serve(self, capsys):
        code = main(["serve", "--machines", "2", "--fraction", "0.01",
                     "--duration", "60", "--rate", "0.05",
                     "--batch-rate", "0.02", "--max-queued", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "interactive" in out
        assert "Queueing attribution" in out

    def test_clarity_report(self, capsys):
        code = main(["clarity", "report", "--machines", "2",
                     "--duration", "40", "--rate", "0.05",
                     "--sort-gb", "0.25", "--tasks", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "clarity window" in out
        assert "bottleneck:" in out

    def test_clarity_watch(self, capsys):
        code = main(["clarity", "watch", "--machines", "2",
                     "--duration", "40", "--rate", "0.05",
                     "--sort-gb", "0.25", "--tasks", "16",
                     "--interval", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("clarity window") >= 2
        assert "final clarity window" in out

    def test_clarity_advise(self, capsys):
        code = main(["clarity", "advise", "--machines", "2",
                     "--duration", "40", "--rate", "0.05",
                     "--sort-gb", "0.25", "--tasks", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity advisor" in out
        assert "recommend:" in out

    def test_clarity_advise_spark_exits_three(self, capsys):
        code = main(["clarity", "advise", "--engine", "spark",
                     "--machines", "2", "--duration", "40",
                     "--rate", "0.05", "--sort-gb", "0.25",
                     "--tasks", "16"])
        assert code == 3
        assert "NOT ATTRIBUTABLE" in capsys.readouterr().out

    def test_trace_records_capsule(self, tmp_path, capsys):
        from repro.xray import Capsule
        path = tmp_path / "trace.capsule"
        code = main(["trace", "--machines", "2", "--fraction", "0.01",
                     "--output", str(tmp_path / "trace.json"),
                     "--capsule", str(path)])
        assert code == 0
        capsule = Capsule.load(str(path))
        assert capsule.engine == "monospark"
        assert capsule.config["machines"] == 2
        (job_id,) = capsule.jobs
        assert capsule.critical_path_report(job_id).attributable
        assert f"links to {path}" in capsys.readouterr().out

    def test_obs_events_records_capsule(self, tmp_path, capsys, monkeypatch):
        import repro.obs
        from repro.xray import Capsule
        planes = []

        class Plane(repro.obs.ObservabilityPlane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                planes.append(self)

        monkeypatch.setattr(repro.obs, "ObservabilityPlane", Plane)
        path = tmp_path / "obs.capsule"
        assert main(["obs", "events", "--jobs", "6",
                     "--capsule", str(path)]) == 0
        (plane,) = planes
        capsule = Capsule.load(str(path))
        assert len(capsule.journal) == plane.journal.total > 0
        assert capsule.summary["total_completed"] == 6
        assert f"journal events to {path}" in capsys.readouterr().out

    def test_trace_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main(["trace", "--machines", "2", "--fraction", "0.01",
                     "--output", str(out_path), "--timeline"])
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["traceEvents"]
        assert "wrote" in capsys.readouterr().out

    def test_xray_record_rejects_unknown_degrade_machine(self, tmp_path,
                                                         capsys):
        path = tmp_path / "bad.capsule"
        code = main(["xray", "record", str(path), "--machines", "4",
                     "--degrade-machine", "7"])
        assert code == 2
        assert "--degrade-machine must be in [0, 4)" in \
            capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
