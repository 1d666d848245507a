"""CLI over the declarative API: specs in, uniform JSON out, exit codes."""

import json

import pytest

from repro.api import ExperimentSpec
from repro.cli import build_parser, main


class TestSpecBuilders:
    @pytest.mark.parametrize(
        "command, workload",
        [
            ("energy", "energy"),
            ("latency", "latency"),
            ("area", "area"),
            ("power", "power"),
            ("sweep-fps", "fps_sweep"),
            ("sweep-node", "node_sweep"),
        ],
    )
    def test_hardware_commands_emit_json(
        self, command, workload, capsys, tmp_path
    ):
        out_path = tmp_path / "out.json"
        assert main([command, "--json", str(out_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 3
        data = json.loads(out_path.read_text())
        assert data["workload"] == workload
        assert data["provenance"]["spec_hash"]
        assert data["metrics"]

    def test_fps_flag_reaches_spec_and_output(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        assert main(["energy", "--fps", "60", "--json", str(out_path)]) == 0
        assert "60" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["metrics"]["fps"] == 60.0
        assert data["provenance"]["spec"]["execution"]["fps"] == 60.0


class TestRunCommand:
    def test_run_executes_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "area"}).to_json()
        )
        out_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json", str(out_path)]) == 0
        assert "TOTAL" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["workload"] == "area"

    def test_workers_override_recorded(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "power"}).to_json()
        )
        out_path = tmp_path / "out.json"
        assert main(
            ["run", str(spec_path), "--workers", "2", "--json", str(out_path)]
        ) == 0
        data = json.loads(out_path.read_text())
        assert data["provenance"]["workers"] == 2

    def test_invalid_workers_override_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            ExperimentSpec.from_dict({"workload": "area"}).to_json()
        )
        assert main(["run", str(spec_path), "--workers", "-2"]) == 2
        assert "execution.workers" in capsys.readouterr().err

    def test_spec_naming_a_backend_exits_2(self, capsys, tmp_path):
        # execution.backend and --backend are gone; a spec file that
        # still sets the field fails validation, naming it.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            '{"workload": "area", "execution": {"backend": "process_pool"}}'
        )
        assert main(["run", str(spec_path)]) == 2
        assert "execution.backend" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "spec error" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"workload": "bogus"}')
        assert main(["run", str(spec_path)]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_field_exits_2_with_field_name(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"execution": {"workerz": 2}}')
        assert main(["run", str(spec_path)]) == 2
        assert "execution.workerz" in capsys.readouterr().err

    def test_shipped_quickstart_spec_is_valid(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "specs"
            / "quickstart.json"
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.workload == "evaluate"


class TestServeCommand:
    def test_serve_flags_reach_spec(self):
        from repro.cli import _SPEC_BUILDERS

        args = build_parser().parse_args(
            [
                "serve",
                "--clients", "6",
                "--ticks", "9",
                "--arrival", "poisson",
                "--deadline-policy", "best_effort",
                "--max-batch", "3",
            ]
        )
        spec = _SPEC_BUILDERS["serve"](args)
        serve = spec.execution.serve
        assert spec.workload == "serve"
        assert serve.num_clients == 6
        assert serve.duration_ticks == 9
        assert serve.arrival == "poisson"
        assert serve.deadline_policy == "best_effort"
        assert serve.max_batch == 3

    def test_serve_defaults_leave_batch_unbounded(self):
        from repro.cli import _SPEC_BUILDERS

        args = build_parser().parse_args(["serve"])
        spec = _SPEC_BUILDERS["serve"](args)
        assert spec.execution.serve.max_batch is None
        assert args.workers == 0

    def test_bad_arrival_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "bursty"])


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_run_requires_spec_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
