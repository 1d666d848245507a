"""CLI over the declarative API: specs in, uniform JSON out, exit codes."""

import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec
from repro.cli import build_parser, main

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"


def write_spec(tmp_path, data: dict):
    path = tmp_path / "spec.json"
    path.write_text(ExperimentSpec.from_dict(data).to_json())
    return path


class TestRunCommand:
    @pytest.mark.parametrize(
        "workload",
        ["energy", "latency", "area", "power", "fps_sweep", "node_sweep"],
    )
    def test_hardware_workload_emits_json(self, workload, capsys, tmp_path):
        spec_path = write_spec(tmp_path, {"workload": workload})
        out_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json", str(out_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 3
        data = json.loads(out_path.read_text())
        assert data["workload"] == workload
        assert data["provenance"]["spec_hash"]
        assert data["metrics"]

    def test_fps_field_reaches_output(self, capsys, tmp_path):
        spec_path = write_spec(
            tmp_path, {"workload": "energy", "execution": {"fps": 60}}
        )
        out_path = tmp_path / "out.json"
        assert main(["run", str(spec_path), "--json", str(out_path)]) == 0
        assert "60" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        assert data["metrics"]["fps"] == 60.0
        assert data["provenance"]["spec"]["execution"]["fps"] == 60.0

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
        for workers in ("-2", "0"):
            assert main(["run", str(spec_path), "--workers", workers]) == 2
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

    @pytest.mark.parametrize(
        "path", sorted(SPECS.glob("*.json")), ids=lambda path: path.stem
    )
    def test_shipped_spec_is_valid(self, path):
        spec = ExperimentSpec.from_file(path)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_serve_spec_is_the_scenario_ci_serves(self):
        # The spec `repro serve --clients 4 --ticks 8` built before the
        # CLI kept only `run`: the same hash is the same run.
        spec = ExperimentSpec.from_file(SPECS / "serve.json")
        assert spec.spec_hash() == "b983f0b6909ed148"


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

    @pytest.mark.parametrize(
        "command",
        ["quickstart", "serve", "energy", "latency", "area", "power",
         "sweep-fps", "sweep-node"],
    )
    def test_retired_commands_rejected(self, command, capsys):
        # Their settings are spec fields now; `run` is the one way in.
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_commands_are_run_lint_store_trace(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "{run,lint,store,trace}" in capsys.readouterr().out
