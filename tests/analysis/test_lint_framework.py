"""Framework behaviour: suppressions, JSON record, exit codes.

Rule *semantics* live in ``test_lint_rules.py``; this module pins the
machinery every rule rides on — waiver placement and the mandatory
reason, the versioned ``--json`` shape, and the CLI's documented 0/1/2
exit-code convention.
"""

import json

import pytest

from repro.analysis.lint import (
    LintUsageError,
    collect_files,
    collect_suppressions,
    lint_source,
    run_lint,
)
from repro.analysis.lint import main as lint_main
from repro.analysis.lint.findings import JSON_VERSION
from repro.cli import main as cli_main

NAKED = "import numpy as np\nx = np.random.rand()\n"
CLEAN = "def f(x):\n    return x + 1\n"


def write_module(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestSuppressions:
    def test_trailing_comment_waives_own_line(self):
        code = (
            "import numpy as np\n"
            "x = np.random.rand()  # repro: allow[REP101] fixture noise\n"
        )
        assert lint_source(code) == []

    def test_standalone_comment_waives_next_line(self):
        code = (
            "import numpy as np\n"
            "# repro: allow[REP101] fixture noise\n"
            "x = np.random.rand()\n"
        )
        assert lint_source(code) == []

    def test_waiver_does_not_leak_to_other_lines(self):
        code = (
            "import numpy as np\n"
            "x = np.random.rand()  # repro: allow[REP101] here only\n"
            "y = np.random.rand()\n"
        )
        found = lint_source(code)
        assert [f.rule for f in found] == ["REP101"]
        assert found[0].line == 3

    def test_waiver_is_rule_specific(self):
        # An allow[REP102] does not silence a REP101 on the same line.
        code = (
            "import numpy as np\n"
            "x = np.random.rand()  # repro: allow[REP102] wrong rule\n"
        )
        assert [f.rule for f in lint_source(code)] == ["REP101"]

    def test_multi_rule_waiver(self):
        code = (
            "import time\n"
            "import numpy as np\n"
            "x = np.random.rand() * time.time()  "
            "# repro: allow[REP101,REP102] fixture exercises both\n"
        )
        assert lint_source(code) == []

    def test_missing_reason_reports_rep000_and_suppresses_nothing(self):
        code = (
            "import numpy as np\n"
            "x = np.random.rand()  # repro: allow[REP101]\n"
        )
        rules = sorted(f.rule for f in lint_source(code))
        assert rules == ["REP000", "REP101"]

    def test_reason_after_dash_is_accepted(self):
        code = (
            "import numpy as np\n"
            "x = np.random.rand()  # repro: allow[REP101] - legacy seam\n"
        )
        assert lint_source(code) == []

    def test_collect_tracks_usage(self):
        sup = collect_suppressions(
            "f.py", "x = 1  # repro: allow[REP101] reason\n"
        )
        assert sup.waives(1, "REP101")
        assert not sup.waives(1, "REP104")
        assert sup.used == {(1, "REP101")}


class TestRunner:
    def test_collect_files_sorted_and_deduped(self, tmp_path):
        b = write_module(tmp_path, "b.py", CLEAN)
        a = write_module(tmp_path, "a.py", CLEAN)
        files = collect_files([tmp_path, a, b])
        assert files == [a, b]

    def test_collect_files_missing_path_raises(self, tmp_path):
        with pytest.raises(LintUsageError):
            collect_files([tmp_path / "nope"])

    def test_unparseable_file_reports_rep000(self, tmp_path):
        target = write_module(tmp_path, "broken.py", "def f(:\n")
        report = run_lint([target])
        assert report.exit_code == 1
        assert [f.rule for f in report.findings] == ["REP000"]
        assert "cannot lint" in report.findings[0].message

    def test_clean_tree_report(self, tmp_path):
        write_module(tmp_path, "ok.py", CLEAN)
        report = run_lint([tmp_path])
        assert report.exit_code == 0
        assert report.files_scanned == 1
        assert report.render_text().startswith("clean: 0 findings")


class TestJSONRecord:
    def test_record_shape(self, tmp_path):
        write_module(tmp_path, "dirty.py", NAKED)
        record = run_lint([tmp_path]).to_dict()
        assert set(record) == {
            "version", "findings", "counts", "suppressed", "files_scanned",
            "exit_code",
        }
        assert record["version"] == JSON_VERSION == 2
        assert record["exit_code"] == 1
        assert record["files_scanned"] == 1
        assert record["counts"] == {"REP101": 1}
        (finding,) = record["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "REP101"

    def test_json_round_trips(self, tmp_path):
        write_module(tmp_path, "dirty.py", NAKED)
        report = run_lint([tmp_path])
        assert json.loads(report.to_json()) == report.to_dict()

    def test_json_flag_writes_file(self, tmp_path, capsys):
        write_module(tmp_path, "dirty.py", NAKED)
        out = tmp_path / "lint.json"
        code = lint_main([str(tmp_path), "--json", str(out)])
        assert code == 1
        record = json.loads(out.read_text())
        assert record["version"] == JSON_VERSION
        # Human-readable report still goes to stdout.
        assert "REP101" in capsys.readouterr().out

    def test_json_dash_streams_to_stdout(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", CLEAN)
        assert lint_main([str(tmp_path), "--json", "-"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["exit_code"] == 0


class TestExitCodes:
    """The documented convention: 0 clean, 1 findings, 2 usage error."""

    def test_clean_exits_zero(self, tmp_path):
        write_module(tmp_path, "ok.py", CLEAN)
        assert lint_main([str(tmp_path)]) == 0

    def test_findings_exit_one(self, tmp_path):
        write_module(tmp_path, "dirty.py", NAKED)
        assert lint_main([str(tmp_path)]) == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_flag_exits_two(self, tmp_path, capsys):
        assert lint_main(["--no-such-flag"]) == 2
        capsys.readouterr()

    def test_list_rules_exits_zero(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("REP")]
        assert listed == ["REP101", "REP102", "REP103", "REP104", "REP106",
                          "REP107", "REP108"]


class TestCLIIntegration:
    def test_repro_cli_dispatches_lint(self, tmp_path, capsys):
        write_module(tmp_path, "dirty.py", NAKED)
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "REP101" in capsys.readouterr().out

    def test_repro_cli_lint_clean(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", CLEAN)
        assert cli_main(["lint", str(tmp_path)]) == 0
        capsys.readouterr()
