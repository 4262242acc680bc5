"""End-to-end checks: the shipped tree lints clean and the `repro lint`
CLI plumbing (exit codes, JSON, --strict, --list-rules) works."""

import json
from pathlib import Path

import repro
from repro.analysis import all_rules, run_analysis
from repro.cli import main

SRC = Path(repro.__file__).parent


def test_shipped_tree_is_lint_clean():
    report = run_analysis([SRC])
    assert report.findings == []
    assert report.files_scanned > 50


def test_rule_catalogue():
    rules = all_rules()
    assert {rule.family for rule in rules} == {"determinism", "protocol",
                                               "api", "persist", "race",
                                               "typestate"}
    # The catch matrix (docs/ANALYSIS.md) decides this list.
    assert [rule.id for rule in rules] == [
        "api-all-exports", "api-port-surface", "det-wallclock",
        "persist-committed-mutation", "proto-entry-mutation",
        "proto-phase-graph", "proto-state-graph", "proto-table-mutation",
        "race-same-cycle", "typestate-cursor-monotonic",
        "typestate-cursor-order", "typestate-grow-tail-only",
        "typestate-parallel-arrays"]    # id-sorted: deterministic output


def test_cli_clean_run_exits_zero(capsys):
    assert main(["lint", str(SRC)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_json_output(capsys):
    assert main(["lint", str(SRC), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 0
    assert payload["findings"] == []


def test_cli_reports_errors_and_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "clockwork.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    assert main(["lint", str(tmp_path)]) == 1
    assert "det-wallclock" in capsys.readouterr().out


def test_cli_strict_promotes_warnings(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text('__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\n'
                   'def g():\n    pass\n')
    assert main(["lint", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--strict"]) == 1


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    report = run_analysis([bad])
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert report.exit_code() == 1


def test_cli_path_without_python_files_is_usage_error(tmp_path, capsys):
    (tmp_path / "notes.md").write_text("# not python\n")
    assert main(["lint", str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err
    assert main(["lint", str(tmp_path / "notes.md")]) == 2
    assert "no Python files" in capsys.readouterr().err
