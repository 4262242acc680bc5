"""Output plumbing: the formatter registry (github annotations) and
`--explain`."""

import pytest

from repro.analysis import (all_rules, lint_tool_report, render,
                            render_rule_explain, run_analysis)
from repro.cli import main


def _bad_tree(tmp_path):
    bad = tmp_path / "repro" / "core" / "clockwork.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    return tmp_path


def test_render_github_emits_error_annotations(tmp_path):
    report = run_analysis([_bad_tree(tmp_path)])
    out = render(lint_tool_report(report), "github")
    line = next(l for l in out.splitlines() if l.startswith("::error "))
    assert "file=" in line and "line=" in line and "col=" in line
    assert "det-wallclock" in line


def test_render_github_escapes_newlines_and_percent():
    from repro.analysis.report import _github_escape
    assert _github_escape("a%b\nc\rd") == "a%25b%0Ac%0Dd"


def test_github_columns_are_one_based(tmp_path):
    report = run_analysis([_bad_tree(tmp_path)])
    finding = report.findings[0]
    line = next(l for l in render(lint_tool_report(report),
                                  "github").splitlines()
                if l.startswith("::error "))
    assert f"col={finding.col + 1}" in line


def test_cli_format_github(tmp_path, capsys):
    assert main(["lint", str(_bad_tree(tmp_path)),
                 "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error " in out


def test_cli_format_github_clean_tree(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text("def f():\n    return 1\n")
    assert main(["lint", str(tmp_path),
                 "--format", "github"]) == 0
    assert "::error" not in capsys.readouterr().out


def test_render_unknown_format_raises():
    report = lint_tool_report(run_analysis([]))
    with pytest.raises(KeyError, match="unknown output format"):
        render(report, "yaml")


def test_explain_covers_every_rule():
    for rule in all_rules():
        text = render_rule_explain(rule.id)
        assert rule.id in text
        assert rule.family in text
        assert "lint: ok[" in text


def test_explain_includes_examples_for_new_families():
    for rule_id in ("persist-unfenced-commit", "race-same-cycle"):
        text = render_rule_explain(rule_id)
        assert "Why it matters:" in text
        assert "Flagged:" in text and "Clean:" in text


def test_cli_explain(capsys):
    assert main(["lint", "--explain", "persist-unfenced-commit"]) == 0
    assert "persist-unfenced-commit" in capsys.readouterr().out


def test_cli_explain_unknown_rule(capsys):
    assert main(["lint", "--explain", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err
