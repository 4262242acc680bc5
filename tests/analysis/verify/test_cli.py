"""`repro verify` CLI plumbing: exit codes, formats, explain."""

import json

from repro.analysis.verify import VERIFY_SYSTEMS, all_checks
from repro.cli import main


def test_clean_run_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out
    assert "5 system(s)" in out


def test_json_output(capsys):
    assert main(["verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["summary"]["systems_scanned"] == len(VERIFY_SYSTEMS)
    assert set(payload["systems"]) == set(VERIFY_SYSTEMS)
    for summary in payload["systems"].values():
        assert summary["counterexamples"] == []
        assert summary["crash_points"] > 0


def test_system_selection(capsys):
    assert main(["verify", "--system", "journal",
                 "--system", "shadow", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["systems"]) == {"journal", "shadow"}


def test_unknown_system_is_usage_error(capsys):
    assert main(["verify", "--system", "nope"]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_nonpositive_epochs_is_usage_error(capsys):
    for epochs in ("0", "-1"):
        assert main(["verify", "--epochs", epochs]) == 2
        assert "--epochs" in capsys.readouterr().err


def test_repeated_system_is_verified_once(capsys):
    assert main(["verify", "--system", "journal",
                 "--system", "journal"]) == 0
    assert "in 1 system(s)" in capsys.readouterr().out


def test_list_checks(capsys):
    assert main(["verify", "--list-checks"]) == 0
    out = capsys.readouterr().out
    for check in all_checks():
        assert check.id in out


def test_explain_covers_every_check(capsys):
    for check in all_checks():
        assert main(["verify", "--explain", check.id]) == 0
        text = capsys.readouterr().out
        assert check.id in text
        assert "Why it matters:" in text
        assert "repro fuzz replay" in text


def test_explain_falls_back_to_lint_rules(capsys):
    assert main(["verify", "--explain", "det-set-iter"]) == 0
    assert "det-set-iter" in capsys.readouterr().out


def test_explain_unknown_check(capsys):
    assert main(["verify", "--explain", "no-such-check"]) == 2
    assert "unknown check" in capsys.readouterr().err
