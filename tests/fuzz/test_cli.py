"""The ``repro fuzz`` subcommand and the error-to-exit-code mapping."""

import json
from unittest import mock

from repro.cli import main
from repro.core.controller import ThyNVMController
from repro.errors import EXIT_CODES, CrashedError, FuzzFailure, WorkloadError

from .test_campaign import _buggy_snapshot


def test_replay_passing_plan(capsys):
    assert main(["fuzz", "replay",
                 "thynvm/sparse:s1:e1:b8@commit#1+0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "pass"
    assert payload["crash_cycle"] is not None


def test_replay_failing_plan_exits_with_fuzz_code(capsys):
    with mock.patch.object(ThyNVMController, "_snapshot",
                           _buggy_snapshot):
        code = main(["fuzz", "replay",
                     "thynvm/sparse:s1:e1:b8@commit#1+0"])
    assert code == EXIT_CODES[FuzzFailure]
    captured = capsys.readouterr()
    assert json.loads(captured.out)["outcome"] == "fail"
    assert "repro: FuzzFailure:" in captured.err
    assert "Traceback" not in captured.err


def test_replay_bad_plan_maps_to_workload_error(capsys):
    code = main(["fuzz", "replay", "not-a-plan"])
    assert code == EXIT_CODES[WorkloadError]
    err = capsys.readouterr().err
    assert err.count("\n") == 1                   # exactly one line
    assert "repro: WorkloadError:" in err


def test_sites_subcommand_reports_taxonomy(capsys):
    assert main(["fuzz", "sites"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coverage_gaps"] == {}
    assert "fence" in payload["taxonomy"]


def test_campaign_smoke_passes(tmp_path, capsys):
    code = main(["fuzz", "--quick", "--systems", "thynvm",
                 "--workloads", "sparse",
                 "--corpus-dir", str(tmp_path / "corpus")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcomes"] == {"pass": payload["plans"]}


def test_campaign_without_check_fails_on_findings(tmp_path, capsys):
    with mock.patch.object(ThyNVMController, "_snapshot",
                           _buggy_snapshot):
        code = main(["fuzz", "--quick", "--no-minimize",
                     "--systems", "thynvm", "--workloads", "sparse",
                     "--corpus-dir", str(tmp_path / "corpus")])
    assert code == EXIT_CODES[FuzzFailure]


def test_crashed_error_has_its_own_exit_code():
    assert EXIT_CODES[CrashedError] != EXIT_CODES[FuzzFailure]
