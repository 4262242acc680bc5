"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import main, make_parser
from repro.errors import EXIT_CODES, ClaimFailure
from repro.harness import experiments


def assert_usage_error(argv, capsys, message):
    """``argv`` exits 2 with ``message`` as its one line on stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_run_json_output(capsys):
    assert main(["run", "--system", "ideal_dram", "--workload", "random",
                 "--ops", "200", "--footprint", "65536", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instructions"] > 0
    assert "nvm_write_breakdown" in payload


def test_run_table_output(capsys):
    assert main(["run", "--system", "thynvm", "--workload", "streaming",
                 "--ops", "200", "--footprint", "65536"]) == 0
    out = capsys.readouterr().out
    assert "thynvm / streaming" in out
    assert "cycles" in out


def test_run_kv_workload(capsys):
    assert main(["run", "--system", "journal", "--workload", "kv-hash",
                 "--ops", "60", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["transactions"] == 60


def test_run_spec_workload(capsys):
    assert main(["run", "--system", "ideal_nvm", "--workload", "spec:lbm",
                 "--ops", "300", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["instructions"] > 300


def test_unknown_workload_rejected(capsys):
    assert_usage_error(["run", "--workload", "bogus", "--ops", "10"],
                       capsys, "run: unknown workload 'bogus'")


def test_unknown_spec_model_rejected(capsys):
    assert_usage_error(["run", "--workload", "spec:nope", "--ops", "10"],
                       capsys, "run: unknown SPEC model 'nope'")


@pytest.mark.parametrize("argv, message", [
    (["trace", "record", "--workload", "nope", "-o", "nope.trace"],
     "trace: unknown workload 'nope'"),
    (["crashproc"], "crashproc: give a crash plan string or --sweep"),
])
def test_usage_errors_exit_two(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert_usage_error(argv, capsys, message)
    assert not (tmp_path / "nope.trace").exists()


def test_trace_record_and_replay(tmp_path, capsys):
    path = tmp_path / "cli.trace"
    assert main(["trace", "record", "--workload", "random", "--ops", "80",
                 "--footprint", "65536", "-o", str(path)]) == 0
    assert path.exists()
    capsys.readouterr()
    assert main(["trace", "run", str(path), "--system", "ideal_dram"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instructions"] > 0


def test_epoch_override(capsys):
    assert main(["run", "--system", "thynvm", "--workload", "random",
                 "--ops", "300", "--footprint", "65536",
                 "--epoch-us", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epochs"] >= 2


def test_parser_help_lists_subcommands():
    parser = make_parser()
    assert {a.dest for a in parser._subparsers._actions[-1].choices[
        "run"]._actions if a.dest != "help"}  # parser is well-formed


def test_retired_store_flag_is_rejected(tmp_path, monkeypatch):
    """``repro run`` takes exact flag names: ``--store mmap`` must
    fail, not pass as an abbreviated ``--store-dir mmap``."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main(["run", "--store", "mmap", "--ops", "10"])
    assert not (tmp_path / "mmap").exists()


@pytest.mark.parametrize("ops", ["0", "-5"])
def test_bench_rejects_ops_below_one(ops, capsys):
    assert main(["bench", "fig12", "--ops", ops]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--ops must be at least 1" in captured.err


def test_bench_rejects_unknown_experiment(capsys):
    assert main(["bench", "fig7", "fig13"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "unknown experiment(s): fig13" in captured.err


def test_bench_parallel_output_identical_to_serial(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["bench", "fig12", "--ops", "200", "--json",
                     "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["fig12"]["series"]
    assert report["fig12"]["claims"] == {
        claim.id: True for claim in experiments.EXPERIMENTS["fig12"].claims}


def test_bench_failed_claim_exits_with_claim_code(monkeypatch, capsys):
    fig12 = experiments.EXPERIMENTS["fig12"]
    broken, *kept = fig12.claims
    monkeypatch.setitem(experiments.EXPERIMENTS, "fig12", dataclasses.replace(
        fig12, claims=(dataclasses.replace(broken, holds=lambda r: False),
                       *kept)))
    assert main(["bench", "fig12", "--ops", "200"]) == \
        EXIT_CODES[ClaimFailure]
    captured = capsys.readouterr()
    assert f"FAIL  {broken.id}: {broken.text}" in captured.out
    assert "Figure 12" in captured.out          # the table still prints
    failure = captured.err.splitlines()[-1]
    assert failure.startswith("repro: ClaimFailure: 1 claim(s) failed")
    assert broken.id in failure
    assert not any(claim.id in failure for claim in kept)


def test_every_experiment_renders_and_checks_its_claims(capsys):
    """Each declaration's sweep, table and claim predicates run end to
    end.  At 40 ops many claims fail, so only that each verdict prints
    is checked.  Figs. 9/10 are left to CI's full run: their key-value
    preload alone takes ~30 s."""
    names = [name for name in experiments.EXPERIMENTS
             if name not in ("fig9", "fig10")]
    assert main(["bench", *names, "--ops", "40"]) in (
        0, EXIT_CODES[ClaimFailure])
    out = capsys.readouterr().out
    for name in names:
        for claim in experiments.EXPERIMENTS[name].claims:
            assert f"{claim.id}: {claim.text}" in out
