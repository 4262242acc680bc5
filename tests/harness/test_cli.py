"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser


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


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "bogus", "--ops", "10"])


def test_unknown_spec_model_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--workload", "spec:nope", "--ops", "10"])


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


def test_bench_parallel_output_identical_to_serial(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["bench", "fig12", "--ops", "200", "--json",
                     "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["fig12"]["series"]
