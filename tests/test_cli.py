"""Tests for the command-line interface."""

import argparse
import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core import CADConfig
from repro.datasets import load_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent


def parser_dests(parser):
    """Every dest ``parser`` and its subparsers bind, bar --help/--version."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= parser_dests(sub)
        if not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            dests.add(action.dest)
    return dests


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect", "--dataset", "psm-sim"])
        assert args.theta is None
        assert args.top_causes == 5

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--dataset", "nope"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_datasets_lists_everything(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "psm-sim" in out
        assert "is5-sim" in out
        assert "1266 sensors" in out

    def test_generate_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "data.npz"
        assert main(["generate", "--dataset", "smd-sim-02", "--out", str(out_path)]) == 0
        assert out_path.exists()
        from repro.datasets import load_dataset_file

        dataset = load_dataset_file(out_path)
        assert dataset.name == "smd-sim-02"

    def test_detect_prints_scores(self, capsys):
        assert main(["detect", "--dataset", "smd-sim-02", "--theta", "0.12"]) == 0
        out = capsys.readouterr().out
        assert "F1_PA" in out
        assert "F1_DPA" in out

    def test_compare_small(self, capsys):
        assert main(
            ["compare", "--dataset", "smd-sim-02", "--methods", "ECOD,HBOS"]
        ) == 0
        out = capsys.readouterr().out
        assert "ECOD" in out and "HBOS" in out


class TestRunCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "psm-sim"])
        assert not args.supervised
        assert args.max_retries == 3
        assert args.deadline is None
        assert args.checkpoint_every == 50
        assert args.checkpoint_dir is None
        assert args.quarantine_after == 3
        assert args.health_out is None

    def test_dataset_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_bad_fault_rate_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--dataset", "psm-sim", "--fault-rate", "1.5"])

    def test_unsupervised_run(self, capsys):
        assert main(["run", "--dataset", "smd-sim-02"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out

    def test_supervised_run_writes_health_and_checkpoints(self, tmp_path, capsys):
        health_path = tmp_path / "health.json"
        checkpoint_dir = tmp_path / "ckpts"
        code = main(
            [
                "run",
                "--dataset",
                "smd-sim-02",
                "--supervised",
                "--checkpoint-every",
                "200",
                "--checkpoint-dir",
                str(checkpoint_dir),
                "--health-out",
                str(health_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health" in out

        import json

        health = json.loads(health_path.read_text())
        assert health["rounds_completed"] > 0
        assert health["healthy"] is True
        assert list(checkpoint_dir.glob("ckpt-*.npz")), "rotation must have written"

    def test_supervised_with_faults(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "smd-sim-02",
                "--supervised",
                "--fault-rate",
                "0.01",
                "--fault-seed",
                "7",
            ]
        )
        assert code == 0
        assert "health" in capsys.readouterr().out

    def test_frontier_under_supervision(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "smd-sim-02",
                "--supervised",
                "--disorder-horizon",
                "4",
                "--late-policy",
                "drop",
                "--quarantine-after",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        data = load_dataset("smd-sim-02")
        # In-order delivery: every envelope is accepted and no row is lost.
        assert f"accepted {data.n_sensors * data.test.length} |" in out
        assert "late 0 |" in out and "rows dropped 0" in out
        assert "health: healthy" in out


class TestFleetRunCommand:
    def test_run_then_resume_from_the_manifest(self, tmp_path, capsys):
        argv = [
            "fleet",
            "run",
            "--dataset",
            "smd-sim-02",
            "--tenants",
            "2",
            "--manifest-dir",
            str(tmp_path / "fleet"),
            "--health-out",
        ]
        assert main([*argv, str(tmp_path / "first.json")]) == 0
        assert "fleet manifest:" in capsys.readouterr().out
        first = json.loads((tmp_path / "first.json").read_text())
        assert first["healthy"] and first["checkpoints_written"] > 0

        # The second run adopts the manifest: each tenant replays only the
        # tail after its newest checkpoint and ends on the same round.
        assert main([*argv, str(tmp_path / "second.json")]) == 0
        second = json.loads((tmp_path / "second.json").read_text())
        assert second["healthy"]
        assert second["rounds_completed"] == first["rounds_completed"]
        assert 0 < second["samples_ingested"] < first["samples_ingested"]
        # The manifest restores the cycle count, and the resumed run pumps
        # once per index it feeds: from the earliest tenant's resume point.
        fed = max(t["samples_ingested"] for t in second["tenants"].values())
        assert second["cycles"] == first["cycles"] + fed


class TestConfigSurface:
    """The parser, ``cli.py``'s reads and README's knob table agree."""

    @staticmethod
    def args_reads():
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }

    def test_no_dead_flags(self):
        dests = parser_dests(build_parser())
        assert dests - self.args_reads() == set(), "flags whose dest cli.py never reads"

    def test_no_args_read_without_flag(self):
        dests = parser_dests(build_parser())
        assert self.args_reads() - dests == set(), "args reads with no flag behind them"

    def test_every_cadconfig_field_documented(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        undocumented = [
            field.name
            for field in dataclasses.fields(CADConfig)
            if f"| `{field.name}` |" not in readme
        ]
        assert undocumented == [], "CADConfig fields missing from README's table"
