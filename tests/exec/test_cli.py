"""``python -m repro`` CLI: argument plumbing and engine integration."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_options_shared(self):
        for command in ("sweep", "campaign", "stressmark"):
            args = build_parser().parse_args(
                [command, "--store", "x", "--duration", "1"]
            )
            assert args.store == "x"
            assert args.duration == 1.0


class TestSweepCommand:
    def test_sweep_runs_and_reports(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--workloads",
                "daxpy",
                "--configs",
                "1-1,2-2@p2",
                "--loop-size",
                "96",
                "--duration",
                "1",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1-1" in out and "2-2@p2" in out
        assert "daxpy" in out
        assert "0 cells warm" in out

    def test_sweep_warm_rerun_serves_from_store(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--workloads",
            "daxpy",
            "--configs",
            "1-1",
            "--loop-size",
            "96",
            "--duration",
            "1",
            "--store",
            str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # Same numbers, zero fresh measurements.
        assert cold.splitlines()[1] == warm.splitlines()[1]
        assert "0 measured this run" in warm


class TestHeterogeneousSweepCommand:
    def test_topology_sweep_runs_and_reports(self, capsys):
        code = main(
            [
                "sweep",
                "--workloads",
                "daxpy",
                "--topology",
                "2big,1big+1little,2little",
                "--loop-size",
                "96",
                "--duration",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2big" in out and "1big+1little" in out and "2little" in out

    def test_cache_stats_reported(self, capsys):
        code = main(
            [
                "sweep",
                "--workloads",
                "daxpy",
                "--topology",
                "1big+1little",
                "--loop-size",
                "96",
                "--duration",
                "1",
                "--cache-stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "=== cache stats ===" in out
        assert "summaries" in out

    def test_bad_topology_spec_errors_clearly(self, capsys):
        with pytest.raises(ValueError) as excinfo:
            main(
                [
                    "sweep",
                    "--workloads",
                    "daxpy",
                    "--topology",
                    "2mega",
                    "--duration",
                    "1",
                ]
            )
        assert "unknown cluster name" in str(excinfo.value)

    def test_new_flags_available_on_every_subcommand(self):
        for command in ("sweep", "campaign", "stressmark"):
            args = build_parser().parse_args([command, "--cache-stats"])
            assert args.cache_stats


class TestStoreCommand:
    def _populate(self, tmp_path):
        argv = [
            "sweep",
            "--workloads",
            "daxpy",
            "--configs",
            "1-1",
            "--loop-size",
            "96",
            "--duration",
            "1",
            "--store",
            str(tmp_path / "store"),
        ]
        assert main(argv) == 0

    def test_verify_clean_store(self, capsys, tmp_path):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "checksummed" in out
        assert "journals: 1 run(s), 1 complete, 0 interrupted" in out

    def test_verify_flags_damage_then_scrub_repairs(self, capsys, tmp_path):
        self._populate(tmp_path)
        store_dir = tmp_path / "store"
        shard = next((store_dir / "shards").glob("??.jsonl"))
        with shard.open("ab") as handle:
            handle.write(b"{garbage\n")
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPTION" in captured.out
        assert "scrub" in captured.err
        assert main(["store", "scrub", "--store", str(store_dir)]) == 0
        assert "dropped" in capsys.readouterr().out
        assert main(["store", "verify", "--store", str(store_dir)]) == 0

    def test_store_dir_from_environment(self, capsys, tmp_path, monkeypatch):
        self._populate(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert main(["store", "verify"]) == 0

    def test_missing_store_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "verify"]) == 2
        assert "no store directory" in capsys.readouterr().err
