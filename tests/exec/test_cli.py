"""``python -m repro`` CLI: argument plumbing and engine integration."""

import ast

import pytest

from repro.__main__ import build_parser, main
from repro.exec import faults
from repro.exec.faults import parse_faults


def _rows(out: str) -> list[str]:
    """A report's indented result rows: the lines that carry numbers
    and do not depend on the store, the run or the clock."""
    return [line for line in out.splitlines() if line.startswith(" ")]


_DAXPY_SWEEP = [
    "sweep",
    "--workloads",
    "daxpy",
    "--configs",
    "1-1,2-2,4-4@p2",
    "--loop-size",
    "96",
    "--duration",
    "1",
]


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

    @pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf", "x"])
    def test_bad_duration_exits_2_at_parse_time(self, duration, capsys):
        # Before any machine is built: a bad window used to degrade,
        # back off and quarantine every cell of the sweep.
        with pytest.raises(SystemExit) as caught:
            main(["sweep", "--workloads", "daxpy", "--duration", duration])
        assert caught.value.code == 2
        assert "finite positive" in capsys.readouterr().err


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


class TestSweepRecovery:
    """In-process counterpart of CI's faulted-campaign step: transient
    poison and store I/O faults degrade the sweep, quarantine nothing
    and leave its report identical to a fault-free run."""

    def test_faulted_sweep_reports_recovery_and_matches_clean(
        self, capsys, tmp_path
    ):
        assert main(_DAXPY_SWEEP) == 0
        clean = capsys.readouterr().out
        assert "execution:" not in clean
        with faults.injected(parse_faults("seed:11,io:0.3,poison:0.2:1")):
            assert (
                main(_DAXPY_SWEEP + ["--store", str(tmp_path / "store")])
                == 0
            )
        faulted = capsys.readouterr().out
        assert _rows(faulted) == _rows(clean)
        assert "quarantined" not in faulted
        # The recovery the run needed is surfaced, not hidden: the
        # failed pass re-ran cell by cell and every cell completed.
        assert "execution: 12/12 cells measured [" in faulted
        assert "degraded_cells=12" in faulted
        assert main(["store", "verify", "--store", str(tmp_path / "store")]) == 0


class TestServerOption:
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_sweep_on_a_service_matches_local(
        self, capsys, monkeypatch, service_url, source
    ):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(_DAXPY_SWEEP) == 0
        local = capsys.readouterr().out
        if source == "flag":
            argv = _DAXPY_SWEEP + ["--server", service_url]
        else:
            monkeypatch.setenv("REPRO_SERVER", service_url)
            argv = _DAXPY_SWEEP
        assert main(argv) == 0
        remote = capsys.readouterr().out
        assert remote == local
        assert len(_rows(remote)) == 3


_CAMPAIGN = [
    "campaign",
    "--scale",
    "0.05",
    "--loop-size",
    "128",
    "--duration",
    "1",
]


class TestCampaignCommand:
    def test_reports_every_model(self, capsys):
        assert main(_CAMPAIGN) == 0
        out = capsys.readouterr().out
        header, models = out.splitlines()[0], _rows(out)
        # 28 SPEC proxies validated on each of the 24 configurations.
        assert header == (
            "=== modeling campaign: scale 0.05, 24 configurations, "
            f"{28 * 24} SPEC validation measurements ==="
        )
        assert [line.split()[0] for line in models] == [
            "BU", "TD_Micro", "TD_Random", "TD_SPEC",
        ]
        for line in models:
            fields = line.split()
            paae, worst = float(fields[2]), float(fields[6])
            assert 0.0 < paae <= worst

    def test_warm_rerun_serves_from_store(self, capsys, tmp_path):
        argv = _CAMPAIGN + ["--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        assert ", 0 measured this run" in warm
        assert ", 0 synthesized" in warm


_STRESSMARK = [
    "stressmark",
    "--loop-size",
    "48",
    "--bootstrap-loop",
    "64",
    "--duration",
    "1",
]


class TestStressmarkCommand:
    def test_reports_the_hunt(self, capsys):
        assert main(_STRESSMARK) == 0
        lines = capsys.readouterr().out.splitlines()
        candidates = ast.literal_eval(lines[0].split(": ", 1)[1])
        assert set(candidates) == {"FXU", "LSU", "VSU"}
        assert lines[1].startswith("SPEC CPU2006 maximum: ")
        best = lines[2].removeprefix("best stressmark: ").split()
        # The winner is one of the 540 covering sequences.
        assert len(best) == 6
        assert set(best) == set(candidates.values())
        ratio = float(lines[3].split()[2].rstrip("x"))
        assert ratio > 1.0
        assert lines[4].startswith("order-only spread at max IPC: ")

    def test_warm_rerun_serves_from_store(self, capsys, tmp_path):
        argv = _STRESSMARK + ["--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        # Bootstrap, baseline and search cells, and the bootstrap's
        # kernels, all come from the store.
        assert ", 0 measured this run" in warm
        assert ", 0 synthesized" in warm
