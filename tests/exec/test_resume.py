"""Crash-safe resume and the run ledger.

A store-backed run writes a fixed number of ledger records however
many shards it appends to: its key manifest once, a ``running`` record
and one final record.  The acceptance test uses a *real* SIGKILL
against a real store-backed campaign subprocess -- no cooperative
shutdown, no mocked signals -- then asserts the rerun serves every
already-persisted cell from the store and the ledger records the
interruption, then the resumed completion.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.exec import (
    ExperimentPlan,
    ResultStore,
    RunJournal,
    RunRegistry,
    SerialExecutor,
    run_id,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.journal import gc_journals, read_manifest
from repro.exec.registry import plan_digest
from repro.exec.report import CellFailure, ExecutionReport
from repro.sim import Machine, MachineConfig

_DURATION = 1.0

_FAILURE = CellFailure(
    workload_name="bad",
    config_label="1-1",
    duration=_DURATION,
    attempts=3,
    kind="FaultInjectedError",
    message="poisoned",
)


def _ledger_lines(root) -> list[dict]:
    path = pathlib.Path(root) / "registry.jsonl"
    return [json.loads(line) for line in path.read_bytes().splitlines()]


class TestRunJournalUnit:
    def test_run_id_content_addressed(self):
        assert run_id(["a", "b"]) == run_id(["a", "b"])
        assert run_id(["a", "b"]) != run_id(["b", "a"])
        assert len(run_id(["a"])) == 24  # hex of 12 bytes

    def test_fresh_journal_lifecycle(self, tmp_path):
        journal = RunJournal(RunRegistry(tmp_path), "deadbeef")
        assert not journal.resumed
        journal.start(["k1", "k2", "k3"], "test plan", arch="POWER7", seed=0)
        assert read_manifest(tmp_path, "deadbeef") == ["k1", "k2", "k3"]
        journal.absorb(
            ExecutionReport(measurements=(), fault_counters={"retries": 1})
        )
        # A clean completion drops the manifest: the store holds it all.
        assert journal.complete(3, warm=0) is True
        assert not journal.path.exists()
        running, final = _ledger_lines(tmp_path)
        assert running["state"] == "running" and running["cells"] == 3
        assert running["plan_digest"] == plan_digest(["k1", "k2", "k3"])
        assert final["state"] == "complete" and final["measured"] == 3
        assert final["counters"] == {"retries": 1}
        record = RunRegistry(tmp_path).get("deadbeef")
        assert record["plan"] == "test plan" and record["warm"] == 0

    def test_interrupted_journal_resumes(self, tmp_path):
        RunJournal(RunRegistry(tmp_path), "cafe").start(["k1", "k2"], "plan")
        # No final record: the campaign died here.
        second = RunJournal(RunRegistry(tmp_path), "cafe")
        assert second.resumed
        assert read_manifest(tmp_path, "cafe") == ["k1", "k2"]
        second.start(["k1", "k2"], "plan")
        second.complete(2)
        record = RunRegistry(tmp_path).get("cafe")
        assert record["state"] == "complete" and record["resumed"] is True
        assert not RunJournal(RunRegistry(tmp_path), "cafe").resumed

    def test_torn_journal_line_is_skipped(self, tmp_path):
        ledger = RunRegistry(tmp_path)
        RunJournal(ledger, "beef").start(["k1"], "plan")
        with ledger.path.open("ab") as handle:
            # kill -9 mid-append of the final record
            handle.write(b'{"registry": "repro-registry-v1", "run": "beef"')
        reloaded = RunRegistry(tmp_path)
        assert reloaded.skipped == 1
        assert reloaded.get("beef")["state"] == "running"
        assert RunJournal(reloaded, "beef").resumed

    def test_quarantine_memory(self, tmp_path):
        journal = RunJournal(RunRegistry(tmp_path), "f00d")
        journal.start(["k1"], "plan")
        journal.absorb(
            ExecutionReport(measurements=(None,), failures=(_FAILURE,))
        )
        assert journal.complete(0) is False
        record = RunRegistry(tmp_path).get("f00d")
        assert record["state"] == "quarantined"
        assert [
            CellFailure.from_dict(entry) for entry in record["quarantined"]
        ] == [_FAILURE]

    def test_audit_counts_complete_and_interrupted(self, tmp_path):
        ledger = RunRegistry(tmp_path)
        done = RunJournal(ledger, "aaaa")
        done.start(["k"], "plan")
        done.complete(1)
        RunJournal(ledger, "bbbb").start(["k"], "plan")
        assert RunRegistry(tmp_path).journal_summary() == {
            "runs": 2,
            "complete": 1,
            "interrupted": 1,
        }
        assert RunRegistry(tmp_path / "missing").journal_summary() == {
            "runs": 0,
            "complete": 0,
            "interrupted": 0,
        }

    def test_unwritable_journal_never_breaks_execution(
        self, power7_arch, small_kernel_factory, tmp_path, monkeypatch
    ):
        """The ledger is accounting, not a second store: losing both
        its file and the manifests must not fail the campaign."""
        store = ResultStore(tmp_path / "store")
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        original_open = pathlib.Path.open

        def ledger_volume_unwritable(self, *args, **kwargs):
            if self.parent.name == "journal" or self.name == "registry.jsonl":
                raise OSError("injected: ledger volume unwritable")
            return original_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", ledger_volume_unwritable)
        measurements = SerialExecutor(
            Machine(power7_arch), store=store
        ).run(plan)
        assert len(measurements) == 1 and len(store) == 1


class TestRunLedger:
    def test_ledger_writes_are_fixed_per_run(
        self, power7_arch, small_kernel_factory, tmp_path, monkeypatch
    ):
        """A plan spanning six configurations and one of a single
        configuration write the same ledger and manifest lines, and
        each measures in one ``run_cells`` pass: nothing is appended
        per configuration."""
        import repro.exec.registry as registry_module

        written = {"ledger": 0, "manifest": 0, "passes": 0}
        append_line = registry_module.append_line
        write_bytes = pathlib.Path.write_bytes
        run_cells = Machine.run_cells

        def counted_append(path, line):
            written["ledger"] += line.count(b"\n")
            return append_line(path, line)

        def counted_write(self, data):
            if self.parent.name == "journal":
                written["manifest"] += data.count(b"\n")
            return write_bytes(self, data)

        def counted_pass(self, *args, **kwargs):
            written["passes"] += 1
            return run_cells(self, *args, **kwargs)

        monkeypatch.setattr(registry_module, "append_line", counted_append)
        monkeypatch.setattr(pathlib.Path, "write_bytes", counted_write)
        monkeypatch.setattr(Machine, "run_cells", counted_pass)
        kernels = [
            small_kernel_factory(name, count=24)
            for name in ("add", "mulld", "subf", "and", "or", "xor")
        ]
        configs = [
            MachineConfig(1, 1), MachineConfig(2, 1), MachineConfig(2, 2),
            MachineConfig(4, 1), MachineConfig(4, 2), MachineConfig(4, 4),
        ]
        plans = {
            "six configurations": ExperimentPlan.cross(
                kernels[:1], configs, duration=_DURATION
            ),
            "one configuration": ExperimentPlan.cross(
                kernels, configs[:1], duration=_DURATION
            ),
        }
        for name, plan in plans.items():
            written.update(ledger=0, manifest=0, passes=0)
            store = ResultStore(tmp_path / name)
            assert SerialExecutor(Machine(power7_arch), store=store).execute(
                plan
            ).ok
            assert written == {"ledger": 2, "manifest": 1, "passes": 1}, name

    def test_owned_run_that_raises_reads_interrupted(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        """An execution that owns its run records it ``interrupted``,
        with the error, before re-raising -- as the campaign service
        does for its requests -- and a re-run completes warm."""
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        root = tmp_path / "store"

        def progress(cells, measurements, warm):
            raise RuntimeError("client went away")

        executor = SerialExecutor(Machine(power7_arch), store=open_store(root))
        with pytest.raises(RuntimeError, match="client went away"):
            executor.execute(plan, progress=progress)
        [record] = RunRegistry(root).runs()
        assert record["state"] == "interrupted"
        assert record["error"] == "RuntimeError: client went away"
        assert read_manifest(root, record["run"]) is not None

        report = SerialExecutor(
            Machine(power7_arch), store=open_store(root)
        ).execute(plan)
        assert report.ok
        [record] = RunRegistry(root).runs()
        assert record["state"] == "complete"
        assert (record["warm"], record["measured"]) == (plan.size, 0)

    def test_fully_warm_run_writes_no_manifest(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        """A run that owes no cells writes no key manifest: nothing is
        under ``journal/`` while a fully warm execution runs.  The cold
        run before it writes its manifest and drops it; the ledger
        records both runs' start and end, and the store verifies."""
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        root = tmp_path / "store"
        seen: list[list[str]] = []

        def progress(cells, measurements, warm):
            journal = root / "journal"
            seen.append(
                sorted(path.name for path in journal.iterdir())
                if journal.is_dir()
                else []
            )

        runs = [
            SerialExecutor(Machine(power7_arch), store=open_store(root))
            .execute(plan, progress=progress)
            .measurements
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        run = run_id(SerialExecutor(Machine(power7_arch)).keys_of(plan))
        assert seen == [[f"{run}.json"], []]
        assert list((root / "journal").iterdir()) == []
        entries = [
            json.loads(line)
            for line in (root / "registry.jsonl").read_bytes().splitlines()
        ]
        assert [(e["run"], e["state"]) for e in entries] == [
            (run, "running"), (run, "complete"),
        ] * 2
        assert (entries[-1]["warm"], entries[-1]["measured"]) == (
            plan.size, 0,
        )
        assert ResultStore(root).verify().ok
        assert gc_journals(RunRegistry(root)) == 0


class TestJournalGC:
    """Retention: run manifests must not accumulate forever.

    A run drops its key manifest when it completes cleanly; a
    quarantined run keeps it until ``store scrub``, whose sweep
    (:func:`gc_journals`) drops every manifest whose run recorded its
    end, and keeps the manifests of unfinished runs -- the record of
    which cells they still owe.
    """

    def test_completed_durable_journal_is_reclaimed(self, tmp_path):
        ledger = RunRegistry(tmp_path)
        journal = RunJournal(ledger, "aaaa")
        journal.start(["k1", "k2"], "plan")
        # The final record landed but the process died before the
        # manifest was dropped.
        ledger.record("aaaa", "complete", measured=2)
        assert journal.path.exists()
        assert gc_journals(ledger) == 1
        assert not journal.path.exists()
        # Idempotent: nothing left to reclaim.
        assert gc_journals(ledger) == 0

    def test_interrupted_journal_is_kept(self, tmp_path):
        ledger = RunRegistry(tmp_path)
        journal = RunJournal(ledger, "bbbb")
        journal.start(["k1", "k2"], "plan")  # no final record: crashed
        ledger.recover()
        assert gc_journals(ledger) == 0
        assert journal.path.exists()

    def test_quarantined_journal_is_kept(self, tmp_path):
        ledger = RunRegistry(tmp_path)
        journal = RunJournal(ledger, "dddd")
        journal.start(["k1"], "plan")
        journal.absorb(
            ExecutionReport(measurements=(None,), failures=(_FAILURE,))
        )
        journal.complete(0)
        # Not a clean completion: the manifest stays until scrub...
        assert journal.path.exists()
        assert gc_journals(ledger) == 1
        # ...and the quarantine memory lives on in the ledger.
        assert RunRegistry(tmp_path).get("dddd")["quarantined"] == [
            _FAILURE.to_dict()
        ]

    def test_real_campaign_journal_is_reclaimable(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        """End to end: a clean store-backed run leaves no manifest and
        one complete run in the ledger; the store still serves the
        cells warm afterwards."""
        store = open_store(tmp_path / "store")
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        executor = SerialExecutor(Machine(power7_arch), store=store)
        first = executor.run(plan)
        ledger = RunRegistry(store.root)
        assert ledger.journal_summary()["complete"] == 1
        assert gc_journals(ledger) == 0
        assert not any((store.root / "journal").iterdir())
        # Resume-by-store needs no manifest.
        again = SerialExecutor(Machine(power7_arch), store=store).run(plan)
        assert again == first
        assert store.hits == 1

    def test_store_scrub_cli_reclaims_journals(
        self, power7_arch, small_kernel_factory, tmp_path, capsys
    ):
        from repro.__main__ import main

        store = ResultStore(tmp_path / "store")
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        with faults.injected(FaultPlan(seed=2).arm("poison")):
            report = SerialExecutor(
                Machine(power7_arch), store=store, retries=0
            ).execute(plan)
        assert len(report.failures) == 1
        store.close()
        assert main(["store", "scrub", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "swept 1 run manifest(s) left behind" in out
        (record,) = RunRegistry(tmp_path / "store").runs()
        assert record["state"] == "quarantined"
        assert not any((tmp_path / "store" / "journal").iterdir())


def _campaign_script(store_dir: str) -> str:
    """A store-backed serial sweep, paced so it can be killed mid-run."""
    return textwrap.dedent(
        f"""
        from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
        from repro.march import get_architecture
        from repro.sim import Machine, MachineConfig
        from repro.workloads import daxpy_kernels

        arch = get_architecture("POWER7")
        machine = Machine(arch)
        plan = ExperimentPlan.cross(
            [daxpy_kernels(arch, loop_size=96)[0]],
            [
                MachineConfig(1, 1), MachineConfig(2, 1), MachineConfig(2, 2),
                MachineConfig(4, 1), MachineConfig(4, 2), MachineConfig(4, 4),
            ],
            duration=1.0,
        )
        SerialExecutor(machine, store=ResultStore({store_dir!r})).run(plan)
        print("COMPLETED")
        """
    )


def _subprocess_env(fault_spec: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    env.pop("REPRO_FAULTS", None)
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    return env


class TestKillNineResume:
    def test_sigkilled_campaign_resumes_from_store(self, tmp_path, open_store):
        store_dir = tmp_path / "store"
        # Each shard append sleeps 0.5 s first, so the campaign is
        # killable between durable appends.
        process = subprocess.Popen(
            [sys.executable, "-c", _campaign_script(str(store_dir))],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env("slow:1,slow_s:0.5"),
        )
        try:
            deadline = time.monotonic() + 60
            while len(open_store(store_dir)) < 2:
                assert time.monotonic() < deadline, "no progress to kill"
                if process.poll() is not None:  # pragma: no cover
                    pytest.fail(
                        "campaign finished before it could be killed: "
                        + process.communicate()[1]
                    )
                time.sleep(0.05)
            os.kill(process.pid, signal.SIGKILL)
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        assert process.returncode == -signal.SIGKILL

        persisted = len(open_store(store_dir))
        assert 2 <= persisted < 6

        # The ledger knows the run died mid-flight, and its manifest
        # names the cells it still owes.
        ledger = RunRegistry(store_dir)
        assert ledger.journal_summary() == {
            "runs": 1,
            "complete": 0,
            "interrupted": 1,
        }
        (record,) = ledger.runs()
        assert record["state"] == "running"
        keys = read_manifest(store_dir, record["run"])
        assert len(keys) == 6
        assert sum(key in open_store(store_dir) for key in keys) == persisted

        # The rerun (same plan, same store) measures only the rest.
        from repro.march import get_architecture
        from repro.workloads import daxpy_kernels

        arch = get_architecture("POWER7")
        machine = Machine(arch)
        plan = ExperimentPlan.cross(
            [daxpy_kernels(arch, loop_size=96)[0]],
            [
                MachineConfig(1, 1), MachineConfig(2, 1), MachineConfig(2, 2),
                MachineConfig(4, 1), MachineConfig(4, 2), MachineConfig(4, 4),
            ],
            duration=_DURATION,
        )
        store = open_store(store_dir)
        executor = SerialExecutor(machine, store=store)
        report = executor.execute(plan)
        assert report.ok
        assert store.hits == persisted
        assert store.misses == 6 - persisted

        # Same run id as the killed attempt; now recorded complete.
        ledger = RunRegistry(store_dir)
        assert ledger.journal_summary() == {
            "runs": 1,
            "complete": 1,
            "interrupted": 0,
        }
        resumed = ledger.get(record["run"])
        assert resumed["state"] == "complete" and resumed["resumed"] is True
        assert resumed["measured"] == 6 - persisted

        # And the measurements are bit-identical to a fault-free run.
        clean = SerialExecutor(Machine(get_architecture("POWER7"))).run(plan)
        assert list(report) == clean
