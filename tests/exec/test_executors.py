"""Executor contracts: one pass, deduplication, environment defaults.

The :class:`SerialExecutor` returns exactly the measurements direct
``Machine`` runs produce -- counters, powers, noise draws -- while
measuring every distinct cell once, all of an execution's misses in
one ``run_cells`` pass.
"""

import pytest

from repro.exec import (
    ExperimentPlan,
    SerialExecutor,
    default_executor,
)
from repro.exec.report import ReportBuilder
from repro.sim import Machine, MachineConfig, Placement

_DURATION = 1.0


class TestSerialExecutor:
    def test_matches_direct_machine_runs(self, machine, small_kernel_factory):
        kernel = small_kernel_factory("add", count=24)
        config = MachineConfig(2, 2)
        plan = ExperimentPlan.single(kernel, config, _DURATION)
        via_engine = SerialExecutor(machine).run(plan)[0]
        direct = machine.run(kernel, config, _DURATION)
        assert via_engine == direct

    def test_deduplicated_cells_measured_once(
        self, power7_arch, small_kernel_factory
    ):
        machine = Machine(power7_arch)
        calls = []
        original = machine.run_cells

        def counting(cells, plan=None):
            calls.append(len(list(cells)))
            return original(cells, plan=plan)

        machine.run_cells = counting
        kernel = small_kernel_factory("add", count=24)
        copy = small_kernel_factory("add", count=24)
        plan = ExperimentPlan.cross(
            [kernel, copy, kernel], [MachineConfig(1, 1)], duration=_DURATION
        )
        results = SerialExecutor(machine).run(plan)
        assert calls == [1]  # one batch, one unique cell
        assert results[0] == results[1] == results[2]

    def test_placement_cells(self, machine, small_kernel_factory):
        config = MachineConfig(1, 2)
        mix = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        plan = ExperimentPlan.single(mix, config, _DURATION)
        via_engine = SerialExecutor(machine).run(plan)[0]
        assert via_engine == machine.run(mix, config, _DURATION)


class TestOnePassPerExecution:
    """An execution measures its misses in one ``run_cells`` pass, lands
    them with at most one store append per touched shard, and reports
    them to ``progress`` at most twice: the warm cells, then the
    measured ones."""

    @pytest.fixture()
    def counted(self, power7_arch, tmp_path, open_store):
        """A store-backed executor whose passes and appends are logged."""
        machine = Machine(power7_arch)
        calls: dict[str, list] = {"passes": [], "appends": []}
        run_cells = machine.run_cells

        def counting_pass(cells, plan=None):
            calls["passes"].append(len(cells))
            return run_cells(cells, plan=plan)

        machine.run_cells = counting_pass
        store = open_store(tmp_path / "store")
        put_many = store.put_many

        def counting_put(entries):
            calls["appends"].append([key for key, _ in entries])
            return put_many(entries)

        store.put_many = counting_put
        return SerialExecutor(machine, store=store), calls

    def test_store_backed_multi_configuration_plan(
        self, counted, power7_arch, small_kernel_factory
    ):
        executor, calls = counted
        kernels = [
            small_kernel_factory(mnemonic, count=24)
            for mnemonic in ("add", "mulld", "lxvw4x")
        ]
        configs = [
            MachineConfig(1, 1), MachineConfig(2, 2), MachineConfig(4, 2)
        ]
        plan = ExperimentPlan.cross(kernels, configs, duration=_DURATION)
        # One kernel's cells are warm before the plan runs.
        executor.run(
            ExperimentPlan.cross(kernels[:1], configs, duration=_DURATION)
        )
        calls["passes"].clear()
        calls["appends"].clear()

        reported = []
        report = executor.execute(
            plan,
            progress=lambda cells, measurements, warm: reported.append(
                (len(cells), warm)
            ),
        )
        assert list(report) == SerialExecutor(Machine(power7_arch)).run(plan)
        assert calls["passes"] == [6]
        # One append per touched shard, holding only that shard's keys.
        appended = calls["appends"]
        shards = [keys[0][:2] for keys in appended]
        assert len(shards) == len(set(shards))
        assert all(
            key[:2] == shard for shard, keys in zip(shards, appended)
            for key in keys
        )
        assert sum(map(len, appended)) == 6
        assert reported == [(3, True), (6, False)]
        assert not report.fault_counters

    def test_store_less_plan_reports_once(
        self, power7_arch, small_kernel_factory
    ):
        machine = Machine(power7_arch)
        passes = []
        run_cells = machine.run_cells

        def counting_pass(cells, plan=None):
            passes.append(len(cells))
            return run_cells(cells, plan=plan)

        machine.run_cells = counting_pass
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        reported = []
        SerialExecutor(machine).execute(
            plan,
            progress=lambda cells, measurements, warm: reported.append(
                (len(cells), warm)
            ),
        )
        assert passes == [2] and reported == [(2, False)]

    def test_a_raising_progress_surfaces_without_recovery(
        self, counted, small_kernel_factory, monkeypatch
    ):
        """The callback runs after the pass and its appends, outside the
        degraded fallback: its exception is the caller's, not a failed
        pass to re-measure cell by cell."""
        executor, calls = counted
        counters = []
        count = ReportBuilder.count

        def spy(self, name, value=1):
            counters.append(name)
            return count(self, name, value)

        monkeypatch.setattr(ReportBuilder, "count", spy)
        plan = ExperimentPlan.cross(
            [
                small_kernel_factory(mnemonic, count=24)
                for mnemonic in ("add", "mulld")
            ],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )

        def progress(cells, measurements, warm):
            raise RuntimeError("client went away")

        with pytest.raises(RuntimeError, match="client went away"):
            executor.execute(plan, progress=progress)
        assert calls["passes"] == [4]
        assert "batch_failures" not in counters
        assert "degraded_cells" not in counters
        # The cells landed before the callback ran.
        assert len(executor.store) == 4


class TestDefaultExecutor:
    def test_plain_environment_is_serial(self, machine, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        executor = default_executor(machine)
        assert isinstance(executor, SerialExecutor)
        assert executor.store is None

    def test_environment_selects_store(self, machine, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        executor = default_executor(machine)
        assert isinstance(executor, SerialExecutor)
        assert executor.store.root == tmp_path / "store"

    def test_arguments_override_environment(self, machine, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "from-env"))
        executor = default_executor(machine, store=str(tmp_path / "explicit"))
        assert isinstance(executor, SerialExecutor)
        assert executor.store.root == tmp_path / "explicit"
