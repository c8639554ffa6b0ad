"""Executor contracts: batching, deduplication, environment defaults.

The :class:`SerialExecutor` returns exactly the measurements direct
``Machine`` runs produce -- counters, powers, noise draws -- while
batching each configuration and measuring every distinct cell once.
"""

from repro.exec import ExperimentPlan, SerialExecutor, default_executor
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
