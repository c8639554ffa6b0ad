"""Topology cells through the execution engine: keys, stores, validation."""

import pytest

from repro.errors import MeasurementError, PlanValidationError, ReproError
from repro.exec.executors import SerialExecutor
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.measure.measurement import Measurement
from repro.measure.runner import MeasurementRunner
from repro.sim import (
    Machine,
    MachineConfig,
    parse_topology,
    topology_ladder,
)
from repro.workloads.mixes import hi_ilp_kernel, memory_bound_kernel

_DURATION = 2.0


@pytest.fixture()
def kernels():
    return [hi_ilp_kernel(64), memory_bound_kernel(64)]


@pytest.fixture()
def topology():
    return parse_topology("2big-2@p2+2little")


class TestTopologyKeys:
    def test_key_folds_cluster_shape_and_digests(self, kernels, topology):
        cell = PlanCell(kernels[0], topology, _DURATION)
        base = cell.key("POWER7", 0, 1, {None: 1, "POWER7_ECO": 2})
        assert cell.key("POWER7", 0, 1, {None: 1, "POWER7_ECO": 3}) != base
        moved = PlanCell(
            kernels[0], parse_topology("2big-2@p3+2little"), _DURATION
        )
        assert moved.key("POWER7", 0, 1, {None: 1, "POWER7_ECO": 2}) != base

    def test_executor_resolves_cluster_digests(
        self, power7_arch, kernels, topology, tmp_path, open_store
    ):
        machine = Machine(power7_arch)
        executor = SerialExecutor(
            machine, store=open_store(tmp_path / "store")
        )
        plan = ExperimentPlan.cross(kernels, [topology], duration=_DURATION)
        first = executor.run(plan)
        # A fresh executor over the same store must compute identical
        # keys (digests are content-derived, not object-derived).
        warm_machine = Machine(power7_arch)

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("machine invoked on warm run")

        warm_machine.run = warm_machine.run_many = forbid
        warm_machine.run_cells = forbid
        warm = SerialExecutor(
            warm_machine, store=open_store(tmp_path / "store")
        ).run(plan)
        assert warm == first


class TestTopologySerialization:
    def test_measurement_round_trip(self, power7_arch, kernels, topology):
        measurement = Machine(power7_arch).run(
            kernels[0], topology, _DURATION
        )
        rebuilt = Measurement.from_dict(measurement.to_dict())
        assert rebuilt == measurement
        assert rebuilt.config == topology


class TestPlanValidation:
    def test_executor_rejects_infeasible_plan_upfront(
        self, power7_arch, kernels
    ):
        machine = Machine(power7_arch)
        bad = ExperimentPlan.cross(
            kernels,
            [MachineConfig(2, 2), parse_topology("4little-4")],
            duration=_DURATION,
        )
        calls = []
        machine.run_cells = lambda cells: calls.append(cells)
        with pytest.raises(PlanValidationError) as excinfo:
            SerialExecutor(machine).run(bad)
        # Clear, actionable, and raised before any measurement.
        assert "SMT-4" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)
        assert not calls

    def test_oversized_cmp_config_fails_at_plan_time(
        self, power7_arch, kernels
    ):
        plan = ExperimentPlan.cross(
            kernels, [MachineConfig(12, 2)], duration=_DURATION
        )
        with pytest.raises(PlanValidationError) as excinfo:
            plan.validate_against(Machine(power7_arch))
        assert "12 cores" in str(excinfo.value)

    def test_unknown_core_class_fails_at_plan_time(
        self, power7_arch, kernels
    ):
        from repro.sim import ChipTopology, CoreCluster

        plan = ExperimentPlan.cross(
            kernels,
            [
                ChipTopology(
                    clusters=(
                        CoreCluster("odd", 1, 1, core_class="NOSUCH"),
                    )
                )
            ],
            duration=_DURATION,
        )
        with pytest.raises(PlanValidationError):
            plan.validate_against(Machine(power7_arch))

    def test_runner_sweep_fails_fast(self, power7_arch, kernels):
        runner = MeasurementRunner(
            Machine(power7_arch), duration=_DURATION
        )
        with pytest.raises(PlanValidationError):
            runner.run_sweep(kernels, configs=[parse_topology("9little")])

    def test_valid_plan_passes(self, power7_arch, kernels, topology):
        plan = ExperimentPlan.cross(kernels, [topology], duration=_DURATION)
        assert plan.validate_against(Machine(power7_arch)) is plan

    def test_machine_validate_config_public(self, power7_arch, topology):
        machine = Machine(power7_arch)
        machine.validate_config(topology)
        with pytest.raises(MeasurementError):
            machine.validate_config(parse_topology("4little-4"))


class TestTopologySweeps:
    def test_run_sweep_over_ladder(self, power7_arch, kernels):
        runner = MeasurementRunner(Machine(power7_arch), duration=_DURATION)
        ladder = topology_ladder(4, step=2)
        sweep = runner.run_sweep(kernels, configs=ladder)
        assert list(sweep) == list(ladder)
        for topology, measurements in sweep.items():
            assert len(measurements) == len(kernels)
            assert all(m.config == topology for m in measurements)

    def test_mixed_ladder_with_p_states(self, power7_arch, kernels):
        from repro.sim.pstate import NOMINAL, get_pstate

        runner = MeasurementRunner(Machine(power7_arch), duration=_DURATION)
        configs = [MachineConfig(2, 2), parse_topology("1big+1little")]
        sweep = runner.run_sweep(
            kernels, configs=configs, p_states=[NOMINAL, get_pstate("p2")]
        )
        labels = [config.label for config in sweep]
        assert labels == [
            "2-2",
            "1big+1little",
            "2-2@p2",
            "1big@p2+1little@p2",
        ]

    def test_baseline_memoized_per_topology(self, power7_arch, topology):
        runner = MeasurementRunner(Machine(power7_arch), duration=_DURATION)
        first = runner.baseline(topology)
        assert runner.baseline(topology) is first
        assert len(first.thread_counters) == topology.threads
