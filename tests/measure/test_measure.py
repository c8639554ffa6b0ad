"""Tests for measurements and the runner.

Machine and kernel construction come from the shared fixtures in
``tests/conftest.py``.
"""

import numpy as np
import pytest

from repro.exec import RemoteExecutor
from repro.measure import MeasurementRunner
from repro.measure.measurement import Measurement, energy_per_instruction_nj
from repro.sim import Machine, MachineConfig, get_pstate
from repro.sim.sensors import PowerSensor, stable_seed
from repro.workloads.mixes import hi_ilp_kernel


@pytest.fixture(scope="module")
def kernel(small_kernel_factory):
    return lambda: small_kernel_factory("add", count=64)


class TestMeasurement:
    def test_totals_and_rates(self, machine, kernel):
        measurement = machine.run(kernel(), MachineConfig(2, 2), duration=5.0)
        totals = measurement.total_counters()
        per_thread = measurement.thread_counters[0]
        assert totals["PM_RUN_CYC"] == pytest.approx(
            4 * per_thread["PM_RUN_CYC"]
        )
        rates = measurement.thread_rates()
        assert rates["PM_RUN_CYC"] == pytest.approx(3e9)

    def test_thread_count_validation(self):
        with pytest.raises(ValueError, match="per-thread"):
            Measurement(
                workload_name="x", config=MachineConfig(2, 2),
                duration=1.0, thread_counters=({},),
                mean_power=1.0, power_std=0.1, sample_count=10,
            )

    def test_counter_only_epi(self, machine):
        measurement = machine.run(
            hi_ilp_kernel(64), MachineConfig(2, 1), duration=2.0
        )
        assert energy_per_instruction_nj(measurement) > 0
        idle = machine.run_idle(MachineConfig(2, 1), duration=2.0)
        assert energy_per_instruction_nj(idle) == float("inf")


    def test_epi_is_window_energy_over_committed_instructions(self):
        measurement = Measurement(
            workload_name="x", config=MachineConfig(1, 2), duration=2.0,
            thread_counters=(
                {"PM_RUN_INST_CMPL": 1e9}, {"PM_RUN_INST_CMPL": 3e9},
            ),
            mean_power=100.0, power_std=0.1, sample_count=2000,
        )
        # 200 J over 4e9 instructions from both threads.
        assert energy_per_instruction_nj(measurement) == pytest.approx(50.0)

    def test_window_and_workload_names_validated(self):
        fields = dict(
            workload_name="x", config=MachineConfig(1, 2), duration=1.0,
            thread_counters=({}, {}),
            mean_power=1.0, power_std=0.1, sample_count=10,
        )
        with pytest.raises(ValueError, match="duration"):
            Measurement(**{**fields, "duration": 0.0})
        with pytest.raises(ValueError, match="workload names"):
            Measurement(**fields, thread_workloads=("a",))
        assert Measurement(**fields, thread_workloads=("a", "a")).threads == 2

    def test_idle_threads_report_zero_ipc(self, machine):
        idle = machine.run_idle(MachineConfig(2, 2), duration=1.0)
        assert idle.thread_ipcs() == (0.0,) * 4


class TestRunner:
    def test_single_run_matches_the_machine(self, power7_arch, kernel):
        runner = MeasurementRunner(Machine(power7_arch), duration=1.0)
        assert runner.last_report is None
        config = MachineConfig(2, 2)
        assert runner.run(kernel(), config) == Machine(power7_arch).run(
            kernel(), config, 1.0
        )
        assert runner.last_report.ok

    def test_service_url_runs_remotely_bit_identical(
        self, power7_arch, kernel, service_url
    ):
        machine = Machine(power7_arch, seed=3)
        remote = MeasurementRunner(machine, duration=1.0, executor=service_url)
        assert isinstance(remote.executor, RemoteExecutor)
        assert (remote.executor.arch, remote.executor.seed) == ("POWER7", 3)
        local = MeasurementRunner(Machine(power7_arch, seed=3), duration=1.0)
        workloads = [kernel(), hi_ilp_kernel(64)]
        configs = [MachineConfig(4, 2), MachineConfig(8, 4)]
        assert remote.run_sweep(workloads, configs) == local.run_sweep(
            workloads, configs
        )
        assert remote.last_report.ok

    def test_sweep_covers_configs(self, machine, kernel):
        runner = MeasurementRunner(machine, duration=1.0)
        sweep = runner.run_sweep([kernel()])
        assert len(sweep) == 24
        for config, measurements in sweep.items():
            assert measurements[0].config == config

    def test_sweep_crosses_p_states(self, machine, kernel):
        runner = MeasurementRunner(machine, duration=1.0)
        p_states = (get_pstate("nominal"), get_pstate("p2"))
        sweep = runner.run_sweep([kernel()], p_states=p_states)
        assert len(sweep) == 48
        labels = [config.label for config in sweep]
        assert "1-1" in labels and "1-1@p2" in labels
        nominal = sweep[MachineConfig(8, 1)][0]
        scaled = sweep[MachineConfig(8, 1).with_p_state(p_states[1])][0]
        assert scaled.mean_power < nominal.mean_power

    def test_sweep_preserves_explicit_p_states(self, machine, kernel):
        """Caller-provided operating points must be measured as given,
        not silently reset to nominal."""
        runner = MeasurementRunner(machine, duration=1.0)
        throttled = MachineConfig(2, 2).with_p_state(get_pstate("p2"))
        sweep = runner.run_sweep([kernel()], configs=[throttled])
        assert list(sweep) == [throttled]
        assert sweep[throttled][0].config.label == "2-2@p2"

    def test_sweep_deduplicates_collapsing_configs(self, machine, kernel):
        runner = MeasurementRunner(machine, duration=1.0)
        config = MachineConfig(1, 1)
        sweep = runner.run_sweep(
            [kernel()],
            configs=[config, config.with_p_state(get_pstate("nominal"))],
            p_states=(get_pstate("nominal"),),
        )
        assert len(sweep) == 1

    def test_baseline(self, machine):
        runner = MeasurementRunner(machine, duration=1.0)
        baseline = runner.baseline()
        assert baseline.workload_name == "<idle>"
        assert baseline.total_counters()["PM_RUN_CYC"] == 0


class TestSensors:
    def test_stable_seed_is_process_independent(self):
        assert stable_seed("a", 1, 2.0) == stable_seed("a", 1, 2.0)
        assert stable_seed("a") != stable_seed("b")

    def test_trace_statistics_match_summary(self):
        sensor = PowerSensor()
        summary = sensor.measure(100.0, duration=10.0, seed=42)
        trace = sensor.synthesize_trace(100.0, duration=10.0, seed=42)
        assert trace.size == summary.sample_count == 10_000
        # Same run offset applies to both paths.
        assert float(np.mean(trace)) == pytest.approx(
            summary.mean_power, abs=0.05
        )

    def test_quantisation(self):
        sensor = PowerSensor()
        trace = sensor.synthesize_trace(80.0, duration=0.1, seed=1)
        milliwatts = trace * 1000
        assert np.allclose(milliwatts, np.round(milliwatts))
