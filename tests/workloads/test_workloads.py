"""Tests for SPEC proxies, extreme cases, DAXPY and the random policy."""

import dataclasses
import math

import pytest

from repro.sim import MachineConfig, get_pstate
from repro.workloads import (
    RandomBenchmarkPolicy,
    daxpy_kernels,
    extreme_kernels,
    get_mix,
    mix_scenarios,
    spec_cpu2006,
)
from repro.workloads.profiles import ActivityProfile, ProfiledWorkload
from repro.workloads.spec import SPEC_NAMES, spec_profile


@pytest.fixture(scope="module")
def arch(power7_arch):
    return power7_arch


class TestMixScenarios:
    def test_named_scenarios_stable(self):
        names = [scenario.name for scenario in mix_scenarios(64)]
        assert names == [
            "ilp-vs-memory", "vector-vs-scalar", "antagonist-lsu",
            "chain-vs-throughput",
        ]
        with pytest.raises(KeyError, match="unknown mix"):
            get_mix("no-such-mix")

    def test_mix_kernels_honour_period_contract(self):
        for scenario in mix_scenarios(48):
            for kernel in scenario.workloads:
                kernel.validate_period()

    def test_scenarios_measure_through_run_many(self, machine):
        config = MachineConfig(2, 2)
        placements = [
            scenario.placement(config) for scenario in mix_scenarios(64)
        ]
        measurements = machine.run_many(placements, config, duration=1.0)
        for scenario, measurement in zip(mix_scenarios(64), measurements):
            assert measurement.workload_name == scenario.name
            assert measurement.is_heterogeneous
            assert measurement.mean_power > 0

    def test_scenarios_measure_at_non_nominal_p_state(self, machine):
        config = MachineConfig(2, 2)
        throttled = config.with_p_state(get_pstate("p3"))
        scenario = get_mix("ilp-vs-memory", 64)
        nominal = machine.run(scenario.placement(config), config)
        slow = machine.run(scenario.placement(throttled), throttled)
        assert slow.mean_power < nominal.mean_power


class TestSpecSuite:
    def test_has_28_benchmarks_in_paper_order(self):
        suite = spec_cpu2006()
        assert len(suite) == 28
        assert [w.name for w in suite] == list(SPEC_NAMES)

    def test_profiles_are_diverse(self):
        ipcs = [spec_profile(name).ipc for name in SPEC_NAMES]
        assert min(ipcs) < 0.6
        assert max(ipcs) > 2.0

    def test_memory_bound_benchmarks_touch_memory(self):
        for name in ("mcf", "lbm", "milc"):
            profile = spec_profile(name)
            assert profile.locality["MEM"] >= 0.05

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            spec_profile("doom3")

    def test_runs_on_machine(self, machine, arch):
        workload = spec_cpu2006()[0]
        measurement = machine.run(workload, MachineConfig(2, 4))
        assert measurement.threads == 8
        ipc = arch.ipc(measurement.thread_counters[0])
        expected = spec_profile("perlbench").thread_ipc(4)
        assert ipc == pytest.approx(expected, rel=0.02)

    def test_smt_scaling_reduces_per_thread_ipc(self):
        profile = spec_profile("gcc")
        assert profile.thread_ipc(4) < profile.thread_ipc(2) < profile.thread_ipc(1)

    def test_energy_bias_deterministic(self):
        a = ProfiledWorkload(spec_profile("mcf"))
        b = ProfiledWorkload(spec_profile("mcf"))
        assert a._bias == b._bias

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ActivityProfile(
                name="bad", ipc=1.0, unit_mix={}, memory_per_insn=0.1,
                locality={"L1": 0.5},
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ipc", math.nan),
            ("ipc", math.inf),
            ("ipc", 0.0),
            ("ipc", "1.2"),
            ("memory_per_insn", math.nan),
            ("memory_per_insn", -0.1),
            ("alternation", math.nan),
            ("store_fraction", math.nan),
            ("unit_mix", {"FXU": math.inf}),
            ("unit_mix", {"FXU": -1.0}),
            ("locality", {"L1": math.nan, "MEM": 1.0}),
            ("locality", [("L1", 1.0)]),
            ("smt_scaling", {1: 1.0, 2: math.nan}),
            ("smt_scaling", "1.45"),
            ("unit_mix", None),
            ("name", {"x": 1}),
        ],
    )
    def test_profile_rejects_bad_values(self, field, value):
        fields = dataclasses.asdict(spec_profile("gcc"))
        fields[field] = value
        with pytest.raises(ValueError):
            ActivityProfile(**fields)

    def test_every_spec_profile_still_validates(self):
        for workload in spec_cpu2006():
            profile = workload.profile
            assert ActivityProfile(**dataclasses.asdict(profile)) == profile


class TestExtremeCases:
    def test_all_six_cases(self, arch):
        kernels = extreme_kernels(arch, loop_size=128)
        assert len(kernels) == 6

    def test_high_vs_low_ipc(self, machine, arch):
        kernels = extreme_kernels(arch, loop_size=128)
        config = MachineConfig(1, 1)

        def ipc(name):
            counters = machine.run(kernels[name], config).thread_counters[0]
            return arch.ipc(counters)

        assert ipc("FXU High") > 5 * ipc("FXU Low")
        assert ipc("VSU High") > 5 * ipc("VSU Low")

    def test_memory_case_misses_everywhere(self, machine, arch):
        kernels = extreme_kernels(arch, loop_size=256)
        counters = machine.run(
            kernels["Main memory"], MachineConfig(1, 1)
        ).thread_counters[0]
        refs = counters["PM_LD_REF_L1"] + counters["PM_ST_REF_L1"]
        assert counters["PM_DATA_FROM_LMEM"] == pytest.approx(refs, rel=0.01)

    def test_unknown_case_raises(self, arch):
        from repro.workloads.extreme import build_extreme_kernel
        with pytest.raises(KeyError):
            build_extreme_kernel("GPU High", arch)


class TestDaxpy:
    def test_family(self, arch):
        kernels = daxpy_kernels(arch, loop_size=128)
        assert len(kernels) == 4
        for kernel in kernels:
            counts = kernel.mnemonic_counts()
            assert counts["lfd"] > counts["stfd"]
            assert "fmadd" in counts

    def test_l1_resident(self, machine, arch):
        kernel = daxpy_kernels(arch, loop_size=256)[0]
        counters = machine.run(kernel, MachineConfig(1, 1)).thread_counters[0]
        assert counters["PM_DATA_FROM_L2"] == 0
        assert counters["PM_DATA_FROM_LMEM"] == 0

    def test_unroll_never_hurts_ipc(self, machine, arch):
        """Longer dependency distances expose at least as much ILP;
        once the unit bound dominates, IPC saturates."""
        config = MachineConfig(1, 1)
        tight = daxpy_kernels(arch, unrolls=(1,), loop_size=256)[0]
        unrolled = daxpy_kernels(arch, unrolls=(8,), loop_size=256)[0]
        ipc_tight = arch.ipc(machine.run(tight, config).thread_counters[0])
        ipc_unrolled = arch.ipc(machine.run(unrolled, config).thread_counters[0])
        assert ipc_unrolled >= ipc_tight * 0.99


class TestRandomPolicy:
    def test_builds_requested_count(self, arch):
        kernels = RandomBenchmarkPolicy(arch, loop_size=256, seed=1).build(15)
        assert len(kernels) == 15
        assert len({k.digest() for k in kernels}) == 15

    def test_deterministic(self, arch):
        a = RandomBenchmarkPolicy(arch, loop_size=128, seed=5).build(4)
        b = RandomBenchmarkPolicy(arch, loop_size=128, seed=5).build(4)
        assert [k.digest() for k in a] == [k.digest() for k in b]

    def test_all_run_on_machine(self, machine, arch):
        for kernel in RandomBenchmarkPolicy(arch, loop_size=256, seed=2).build(10):
            measurement = machine.run(kernel, MachineConfig(1, 2))
            assert measurement.mean_power > 0
