"""Tests for the analytic pipeline model, machine facade, and sensors.

Architecture, machine and the uniform-kernel builder come from the
shared fixtures in ``tests/conftest.py``.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeasurementError
from repro.sim import (
    Kernel,
    KernelInstruction,
    MachineConfig,
    PState,
    get_pstate,
    parse_config,
    standard_configurations,
)
from repro.sim.pipeline import CorePipelineModel


@pytest.fixture(scope="module")
def pipeline(power7_arch):
    return CorePipelineModel(power7_arch)


class TestMachineConfig:
    def test_labels(self):
        assert MachineConfig(4, 2).label == "4-2"
        assert parse_config("8-4") == MachineConfig(8, 4)

    def test_threads(self):
        assert MachineConfig(8, 4).threads == 32
        assert not MachineConfig(3, 1).smt_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(0, 1)
        with pytest.raises(ValueError):
            MachineConfig(1, 3)

    @pytest.mark.parametrize(
        "cores, smt",
        [
            (math.nan, 1),
            (math.inf, 1),
            (2.0, 1),
            (True, 1),
            ("2", 1),
            (1, 2.0),
            (1, True),
        ],
    )
    def test_non_integer_cmp_smt_rejected(self, cores, smt):
        # NaN compares false against every bound; floats and bools
        # would render into the label, the store key and the noise seed.
        with pytest.raises(ValueError):
            MachineConfig(cores, smt)

    @pytest.mark.parametrize(
        "freq, volt",
        [
            (math.nan, 1.0),
            (1.0, math.nan),
            (math.inf, 1.0),
            (1.0, -math.inf),
            (0.0, 1.0),
            (True, 1.0),
            ("1", 1.0),
            (None, 1.0),
        ],
    )
    def test_bad_pstate_scales_rejected(self, freq, volt):
        with pytest.raises(ValueError):
            PState("odd", freq, volt)

    @pytest.mark.parametrize("name", ["", None, 5, {"x": 1}])
    def test_pstate_name_must_be_a_string(self, name):
        with pytest.raises(ValueError):
            PState(name, 1.0, 1.0)

    def test_valid_pstates_unaffected(self):
        assert PState("half", 1, 0.5).dynamic_scale == 0.25
        assert MachineConfig(2, 2, get_pstate("p2")).label == "2-2@p2"

    def test_standard_sweep(self):
        configs = standard_configurations(8, (1, 2, 4))
        assert len(configs) == 24
        assert configs[0].label == "1-1"
        assert configs[-1].label == "8-4"


class TestPipelineBounds:
    def test_table3_sustained_ipcs(self, pipeline, small_kernel_factory):
        expectations = {
            "addic": 2.0, "add": 3.5, "mulldo": 1.4, "xvmaddadp": 2.0,
            "stfd": 0.48, "lhaux": 1.0,
        }
        for mnemonic, expected in expectations.items():
            level = "L1" if mnemonic in ("stfd", "lhaux") else None
            activity = pipeline.activity(
                small_kernel_factory(mnemonic, count=512, level=level)
            )
            assert activity.ipc == pytest.approx(expected, rel=0.02), mnemonic

    def test_chain_ipc_is_inverse_latency(
        self, pipeline, power7_arch, small_kernel_factory
    ):
        for mnemonic in ("fadd", "mulld", "subf"):
            activity = pipeline.activity(
                small_kernel_factory(mnemonic, count=512, dep=1)
            )
            expected = 1.0 / power7_arch.props(mnemonic).latency
            assert activity.ipc == pytest.approx(expected, rel=0.02)

    def test_longer_distance_raises_ipc(self, pipeline, small_kernel_factory):
        slow = pipeline.activity(
            small_kernel_factory("fadd", count=512, dep=1)
        ).ipc
        fast = pipeline.activity(
            small_kernel_factory("fadd", count=512, dep=4)
        ).ipc
        assert fast == pytest.approx(4 * slow, rel=0.05)

    def test_memory_bound_dominates_for_mem_streams(
        self, pipeline, small_kernel_factory
    ):
        stream = small_kernel_factory("ld", count=512, level="MEM")
        bounds = pipeline.bounds(stream)
        assert bounds.binding == "memory"
        assert pipeline.activity(stream).ipc < 0.1

    def test_smt_shares_unit_capacity(self, pipeline, small_kernel_factory):
        kernel = small_kernel_factory("addic", count=512)
        single = pipeline.activity(kernel, smt=1).ipc
        doubled = pipeline.activity(kernel, smt=2).ipc
        assert doubled < single
        assert doubled == pytest.approx(single / 2, rel=0.1)

    def test_smt_does_not_hurt_latency_bound_threads(
        self, pipeline, small_kernel_factory
    ):
        chain = small_kernel_factory("fadd", count=512, dep=1)
        assert pipeline.activity(chain, smt=4).ipc == pytest.approx(
            pipeline.activity(chain, smt=1).ipc
        )

    def test_alternation(self, pipeline):
        blocked = Kernel("blocked", tuple(
            [KernelInstruction("subf")] * 8 + [KernelInstruction("fadd")] * 8
        ))
        interleaved = Kernel("interleaved", tuple(
            [KernelInstruction("subf"), KernelInstruction("fadd")] * 8
        ))
        assert pipeline.alternation(interleaved) == 1.0
        assert pipeline.alternation(blocked) < 0.2

    @given(st.integers(1, 31))
    @settings(max_examples=10, deadline=None)
    def test_dependency_bound_monotone_in_distance(
        self, pipeline, small_kernel_factory, distance
    ):
        near = pipeline.bounds(
            small_kernel_factory("fadd", count=64, dep=distance)
        )
        far = pipeline.bounds(
            small_kernel_factory("fadd", count=64, dep=distance + 1)
        )
        assert far.dependency <= near.dependency + 1e-9


class TestMachine:
    def test_run_produces_measurement(self, machine, small_kernel_factory):
        kernel = small_kernel_factory("add", count=512)
        measurement = machine.run(kernel, MachineConfig(2, 2))
        assert measurement.threads == 4
        assert measurement.mean_power > 0
        assert measurement.sample_count == 10_000

    def test_counters_consistent_with_ipc(
        self, machine, power7_arch, small_kernel_factory
    ):
        kernel = small_kernel_factory("addic", count=512)
        measurement = machine.run(kernel, MachineConfig(1, 1))
        assert power7_arch.ipc(
            measurement.thread_counters[0]
        ) == pytest.approx(2.0, rel=0.05)

    def test_power_grows_with_cores(self, machine, small_kernel_factory):
        kernel = small_kernel_factory("xvmaddadp", count=512)
        powers = [
            machine.run(kernel, MachineConfig(cores, 1)).mean_power
            for cores in (1, 2, 4, 8)
        ]
        assert powers == sorted(powers)

    def test_idle_below_any_workload(self, machine, small_kernel_factory):
        idle = machine.run_idle().mean_power
        busy = machine.run(
            small_kernel_factory("add", count=512), MachineConfig(1, 1)
        )
        assert idle < busy.mean_power

    def test_measurements_are_reproducible(
        self, machine, small_kernel_factory
    ):
        kernel = small_kernel_factory("subf", count=512)
        a = machine.run(kernel, MachineConfig(3, 2))
        b = machine.run(kernel, MachineConfig(3, 2))
        assert a.mean_power == b.mean_power

    def test_distinct_kernels_same_name_not_aliased(self, machine):
        a = Kernel("same", (KernelInstruction("addic"),) * 64)
        b = Kernel("same", (KernelInstruction("xvmaddadp"),) * 64)
        config = MachineConfig(1, 1)
        assert (
            machine.run(a, config).mean_power
            != machine.run(b, config).mean_power
        )

    def test_invalid_config_rejected(self, machine, small_kernel_factory):
        with pytest.raises(MeasurementError):
            machine.run(small_kernel_factory("add"), MachineConfig(16, 1))

    def test_non_workload_rejected(self, machine):
        with pytest.raises(MeasurementError):
            machine.run(object(), MachineConfig(1, 1))

    def test_order_changes_power_not_counters(self, machine, power7_arch):
        """Same mix, different order: power moves, activity does not --
        the substrate mechanism behind the paper's 17% observation."""
        blocked = Kernel("ord-blocked", tuple(
            [KernelInstruction("mullw")] * 32
            + [KernelInstruction("xvmaddadp")] * 32
        ) * 4)
        interleaved = Kernel("ord-inter", tuple(
            [KernelInstruction("mullw"), KernelInstruction("xvmaddadp")] * 32
        ) * 4)
        config = MachineConfig(8, 1)
        power_blocked = machine.run(blocked, config)
        power_inter = machine.run(interleaved, config)
        assert power_inter.mean_power > power_blocked.mean_power
        assert power7_arch.ipc(
            power_inter.thread_counters[0]
        ) == pytest.approx(
            power7_arch.ipc(power_blocked.thread_counters[0]), rel=0.01
        )
