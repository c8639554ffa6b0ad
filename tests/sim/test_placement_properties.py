"""Property tests for placements, mixed SMT contention, and p-states.

Seeded random exploration (plain ``random.Random``, no hypothesis):
each property is checked over a deterministic family of random kernels
and shapes, so failures reproduce bit-for-bit.

The three contract properties of the placement/p-state layer:

1. a homogeneous placement of kernel K reproduces ``Machine.run(K)``
   bit-for-bit -- same counters, same noise draws;
2. mixed-placement chip power is invariant under permuting co-runners
   within a core (and under permuting whole cores) -- exactly, not
   approximately;
3. the nominal p-state is the identity: configurations carrying an
   explicitly constructed nominal operating point measure bit-for-bit
   like pre-DVFS configurations.
"""

import random

import pytest

from repro.errors import MeasurementError
from repro.sim import (
    Kernel,
    KernelInstruction,
    MachineConfig,
    NOMINAL,
    Placement,
    PState,
)
from repro.sim.pipeline import CorePipelineModel
from repro.sim.power import GroundTruthPowerModel
from tests.oracle import chip_power, scaled, thread_dynamic_power

POOL = (
    "addic", "mulldo", "add", "lwz", "xvmaddadp", "fadd", "stfd", "ld",
    "mullw", "divd",
)
LEVELS = (None, "L1", "L2", "L3", "MEM")
MEMORY_POOL = ("lwz", "stfd", "ld")
CONFIGS = (
    MachineConfig(1, 2),
    MachineConfig(1, 4),
    MachineConfig(2, 2),
    MachineConfig(4, 4),
    MachineConfig(8, 1),
)


def random_kernel(seed, size=None):
    rng = random.Random(seed)
    size = size or rng.randint(4, 96)
    instructions = []
    for index in range(size):
        mnemonic = rng.choice(POOL)
        level = (
            rng.choice(LEVELS) if mnemonic in MEMORY_POOL else None
        )
        distance = (
            rng.randint(1, size - 1)
            if size > 1 and rng.random() < 0.3
            else None
        )
        instructions.append(
            KernelInstruction(
                mnemonic,
                dep_distance=distance,
                source_level=level,
                address=0x4000_0000 + index * 256 if level else None,
            )
        )
    return Kernel(
        name=f"prop-{seed}",
        instructions=tuple(instructions),
        operand_entropy=rng.choice([0.0, 0.5, 1.0]),
    )


def assert_identical(a, b):
    """Bit-for-bit measurement equality, ignoring the per-thread
    workload-name annotation the placement path adds."""
    assert a.workload_name == b.workload_name
    assert a.config == b.config
    assert a.mean_power == b.mean_power
    assert a.power_std == b.power_std
    assert a.sample_count == b.sample_count
    assert a.thread_counters == b.thread_counters


class TestHomogeneousDegeneracy:
    def test_homogeneous_placement_reproduces_run_bit_for_bit(self, machine):
        for seed in range(8):
            kernel = random_kernel(seed)
            config = CONFIGS[seed % len(CONFIGS)]
            plain = machine.run(kernel, config)
            placed = machine.run(
                Placement.homogeneous(kernel, config), config
            )
            assert_identical(plain, placed)
            assert placed.thread_workloads == (kernel.name,) * config.threads

    def test_homogeneous_placement_through_run_many(self, machine):
        kernels = [random_kernel(seed) for seed in range(20, 24)]
        config = MachineConfig(2, 4)
        placements = [
            Placement.homogeneous(kernel, config) for kernel in kernels
        ]
        batched = machine.run_many(placements, config)
        singles = [machine.run(kernel, config) for kernel in kernels]
        for one, many in zip(singles, batched):
            assert_identical(one, many)

    def test_profiled_workload_placement_matches_run(self, machine):
        from repro.workloads import spec_cpu2006

        workload = spec_cpu2006()[0]
        config = MachineConfig(4, 2)
        plain = machine.run(workload, config)
        placed = machine.run(
            Placement.homogeneous(workload, config), config
        )
        assert_identical(plain, placed)


class TestPlacementIdentity:
    def test_each_distinct_workload_is_keyed_once(self, monkeypatch):
        """A 32-thread mix of two kernels keys each kernel once, yet its
        salts and orders are the per-thread ones, bit for bit."""
        from repro.sim import parse_topology
        from repro.sim import placement as placement_module
        from repro.sim.sensors import stable_seed

        a, b = random_kernel(501), random_kernel(502)
        config = MachineConfig(8, 4)
        mix = Placement.round_robin((a, b, b), config, "mix")
        assert mix.threads == 32
        topology = parse_topology("4big+4little")
        calls = {"workload_key": [], "strict_workload_key": []}
        for name, calls_of in calls.items():
            original = getattr(placement_module, name)

            def counting(workload, original=original, calls_of=calls_of):
                calls_of.append(workload)
                return original(workload)

            monkeypatch.setattr(placement_module, name, counting)
        assert not mix.is_homogeneous
        order = mix.canonical_order()
        salt = mix.canonical_salt()
        topology_salt = mix.canonical_salt_for(topology)
        segment = mix.segment_order(2, 6)
        assert not mix.is_homogeneous
        for calls_of in calls.values():
            assert sorted(map(id, calls_of)) == sorted([id(a), id(b)])
        monkeypatch.undo()

        key = placement_module.workload_key
        workloads = mix.core_groups
        assert salt == stable_seed(
            *(key(workloads[core][slot]) for core, slot in order)
        )
        per_core = {
            core: sorted(range(4), key=lambda slot: key(workloads[core][slot]))
            for core in range(8)
        }

        def core_key(core):
            return tuple(key(workloads[core][slot]) for slot in per_core[core])

        def expected_order(start, stop):
            return [
                (core, slot)
                for core in sorted(range(start, stop), key=core_key)
                for slot in per_core[core]
            ]

        assert list(order) == expected_order(0, 8)
        assert segment == expected_order(2, 6)
        parts = []
        for index, (start, stop) in enumerate(((0, 4), (4, 8))):
            parts.append(("cluster", index))
            parts += [
                key(workloads[core][slot])
                for core, slot in expected_order(start, stop)
            ]
        assert topology_salt == stable_seed(*parts)


class TestPermutationInvariance:
    def test_within_core_permutation_leaves_power_unchanged(self, machine):
        for seed in range(6):
            rng = random.Random(1000 + seed)
            kernels = [
                random_kernel(100 + 4 * seed + index) for index in range(4)
            ]
            config = MachineConfig(2, 4)
            base = Placement(
                name=f"perm-{seed}",
                core_groups=(tuple(kernels), tuple(reversed(kernels))),
            )
            reference = machine.run(base, config)
            for _ in range(3):
                groups = [list(group) for group in base.core_groups]
                for group in groups:
                    rng.shuffle(group)
                shuffled = Placement(
                    name=f"perm-{seed}",
                    core_groups=tuple(tuple(group) for group in groups),
                )
                permuted = machine.run(shuffled, config)
                assert permuted.mean_power == reference.mean_power
                assert permuted.power_std == reference.power_std
                # Per-thread counters permute with the placement: same
                # multiset, order follows the declaration.
                key = lambda counters: sorted(sorted(c.items()) for c in counters)
                assert key(permuted.thread_counters) == key(
                    reference.thread_counters
                )

    def test_whole_core_permutation_leaves_power_unchanged(self, machine):
        a, b, c, d = (random_kernel(200 + index) for index in range(4))
        config = MachineConfig(2, 2)
        first = Placement("cores", ((a, b), (c, d)))
        second = Placement("cores", ((c, d), (a, b)))
        assert (
            machine.run(first, config).mean_power
            == machine.run(second, config).mean_power
        )

    def test_counters_follow_declaration_order(self, machine):
        fast = random_kernel(301, size=16)
        slow = Kernel(
            "chain", (KernelInstruction("fadd", dep_distance=1),) * 16
        )
        config = MachineConfig(1, 2)
        measurement = machine.run(Placement("ab", ((fast, slow),)), config)
        flipped = machine.run(Placement("ab", ((slow, fast),)), config)
        assert measurement.thread_workloads == (fast.name, "chain")
        assert flipped.thread_workloads == ("chain", fast.name)
        assert measurement.thread_counters[0] == flipped.thread_counters[1]
        assert measurement.thread_counters[1] == flipped.thread_counters[0]


class TestMixedContention:
    def test_mixed_solver_degenerates_to_homogeneous(self, power7_arch):
        pipeline = CorePipelineModel(power7_arch)
        for seed in (11, 13, 17):
            kernel = random_kernel(seed)
            summary = pipeline.summarize(kernel)
            for smt in (2, 4):
                homogeneous = pipeline.activity_from_summary(summary, smt)
                mixed = pipeline.mixed_core_activities([summary] * smt, smt)
                for activity in mixed:
                    assert activity.ipc == pytest.approx(
                        homogeneous.ipc, rel=1e-9
                    )

    def test_latency_bound_thread_immune_to_co_runner(self, machine):
        chain = Kernel(
            "imm-chain", (KernelInstruction("fadd", dep_distance=1),) * 32
        )
        hog = Kernel("imm-hog", (KernelInstruction("addic"),) * 32)
        config = MachineConfig(1, 2)
        solo = machine.run(chain, config)
        mixed = machine.run(Placement("imm", ((chain, hog),)), config)
        assert mixed.thread_ipc(0) == pytest.approx(
            solo.thread_ipc(0), rel=1e-6
        )

    def test_asymmetric_corunner_beats_self_coschedule(self, machine):
        """The SMT story: a compute thread keeps more of its throughput
        next to a memory-bound thread than next to a copy of itself."""
        compute = Kernel("asym-ilp", (KernelInstruction("addic"),) * 64)
        stalled = Kernel(
            "asym-mem",
            tuple(
                KernelInstruction(
                    "ld", source_level="MEM", address=0x5000_0000 + i * 4096
                )
                for i in range(64)
            ),
        )
        config = MachineConfig(1, 4)
        with_self = machine.run(compute, config)
        mixed = machine.run(
            Placement(
                "asym", ((compute, stalled, stalled, stalled),)
            ),
            config,
        )
        assert mixed.thread_ipc(0) > with_self.thread_ipc(0)

    def test_same_named_distinct_workloads_never_alias(self, machine):
        """Two different profiled workloads sharing a name must not be
        collapsed into one homogeneous copy."""
        from repro.workloads.profiles import ActivityProfile, ProfiledWorkload

        def profile(ipc):
            return ActivityProfile(
                name="alias",
                ipc=ipc,
                unit_mix={"FXU": 0.5, "LSU": 0.4},
                memory_per_insn=0.3,
                locality={"L1": 0.9, "L2": 0.06, "L3": 0.03, "MEM": 0.01},
            )

        fast = ProfiledWorkload(profile(2.0))
        slow = ProfiledWorkload(profile(0.2))
        config = MachineConfig(1, 2)
        placement = Placement("alias-mix", ((fast, slow),))
        assert not placement.is_homogeneous
        measurement = machine.run(placement, config)
        ipcs = measurement.thread_ipcs()
        assert ipcs[0] > 4 * ipcs[1]

    def test_repeated_mixed_cores_solved_once(self, machine):
        a = random_kernel(970, size=24)
        b = random_kernel(971, size=24)
        config = MachineConfig(8, 2)
        placement = Placement.round_robin([a, b], config, name="memo-mix")
        machine._mixed_cache.clear()
        measurement = machine.run(placement, config)
        # Eight identical (a, b) cores share one contention solve and
        # one counter dict per distinct thread activity.
        assert len(machine._mixed_cache) == 1
        assert measurement.thread_counters[0] is measurement.thread_counters[2]
        assert measurement.thread_counters[1] is measurement.thread_counters[3]

    @pytest.mark.parametrize(
        "name, groups, message",
        [
            ("", (("w",),), "needs a name"),
            ("p", (), "has no cores"),
            ("p", (("w",), ()), "core 1 is empty"),
        ],
        ids=["unnamed", "no-cores", "empty-core"],
    )
    def test_malformed_placements_rejected(self, name, groups, message):
        with pytest.raises(ValueError, match=message):
            Placement(name, groups)

    def test_round_robin_needs_a_workload(self):
        with pytest.raises(ValueError, match="at least one workload"):
            Placement.round_robin((), MachineConfig(2, 2), name="none")

    def test_topology_core_count_validated(self):
        from repro.sim import parse_topology

        topology = parse_topology("2big-2+2little")
        kernel = random_kernel(402)
        fits = Placement(
            "fits", ((kernel, kernel), (kernel, kernel), (kernel,), (kernel,))
        )
        fits.validate_against(topology)
        short = Placement("short", fits.core_groups[:3])
        with pytest.raises(ValueError, match="has 3 cores, topology"):
            short.validate_against(topology)

    def test_placement_shape_validated(self, machine):
        kernel = random_kernel(401)
        with pytest.raises(MeasurementError):
            machine.run(
                Placement.homogeneous(kernel, MachineConfig(2, 2)),
                MachineConfig(4, 2),
            )
        # Ragged core groups construct (heterogeneous topologies need
        # per-cluster widths) but never fit a homogeneous config,
        # whose SMT mode is chip-wide.
        ragged = Placement("ragged", ((kernel, kernel), (kernel,)))
        with pytest.raises(ValueError):
            ragged.validate_against(MachineConfig(2, 2))
        with pytest.raises(MeasurementError):
            machine.run(ragged, MachineConfig(2, 2))


class TestPStateIdentity:
    def test_nominal_pstate_reproduces_pre_dvfs_exactly(self, machine):
        explicit_nominal = PState("nominal", 1.0, 1.0)
        for seed in range(6):
            kernel = random_kernel(500 + seed)
            config = CONFIGS[seed % len(CONFIGS)]
            pre = machine.run(kernel, config)
            post = machine.run(
                kernel, config.with_p_state(explicit_nominal)
            )
            assert_identical(pre, post)

    def test_nominal_pstate_reproduces_mixed_placements_exactly(self, machine):
        config = MachineConfig(2, 2)
        placement = Placement(
            "nom-mix",
            tuple(
                (random_kernel(600 + 2 * core), random_kernel(601 + 2 * core))
                for core in range(2)
            ),
        )
        pre = machine.run(placement, config)
        post = machine.run(
            placement, config.with_p_state(PState("nominal", 1.0, 1.0))
        )
        assert_identical(pre, post)

    def test_frequency_scales_rates_not_ipc(self, machine):
        kernel = random_kernel(700)
        config = MachineConfig(2, 2)
        slow = config.with_p_state(PState("half", 0.5, 1.0))
        nominal = machine.run(kernel, config)
        scaled = machine.run(kernel, slow)
        n0, s0 = nominal.thread_counters[0], scaled.thread_counters[0]
        assert s0["PM_RUN_CYC"] == pytest.approx(0.5 * n0["PM_RUN_CYC"])
        assert s0["PM_RUN_INST_CMPL"] == pytest.approx(
            0.5 * n0["PM_RUN_INST_CMPL"]
        )
        assert scaled.thread_ipc(0) == pytest.approx(nominal.thread_ipc(0))

    def test_voltage_scales_dynamic_power_quadratically(self, power7_arch):
        pipeline = CorePipelineModel(power7_arch)
        power_model = GroundTruthPowerModel(power7_arch)
        kernel = random_kernel(800)
        activity = pipeline.activity(kernel, smt=1)
        config = MachineConfig(4, 1)
        nominal = chip_power(power_model, [activity] * 4, config)
        dimmed = chip_power(
            power_model,
            [activity] * 4,
            config.with_p_state(PState("dim", 1.0, 0.9)),
        )
        dynamic = 4 * thread_dynamic_power(power_model, activity)
        assert dimmed == pytest.approx(
            nominal - dynamic * (1.0 - 0.9 ** 2)
        )
        # Static power never scales with the operating point: an idle
        # chip draws the same watts at any p-state.
        idle_activities = [scaled(activity, 0.0)] * 4
        assert chip_power(
            power_model,
            idle_activities,
            config.with_p_state(PState("dim", 0.5, 0.7)),
        ) == chip_power(power_model, idle_activities, config)

    def test_mixed_smt4_placement_at_non_nominal_p_state_via_run_many(
        self, machine
    ):
        """The acceptance scenario: two distinct kernels sharing one
        SMT-4 core, measured at a non-nominal operating point through
        the batched entry path."""
        compute = random_kernel(950, size=32)
        stalled = Kernel(
            "accept-mem",
            tuple(
                KernelInstruction(
                    "ld", source_level="MEM", address=0x6000_0000 + i * 4096
                )
                for i in range(32)
            ),
        )
        config = MachineConfig(1, 4, PState("p2", 0.85, 0.94))
        placement = Placement(
            "accept-mix", ((compute, stalled, compute, stalled),)
        )
        nominal_config = MachineConfig(1, 4)
        scaled, nominal = machine.run_many(
            [placement, placement], config
        )[0], machine.run(placement, nominal_config)
        assert scaled.config.label == "1-4@p2"
        assert scaled.is_heterogeneous
        assert scaled.mean_power < nominal.mean_power
        assert scaled.thread_counters[0] != scaled.thread_counters[1]
        assert scaled.thread_ipc(0) == pytest.approx(
            nominal.thread_ipc(0)
        )

    def test_lower_operating_points_draw_less_power(self, machine):
        kernel = random_kernel(900)
        from repro.sim import standard_pstates

        config = MachineConfig(8, 2)
        powers = [
            machine.run(kernel, config.with_p_state(p_state)).mean_power
            for p_state in standard_pstates()
        ]
        assert powers == sorted(powers, reverse=True)
