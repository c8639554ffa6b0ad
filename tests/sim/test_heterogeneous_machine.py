"""Heterogeneous multi-cluster runs: oracle semantics + plane identity."""

import random

import pytest

from repro.errors import MeasurementError
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.sim import (
    CoreCluster,
    ChipTopology,
    Machine,
    MachineConfig,
    Placement,
    parse_topology,
    topology_ladder,
)
from repro.sim.pstate import get_pstate
from repro.workloads.mixes import (
    hi_ilp_kernel,
    memory_bound_kernel,
    scalar_kernel,
    vector_kernel,
)
from repro.workloads.spec import spec_cpu2006
from tests.oracle import OracleMachine
from tests.sim.test_topology_degeneracy import random_kernel

_DURATION = 2.0


@pytest.fixture(scope="module")
def scalar_machine(power7_arch):
    return OracleMachine(power7_arch)


@pytest.fixture(scope="module")
def vector_machine(power7_arch):
    return Machine(power7_arch)


class TestScalarTopologyRuns:
    def test_per_cluster_counters(self, scalar_machine):
        topology = parse_topology("2big-2+4little")
        kernel = hi_ilp_kernel(64)
        measurement = scalar_machine.run(kernel, topology, _DURATION)
        assert measurement.config is topology
        assert len(measurement.thread_counters) == topology.threads
        big = measurement.thread_counters[0]
        little = measurement.thread_counters[-1]
        # Each cluster's cycle counter runs at its own clock.
        assert big["PM_RUN_CYC"] == 3.0e9 * _DURATION
        assert little["PM_RUN_CYC"] == 1.8e9 * _DURATION
        # The narrow core commits fewer instructions per thread.
        assert little["PM_RUN_INST_CMPL"] < big["PM_RUN_INST_CMPL"]

    def test_per_cluster_dvfs_reclocks_its_cluster_only(
        self, scalar_machine
    ):
        kernel = hi_ilp_kernel(64)
        nominal = scalar_machine.run(
            kernel, parse_topology("2big+2little"), _DURATION
        )
        downclocked = scalar_machine.run(
            kernel, parse_topology("2big@p2+2little"), _DURATION
        )
        big_cycles = downclocked.thread_counters[0]["PM_RUN_CYC"]
        assert big_cycles == 3.0e9 * 0.85 * _DURATION
        # Little cluster untouched by the big cluster's p-state.
        assert (
            downclocked.thread_counters[-1]
            == nominal.thread_counters[-1]
        )
        assert downclocked.mean_power < nominal.mean_power

    def test_eco_cluster_draws_less_power(self, scalar_machine):
        kernel = hi_ilp_kernel(64)
        big = scalar_machine.run(
            kernel, parse_topology("4big"), _DURATION
        )
        little = scalar_machine.run(
            kernel, parse_topology("4little"), _DURATION
        )
        assert little.mean_power < big.mean_power

    def test_epi_crossover(self, scalar_machine):
        """Big wins energy/instruction on compute, little on memory."""

        def epi(measurement):
            committed = sum(
                counters["PM_RUN_INST_CMPL"]
                for counters in measurement.thread_counters
            )
            return measurement.mean_power * _DURATION / committed

        compute, memory = hi_ilp_kernel(64), memory_bound_kernel(64)
        big, little = parse_topology("8big"), parse_topology("8little")
        run = scalar_machine.run
        assert epi(run(compute, big, _DURATION)) < epi(
            run(compute, little, _DURATION)
        )
        assert epi(run(memory, little, _DURATION)) < epi(
            run(memory, big, _DURATION)
        )

    def test_profiled_workload_sees_cluster_clock(self, scalar_machine):
        proxy = spec_cpu2006()[0]
        topology = parse_topology("1big+1little")
        measurement = scalar_machine.run(proxy, topology, _DURATION)
        big, little = measurement.thread_counters
        # The proxy's IPC profile replays against each cluster's clock.
        assert little["PM_RUN_INST_CMPL"] == pytest.approx(
            big["PM_RUN_INST_CMPL"] * 1.8 / 3.0
        )

    def test_validation_against_cluster_geometry(self, scalar_machine):
        with pytest.raises(MeasurementError):
            scalar_machine.run(
                hi_ilp_kernel(16),
                ChipTopology(
                    clusters=(
                        CoreCluster(
                            "little", 4, 4, core_class="POWER7_ECO"
                        ),
                    )
                ),
                _DURATION,
            )
        with pytest.raises(MeasurementError):
            scalar_machine.run(
                hi_ilp_kernel(16),
                ChipTopology(
                    clusters=(
                        CoreCluster("odd", 2, 1, core_class="NOSUCH"),
                    )
                ),
                _DURATION,
            )

    def test_idle_on_topology(self, scalar_machine):
        topology = parse_topology("2big+2little")
        idle = scalar_machine.run_idle(topology, _DURATION)
        assert len(idle.thread_counters) == topology.threads
        assert all(
            value == 0.0
            for counters in idle.thread_counters
            for value in counters.values()
        )


class TestTopologyPlacements:
    def test_homogeneous_placement_matches_plain_run(self, scalar_machine):
        topology = parse_topology("2big-2+2little")
        kernel = hi_ilp_kernel(64)
        plain = scalar_machine.run(kernel, topology, _DURATION)
        placed = scalar_machine.run(
            Placement.homogeneous(kernel, topology), topology, _DURATION
        )
        assert placed.mean_power == plain.mean_power
        assert placed.thread_counters == plain.thread_counters

    def test_affinity_mix_beats_inverted(self, scalar_machine):
        """Compute on big and memory on little commits more work than
        the inverted placement."""
        topology = parse_topology("4big+4little")
        compute, memory = hi_ilp_kernel(64), memory_bound_kernel(64)

        def committed(measurement):
            return sum(
                counters["PM_RUN_INST_CMPL"]
                for counters in measurement.thread_counters
            )

        # Core groups are cluster-major: the four big cores, then the
        # four little ones, one thread each.
        right = scalar_machine.run(
            Placement("compute-on-big", ((compute,),) * 4 + ((memory,),) * 4),
            topology,
            _DURATION,
        )
        wrong = scalar_machine.run(
            Placement(
                "inverted-affinity", ((memory,),) * 4 + ((compute,),) * 4
            ),
            topology,
            _DURATION,
        )
        assert committed(right) > committed(wrong)
        assert right.is_heterogeneous

    def test_within_cluster_permutation_invariance(self, scalar_machine):
        topology = parse_topology("2big-2+2little-2")
        a, b = vector_kernel(64), scalar_kernel(64)
        c, d = hi_ilp_kernel(64), memory_bound_kernel(64)
        base = Placement("perm", ((a, b), (a, b), (c, d), (c, d)))
        within = Placement("perm", ((b, a), (a, b), (d, c), (c, d)))
        run = scalar_machine.run
        assert run(base, topology, _DURATION).mean_power == run(
            within, topology, _DURATION
        ).mean_power

    def test_cross_cluster_moves_are_distinct(self, scalar_machine):
        topology = parse_topology("2big+2little")
        a, b = hi_ilp_kernel(64), memory_bound_kernel(64)
        affine = Placement("move", ((a,), (a,), (b,), (b,)))
        swapped = Placement("move", ((b,), (b,), (a,), (a,)))
        run = scalar_machine.run
        assert run(affine, topology, _DURATION).mean_power != run(
            swapped, topology, _DURATION
        ).mean_power

    def test_placement_shape_validated(self, scalar_machine):
        topology = parse_topology("2big-2+2little")
        kernel = hi_ilp_kernel(16)
        wrong_width = Placement(
            "bad", ((kernel,), (kernel,), (kernel,), (kernel,))
        )
        with pytest.raises(MeasurementError):
            scalar_machine.run(wrong_width, topology, _DURATION)

    def test_mixed_core_on_cluster_pipeline(self, scalar_machine):
        """Dissimilar kernels sharing a little core use the eco solver."""
        topology = ChipTopology(
            clusters=(
                CoreCluster("little", 1, 2, core_class="POWER7_ECO"),
            )
        )
        mix = Placement(
            "eco-mix", ((hi_ilp_kernel(64), memory_bound_kernel(64)),)
        )
        measurement = scalar_machine.run(mix, topology, _DURATION)
        assert measurement.thread_ipcs()[0] > measurement.thread_ipcs()[1]


class TestVectorTopologyIdentity:
    def test_heterogeneous_plan_bit_identity(
        self, scalar_machine, vector_machine
    ):
        """The acceptance-bar batch: ladders x p-states x kernels."""
        kernels = [random_kernel(100 + index) for index in range(6)]
        configs = list(topology_ladder(8)) + [
            parse_topology("4big-2@p2+4little-2@p3"),
            parse_topology("2big-4@turbo+6little"),
            MachineConfig(4, 2),
            MachineConfig(8, 4, get_pstate("p2")),
        ]
        cells = [
            PlanCell(kernel, config, _DURATION)
            for config in configs
            for kernel in kernels
        ]
        fast = vector_machine.run_cells(cells)
        reference = scalar_machine.run_cells(cells)
        assert fast == reference

    def test_mixed_durations(self, scalar_machine, vector_machine):
        kernels = [random_kernel(300 + index) for index in range(5)]
        topology = parse_topology("2big+2little@p2")
        cells = [
            PlanCell(kernel, topology, duration)
            for duration in (1.0, 3.0)
            for kernel in kernels
        ]
        assert vector_machine.run_cells(cells) == scalar_machine.run_cells(
            cells
        )

    def test_small_topology_batches_fuse(
        self, vector_machine, scalar_machine
    ):
        topology = parse_topology("1big+1little")
        kernels = [random_kernel(400 + index) for index in range(3)]
        assert vector_machine.run_many(
            kernels, topology, _DURATION
        ) == scalar_machine.run_many(kernels, topology, _DURATION)

    def test_cluster_lane_caches_reported(self, power7_arch):
        machine = Machine(power7_arch)
        kernels = [random_kernel(500 + index) for index in range(10)]
        machine.run_many(
            kernels, parse_topology("2big+2little"), _DURATION
        )
        stats = machine.cache_stats()
        assert "packed:POWER7_ECO" in stats
        assert stats["packed:POWER7_ECO"]["misses"] >= len(kernels)

    def test_eco_base_machine_vector_identity(self):
        """A machine whose *base* class scales energy stays bit-exact.

        Regression: the homogeneous tensor path must apply the base
        architecture's ``energy_scale`` exactly as the oracle's
        ``thread_dynamic_power`` does (per-cluster campaigns run full
        plans on `Machine(POWER7_ECO)` directly).
        """
        from repro.march import get_architecture

        eco = get_architecture("POWER7_ECO")
        assert eco.chip.energy_scale != 1.0
        kernels = [random_kernel(600 + index) for index in range(12)]
        config = MachineConfig(4, 2)
        assert Machine(eco).run_many(
            kernels, config, _DURATION
        ) == OracleMachine(eco).run_many(kernels, config, _DURATION)

    def test_interleaved_lane_chip_sums(self, power7_arch, monkeypatch):
        """Clusters whose core classes interleave, an eco cluster first.

        Each lane's rows then sit at several segment positions of one
        chip, so the plane must add every cluster's dynamic power into
        its chip in cluster order.  The topologies mix with
        MachineConfig cells in one shuffled batch over two windows,
        and the plan-cached program replays the same bits.  A sensor
        quantum of 2**-60 W makes quantization exact, so every bit of
        chip power reaches the readings and a reordered sum shows.
        """
        monkeypatch.setattr("repro.sim.sensors.QUANTUM_W", 2.0**-60)
        monkeypatch.setattr("repro.sim.vector.QUANTUM_W", 2.0**-60)
        configs = [
            parse_topology("2little+2big@p2+1big"),
            parse_topology("1little-2+2big-4@turbo+2little@p3+1big"),
            MachineConfig(4, 2),
            MachineConfig(2, 1, get_pstate("p3")),
        ]
        kernels = [random_kernel(700 + index) for index in range(24)]
        cells = [
            PlanCell(kernel, config, duration)
            for duration in (1.0, 2.5)
            for config in configs
            for kernel in kernels
        ]
        random.Random(19).shuffle(cells)
        reference = OracleMachine(power7_arch).run_cells(cells)
        machine = Machine(power7_arch)
        assert machine.run_cells(cells) == reference
        plan = ExperimentPlan(cells)
        assert machine.run_plan(plan) == reference
        assert machine._vector.cached_program(plan) is not None
        assert machine.run_plan(plan) == reference

    def test_random_shapes_property(self, scalar_machine, vector_machine):
        rng = random.Random(4242)
        pstates = ("turbo", "nominal", "p2", "p3")
        for _ in range(10):
            clusters = []
            if rng.random() < 0.8:
                clusters.append(
                    CoreCluster(
                        "big",
                        rng.randint(1, 6),
                        rng.choice((1, 2, 4)),
                        get_pstate(rng.choice(pstates)),
                    )
                )
            clusters.append(
                CoreCluster(
                    "little",
                    rng.randint(1, 6),
                    rng.choice((1, 2)),
                    get_pstate(rng.choice(pstates)),
                    "POWER7_ECO",
                )
            )
            topology = ChipTopology(clusters=tuple(clusters))
            kernels = [
                random_kernel(rng.randint(0, 10_000)) for _ in range(8)
            ]
            assert vector_machine.run_many(
                kernels, topology, _DURATION
            ) == scalar_machine.run_many(kernels, topology, _DURATION)
