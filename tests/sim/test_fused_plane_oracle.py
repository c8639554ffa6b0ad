"""Every cell kind on the fused plane == the scalar oracle, bit for bit.

The machine measures kernels, protocol workloads (SPEC proxies and any
object with ``thread_activity``) and placements through one fused
program per batch.  These randomized suites compare it with the
per-cell scalar walk in ``tests/oracle`` over SPEC profiles, a
hand-written protocol object, placements with mixed-kernel,
profiled-co-runner and homogeneous cores, permuted co-runners,
heterogeneous topologies, every p-state, several windows and batch
sizes from one cell up -- including batches that mix every kind.
"""

import random

import pytest

from repro.errors import MeasurementError
from repro.exec import ExperimentPlan, SerialExecutor
from repro.exec.plan import PlanCell
from repro.sim import (
    ChipTopology,
    CoreCluster,
    Machine,
    MachineConfig,
    Placement,
)
from repro.sim.activity import ThreadActivity
from repro.sim.pstate import standard_pstates
from repro.workloads.mixes import (
    hi_ilp_kernel,
    latency_chain_kernel,
    memory_bound_kernel,
    scalar_kernel,
    vector_kernel,
)
from repro.workloads.spec import spec_cpu2006
from tests.oracle import OracleMachine
from tests.sim.test_vector_plane import random_kernel

WINDOWS = (0.25, 1.0, 10.0)


class HandWritten:
    """A protocol workload written by hand, not from an ActivityProfile.

    Its unit and level dicts are in non-standard order, it drives a
    unit the architecture does not have (``NPU``, priced at the 0.5 nJ
    default and invisible to the counters) and a level with no access
    energy (``TLB``), and it biases only some units.
    """

    def __init__(self, name: str, intensity: float) -> None:
        self.name = name
        self.intensity = intensity

    def thread_activity(self, machine, smt: int) -> ThreadActivity:
        rate = machine.frequency * self.intensity / smt
        return ThreadActivity(
            ipc=1.3 * self.intensity / smt,
            unit_op_rates={
                "VSU": 0.31 * rate,
                "NPU": 0.07 * rate,
                "FXU": 0.43 * rate,
                "LSU": 0.37 * rate,
            },
            level_rates={
                "MEM": 0.011 * rate,
                "_stores": 0.09 * rate,
                "L2": 0.023 * rate,
                "TLB": 0.004 * rate,
                "_loads": 0.21 * rate,
                "L1": 0.26 * rate,
            },
            alternation=0.41,
            entropy=0.73,
            unit_energy_bias={"LSU": 1.07, "NPU": 0.91},
        )


class MnemonicLevel:
    """A protocol workload reporting per-mnemonic instruction rates."""

    name = "mnemonic-level"

    def thread_activity(self, machine, smt: int) -> ThreadActivity:
        rate = machine.frequency / (2.0 * smt)
        return ThreadActivity(
            ipc=0.9 / smt,
            insn_rates={"mulldo": 0.2 * rate, "lwz": 0.5 * rate, "add": rate},
            unit_op_rates={"FXU": 1.2 * rate, "LSU": 0.5 * rate},
            level_rates={"L1": 0.45 * rate, "L3": 0.05 * rate, "_loads": 0.5 * rate},
            alternation=0.6,
            entropy=0.25,
        )


SPEC = tuple(spec_cpu2006())
PROTOCOL = (
    HandWritten("hand-written", 1.0),
    HandWritten("hand-written-light", 0.35),
    MnemonicLevel(),
)
KERNELS = (
    hi_ilp_kernel(64),
    memory_bound_kernel(64),
    vector_kernel(64),
    scalar_kernel(64),
    latency_chain_kernel(64),
)


@pytest.fixture(scope="module")
def planes(power7_arch):
    return Machine(power7_arch, seed=5), OracleMachine(power7_arch, seed=5)


def random_config(rng) -> MachineConfig:
    return MachineConfig(
        rng.randint(1, 8),
        rng.choice((1, 2, 4)),
        rng.choice(standard_pstates()),
    )


def random_topology(rng) -> ChipTopology:
    clusters = []
    if rng.random() < 0.85:
        clusters.append(
            CoreCluster(
                "big",
                rng.randint(1, 4),
                rng.choice((1, 2, 4)),
                rng.choice(standard_pstates()),
            )
        )
    clusters.append(
        CoreCluster(
            "little",
            rng.randint(1, 4),
            rng.choice((1, 2)),
            rng.choice(standard_pstates()),
            "POWER7_ECO",
        )
    )
    return ChipTopology(clusters=tuple(clusters))


def random_group(rng, width: int) -> tuple:
    """One core's co-runners: homogeneous, mixed kernels or profiled."""
    shape = rng.random()
    if shape < 0.3 or width == 1:
        return (rng.choice(KERNELS + SPEC[:4] + PROTOCOL),) * width
    if shape < 0.7:
        return tuple(rng.choice(KERNELS) for _ in range(width))
    return tuple(
        rng.choice((KERNELS[0], SPEC[5], PROTOCOL[0], KERNELS[1]))
        for _ in range(width)
    )


def random_placement(rng, config, name: str) -> Placement:
    return Placement(
        name,
        tuple(
            random_group(rng, width)
            for width in Placement._core_widths(config)
        ),
    )


def random_cell(rng, index: int) -> PlanCell:
    config = random_topology(rng) if rng.random() < 0.3 else random_config(rng)
    kind = rng.random()
    if kind < 0.25:
        workload = rng.choice(KERNELS + (random_kernel(rng.randint(0, 999)),))
    elif kind < 0.5:
        workload = rng.choice(SPEC)
    elif kind < 0.65:
        workload = rng.choice(PROTOCOL)
    else:
        workload = random_placement(rng, config, f"placed-{index}")
    return PlanCell(workload, config, rng.choice(WINDOWS))


def assert_cells_identical(planes, cells):
    fused, oracle = planes
    measured = fused.run_cells(cells)
    reference = oracle.run_cells(cells)
    assert len(measured) == len(reference)
    for cell, got, want in zip(cells, measured, reference):
        assert got == want, (cell.workload, cell.config.label, cell.duration)
    return measured


class TestProtocolWorkloads:
    def test_spec_profiles_every_pstate_and_window(self, planes):
        configs = [
            MachineConfig(cores, smt, p_state)
            for cores, smt in ((1, 1), (3, 2), (8, 4))
            for p_state in standard_pstates()
        ]
        cells = [
            PlanCell(workload, config, window)
            for workload in SPEC
            for config in configs
            for window in WINDOWS[:2]
        ]
        assert_cells_identical(planes, cells)

    def test_hand_written_protocol_objects(self, planes):
        rng = random.Random(11)
        cells = [
            PlanCell(
                workload,
                random_topology(rng) if trial % 3 == 0 else random_config(rng),
                rng.choice(WINDOWS),
            )
            for trial in range(40)
            for workload in PROTOCOL
        ]
        assert_cells_identical(planes, cells)

    def test_protocol_workloads_on_topologies(self, planes):
        rng = random.Random(12)
        cells = [
            PlanCell(rng.choice(SPEC + PROTOCOL), random_topology(rng), window)
            for _ in range(30)
            for window in WINDOWS
        ]
        assert_cells_identical(planes, cells)


class TestPlacements:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_placements(self, planes, seed):
        rng = random.Random(100 + seed)
        cells = []
        for trial in range(12):
            config = random_config(rng)
            cells.append(
                PlanCell(
                    random_placement(rng, config, f"mix-{seed}-{trial}"),
                    config,
                    rng.choice(WINDOWS),
                )
            )
        assert_cells_identical(planes, cells)

    def test_random_topology_placements(self, planes):
        rng = random.Random(7)
        cells = []
        for trial in range(24):
            topology = random_topology(rng)
            cells.append(
                PlanCell(
                    random_placement(rng, topology, f"topo-mix-{trial}"),
                    topology,
                    rng.choice(WINDOWS),
                )
            )
        assert_cells_identical(planes, cells)

    @pytest.mark.parametrize(
        "workload",
        [KERNELS[0], SPEC[3], PROTOCOL[0]],
        ids=["kernel", "spec", "hand-written"],
    )
    def test_homogeneous_placement_equals_plain_cell(self, planes, workload):
        fused, _ = planes
        rng = random.Random(3)
        for _ in range(6):
            config = (
                random_topology(rng) if rng.random() < 0.5 else random_config(rng)
            )
            placed = Placement.homogeneous(workload, config)
            cells = [
                PlanCell(workload, config, 1.0),
                PlanCell(placed, config, 1.0),
            ]
            plain, homogeneous = assert_cells_identical(planes, cells)
            assert homogeneous.mean_power == plain.mean_power
            assert homogeneous.thread_counters == plain.thread_counters
            assert fused.run(placed, config, 1.0) == homogeneous

    def test_permuted_co_runners(self, planes):
        fused, _ = planes
        a, b, c, d = KERNELS[:4]
        config = MachineConfig(2, 4, standard_pstates()[2])
        forward = Placement("perm", ((a, b, c, d), (SPEC[0], a, a, b)))
        permuted = Placement("perm", ((SPEC[0], b, a, a), (d, c, a, b)))
        cells = [
            PlanCell(forward, config, 1.0),
            PlanCell(permuted, config, 1.0),
        ]
        first, second = assert_cells_identical(planes, cells)
        # Chip power and noise are permutation-invariant; counters
        # follow each placement's declaration order.
        assert first.mean_power == second.mean_power
        # ``a`` on the (a, b, c, d) core: slot 0 there, slot 6 here.
        assert first.thread_counters[0] == second.thread_counters[6]
        assert fused.run(permuted, config, 1.0) == second


class TestBatches:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 40])
    def test_batches_mixing_every_kind(self, planes, size):
        rng = random.Random(size)
        cells = [random_cell(rng, index) for index in range(size)]
        measured = assert_cells_identical(planes, cells)
        fused, _ = planes
        for cell, measurement in zip(cells[:4], measured):
            assert (
                fused.run(cell.workload, cell.config, cell.duration)
                == measurement
            )

    def test_plan_cached_program_replays_every_kind(self, power7_arch):
        rng = random.Random(99)
        plan = ExperimentPlan(random_cell(rng, index) for index in range(30))
        machine = Machine(power7_arch)
        first = machine.run_plan(plan)
        assert machine._vector.cached_program(plan) is not None
        assert machine.run_plan(plan) == first
        assert first == OracleMachine(power7_arch).run_plan(plan)


class TestErrors:
    def test_misfit_placement_raises(self, planes):
        a, b = KERNELS[:2]
        placement = Placement("misfit", ((a, b), (a, b)))
        for machine in planes:
            with pytest.raises(MeasurementError):
                machine.run(placement, MachineConfig(2, 4), 1.0)
            with pytest.raises(MeasurementError):
                machine.run_many([a, placement], MachineConfig(3, 2), 1.0)

    def test_non_workload_raises(self, planes):
        for machine in planes:
            with pytest.raises(MeasurementError):
                machine.run(object(), MachineConfig(1, 1), 1.0)
            with pytest.raises(MeasurementError):
                machine.run_many(
                    [SPEC[0], 42], MachineConfig(2, 2), 1.0
                )

    def test_executor_quarantines_only_the_bad_cell(self, power7_arch):
        a, b = KERNELS[:2]
        config = MachineConfig(2, 2)
        cells = [
            PlanCell(SPEC[0], config, 1.0),
            PlanCell(Placement("misfit", ((a, b, a, b),)), config, 1.0),
            PlanCell(Placement("fits", ((a, b), (b, SPEC[1]))), config, 1.0),
            PlanCell(a, config, 1.0),
        ]
        plan = ExperimentPlan(cells)
        report = SerialExecutor(Machine(power7_arch)).execute(plan)
        assert len(report.failures) == 1
        reference = OracleMachine(power7_arch)
        healthy = [
            measurement
            for measurement in report.measurements
            if measurement is not None
        ]
        assert healthy == [
            reference.run(cell.workload, cell.config, cell.duration)
            for index, cell in enumerate(cells)
            if index != 1
        ]
