"""Single-cluster degeneracy: the old world, spelled as a topology.

The refactor's acceptance bar: every pre-refactor ``MachineConfig`` run
and its one-cluster ``ChipTopology`` spelling must agree *bit for bit*
-- labels, noise seeds and draws, counter readings, plan identities and
store keys -- on the fused plane and on the scalar oracle.  The suite is
randomized (seeded) over kernels, placements, CMP-SMT modes and
operating points.
"""

import random

import pytest

from repro.exec.plan import ExperimentPlan, PlanCell
from repro.sim import (
    ChipTopology,
    Kernel,
    KernelInstruction,
    Machine,
    MachineConfig,
    Placement,
)
from repro.sim.pstate import standard_pstates
from tests.oracle import OracleMachine

_DURATION = 2.0

_POOL = (
    "add", "mulld", "xvmaddadp", "lwz", "stfd", "fadd", "ld", "divw",
    "bc", "vxor",
)
_MEMORY_POOL = {"lwz", "stfd", "ld"}
_LEVELS = ("L1", "L2", "L3", "MEM")


def random_kernel(seed, size=None):
    rng = random.Random(seed)
    size = size or rng.randint(4, 64)
    instructions = []
    for index in range(size):
        mnemonic = rng.choice(_POOL)
        level = rng.choice(_LEVELS) if mnemonic in _MEMORY_POOL else None
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
        name=f"degen-{seed}",
        instructions=tuple(instructions),
        operand_entropy=rng.choice([0.0, 0.5, 1.0]),
    )


def random_config(rng):
    return MachineConfig(
        cores=rng.randint(1, 8),
        smt=rng.choice((1, 2, 4)),
        p_state=rng.choice(standard_pstates()),
    )


@pytest.fixture(scope="module")
def machines(power7_arch):
    """The fused machine under ``True``, the scalar oracle under ``False``."""
    return {
        True: Machine(power7_arch),
        False: OracleMachine(power7_arch),
    }


class TestRunDegeneracy:
    @pytest.mark.parametrize("fused", [True, False])
    def test_randomized_run_bit_identity(self, machines, fused):
        """100 random (kernel, config) pairs, both spellings."""
        rng = random.Random(1234)
        machine = machines[fused]
        for trial in range(100):
            kernel = random_kernel(rng.randint(0, 10_000))
            config = random_config(rng)
            topology = ChipTopology.from_config(config)
            assert topology.label == config.label
            via_config = machine.run(kernel, config, _DURATION)
            via_topology = machine.run(kernel, topology, _DURATION)
            assert via_config == via_topology, (trial, config.label)
            # The degenerate spelling collapses: same Measurement
            # type, same config object semantics, same noise draws.
            assert via_topology.config == config
            assert via_topology.mean_power == via_config.mean_power
            assert (
                via_topology.thread_counters == via_config.thread_counters
            )

    @pytest.mark.parametrize("fused", [True, False])
    def test_batched_run_many_bit_identity(self, machines, fused):
        rng = random.Random(77)
        machine = machines[fused]
        kernels = [random_kernel(5000 + index) for index in range(12)]
        config = random_config(rng)
        topology = ChipTopology.from_config(config)
        assert machine.run_many(
            kernels, config, _DURATION
        ) == machine.run_many(kernels, topology, _DURATION)

    @pytest.mark.parametrize("fused", [True, False])
    def test_placement_degeneracy(self, machines, fused):
        machine = machines[fused]
        rng = random.Random(9)
        for trial in range(20):
            config = random_config(rng)
            topology = ChipTopology.from_config(config)
            workloads = [
                random_kernel(7000 + trial * 8 + slot)
                for slot in range(config.smt)
            ]
            placement = Placement.round_robin(
                workloads, config, name=f"mix-{trial}"
            )
            spelled = Placement.round_robin(
                workloads, topology, name=f"mix-{trial}"
            )
            assert placement == spelled
            assert machine.run(placement, config, _DURATION) == machine.run(
                spelled, topology, _DURATION
            )

    def test_vector_and_scalar_agree_on_degenerate_spelling(
        self, machines
    ):
        rng = random.Random(31)
        kernels = [random_kernel(8000 + index) for index in range(10)]
        config = random_config(rng)
        topology = ChipTopology.from_config(config)
        assert machines[True].run_many(
            kernels, topology, _DURATION
        ) == machines[False].run_many(kernels, topology, _DURATION)

    def test_idle_degeneracy(self, machines):
        config = MachineConfig(2, 2)
        topology = ChipTopology.from_config(config)
        for machine in machines.values():
            assert machine.run_idle(config, _DURATION) == machine.run_idle(
                topology, _DURATION
            )


class TestPlanDegeneracy:
    def test_cell_identity_and_store_keys_collapse(self, power7_arch):
        rng = random.Random(55)
        digest = power7_arch.content_digest()
        for trial in range(50):
            kernel = random_kernel(9000 + trial)
            config = random_config(rng)
            topology = ChipTopology.from_config(config)
            via_config = PlanCell(kernel, config, _DURATION)
            via_topology = PlanCell(kernel, topology, _DURATION)
            assert via_topology.identity() == via_config.identity()
            assert via_topology.key(
                "POWER7", 0, digest
            ) == via_config.key("POWER7", 0, digest)

    def test_both_spellings_dedup_into_one_cell(self):
        kernel = random_kernel(1)
        config = MachineConfig(4, 2)
        plan = ExperimentPlan(
            [
                PlanCell(kernel, config, _DURATION),
                PlanCell(kernel, ChipTopology.from_config(config), _DURATION),
            ]
        )
        assert plan.size == 1
        assert plan.requested == 2

    def test_heterogeneous_cells_do_not_collapse(self):
        kernel = random_kernel(2)
        from repro.sim import parse_topology

        plan = ExperimentPlan(
            [
                PlanCell(kernel, MachineConfig(4, 2), _DURATION),
                PlanCell(kernel, parse_topology("4-2+4little"), _DURATION),
            ]
        )
        assert plan.size == 2
