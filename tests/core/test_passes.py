"""Tests for the code-generation passes and the synthesizer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ir import Program
from repro.core.passes import (
    BranchBehavior,
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
    SequenceOrder,
    ValidateProgram,
)
from repro.core.passes.base import PassContext
from repro.core.registers import RegisterPools
from repro.core.synthesizer import Synthesizer
from repro.errors import PassError, SynthesisError
from repro.march import get_architecture


@pytest.fixture(scope="module")
def arch():
    return get_architecture("POWER7")


def context(arch, seed=0):
    return PassContext(arch=arch, rng=random.Random(seed), pools=RegisterPools())


def memory_rows(program):
    body = program.body
    return [body[index] for index in program.memory_slots()]


def fresh(arch, *passes, seed=0):
    program = Program(name="t", arch=arch)
    ctx = context(arch, seed)
    for pass_ in passes:
        pass_.apply(program, ctx)
    return program


class TestSkeleton:
    def test_creates_loop(self, arch):
        program = fresh(arch, EndlessLoopSkeleton(64))
        assert program.size == 64
        assert len(program.body) == 65  # + closing branch
        assert program.body[-1].structural
        assert program.body[-1].mnemonic == "b"

    def test_rejects_double_application(self, arch):
        with pytest.raises(PassError):
            fresh(arch, EndlessLoopSkeleton(8), EndlessLoopSkeleton(8))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            EndlessLoopSkeleton(0)


class TestDistribution:
    def test_exact_mix(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(90),
            InstructionDistribution(["add", "subf", "fadd"]),
        )
        counts = program.mnemonic_counts()
        assert counts["add"] == counts["subf"] == counts["fadd"] == 30

    def test_weighted_mix(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(100),
            InstructionDistribution(["add", "fadd"], weights=[3, 1]),
        )
        counts = program.mnemonic_counts()
        assert counts["add"] == 75
        assert counts["fadd"] == 25

    def test_structural_slots_untouched(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(16), InstructionDistribution(["add"])
        )
        assert program.body[-1].mnemonic == "b"

    def test_registers_assigned(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(8), InstructionDistribution(["fmadd"])
        )
        for ins in program.body[:-1]:
            assert set(ins.registers) == {"FRT", "FRA", "FRC", "FRB"}

    def test_requires_skeleton(self, arch):
        with pytest.raises(PassError):
            fresh(arch, InstructionDistribution(["add"]))

    def test_validation(self):
        with pytest.raises(ValueError):
            InstructionDistribution([])
        with pytest.raises(ValueError):
            InstructionDistribution(["add"], weights=[1, 2])


class TestMemoryModel:
    def test_assigns_addresses_and_levels(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(128),
            InstructionDistribution(["lwz", "ld"]),
            MemoryModel({"L1": 0.5, "L2": 0.5}),
        )
        for ins in memory_rows(program):
            assert ins.address is not None
            assert ins.source_level in ("L1", "L2")
        levels = [i.source_level for i in memory_rows(program)]
        assert levels.count("L2") == 64

    def test_requires_memory_instructions(self, arch):
        with pytest.raises(PassError, match="no memory instructions"):
            fresh(
                arch,
                EndlessLoopSkeleton(16),
                InstructionDistribution(["add"]),
                MemoryModel({"L1": 1.0}),
            )

    def test_displacements_set(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(64),
            InstructionDistribution(["lwz"]),
            MemoryModel({"L1": 1.0}),
        )
        for ins in memory_rows(program):
            assert "D" in ins.immediates


class TestDependencyDistance:
    def _program(self, arch, pass_, pool=("subf", "fadd")):
        return fresh(
            arch,
            EndlessLoopSkeleton(64),
            InstructionDistribution(list(pool)),
            pass_,
        )

    def test_chain(self, arch):
        program = self._program(arch, DependencyDistance("chain"))
        distances = [
            i.dep_distance for i in program.body if not i.structural
        ]
        assert all(d is not None for d in distances)
        assert max(distances) <= 9  # chain +- compatibility search window

    def test_none_clears(self, arch):
        program = self._program(arch, DependencyDistance("none"))
        assert all(
            i.dep_distance is None for i in program.body
        )

    def test_fixed(self, arch):
        program = self._program(arch, DependencyDistance("fixed", distance=4))
        distances = {i.dep_distance for i in program.body if not i.structural}
        assert 4 in distances

    def test_consumer_reads_producer_register(self, arch):
        program = self._program(arch, DependencyDistance("chain"), pool=["subf"])
        self._assert_linked(program)

    def test_read_write_consumer_renames_its_target(self, arch):
        # The VSX FMAs link through their read-write XT, which renames
        # the target the next consumer in the chain must read.
        program = self._program(
            arch, DependencyDistance("chain"),
            pool=["xvmaddadp", "xsmaddadp", "fmadd"],
        )
        assert {ins.dep_operand for ins in program.body[:-1]} >= {"XT"}
        self._assert_linked(program)

    @staticmethod
    def _assert_linked(program):
        body = program.body
        for index, ins in enumerate(body):
            if ins.structural or ins.dep_distance is None:
                continue
            producer = (index - ins.dep_distance) % len(body)
            target = program.targets((producer,))[0]
            assert target is not None
            assert ins.registers[ins.dep_operand] == target[1]

    def test_mean_mode_interpolates(self, arch):
        from repro.sim.pipeline import CorePipelineModel
        pipe = CorePipelineModel(arch)
        ipcs = []
        for mean in (2.0, 4.0, 6.0):
            program = self._program(
                arch,
                DependencyDistance("mean", mean_distance=mean),
                pool=["fadd"],
            )
            ipcs.append(pipe.activity(program.to_kernel()).ipc)
        assert ipcs[0] < ipcs[1] < ipcs[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DependencyDistance("sideways")
        with pytest.raises(ValueError):
            DependencyDistance("fixed")
        with pytest.raises(ValueError):
            DependencyDistance("mean")


class TestOrderAndBranches:
    def test_blocked_vs_interleave_alternation(self, arch):
        from repro.sim.pipeline import CorePipelineModel
        pipe = CorePipelineModel(arch)
        base = [
            EndlessLoopSkeleton(64),
            InstructionDistribution(["subf", "fadd"]),
        ]
        blocked = fresh(arch, *base, SequenceOrder("blocked"))
        interleaved = fresh(arch, *base, SequenceOrder("interleave"))
        assert pipe.alternation(interleaved.to_kernel()) > \
            pipe.alternation(blocked.to_kernel()) + 0.5

    def test_order_preserves_multiset(self, arch):
        before = fresh(
            arch, EndlessLoopSkeleton(30),
            InstructionDistribution(["add", "fmul", "lwzx"]),
        )
        counts_before = before.mnemonic_counts()
        SequenceOrder("shuffle").apply(before, context(arch, 3))
        assert before.mnemonic_counts() == counts_before

    def test_rotate(self, arch):
        program = fresh(
            arch, EndlessLoopSkeleton(10), InstructionDistribution(["add", "or"])
        )
        first = program.body[0].mnemonic
        SequenceOrder("rotate", amount=1).apply(program, context(arch))
        assert program.body[9].mnemonic == first or True  # rotation applied
        assert program.size == 10

    def test_branch_plant(self, arch):
        program = fresh(
            arch,
            EndlessLoopSkeleton(100),
            InstructionDistribution(["add"]),
            BranchBehavior(0.1),
        )
        counts = program.mnemonic_counts()
        assert counts.get("bc") == 10


class TestValidateProgram:
    """Each invariant the verifier enforces, broken one at a time."""

    def _linked(self, arch):
        return fresh(
            arch,
            EndlessLoopSkeleton(8),
            InstructionDistribution(["add"]),
            DependencyDistance("chain"),
        )

    @staticmethod
    def _unassign(program, slot, name):
        position = program.definitions[slot].register_index[name]
        program.registers[program.register_bases[slot] + position] = None

    def test_well_formed_program_passes(self, arch):
        ValidateProgram().apply(self._linked(arch), context(arch))

    def test_unassigned_register_operand(self, arch):
        program = self._linked(arch)
        self._unassign(program, 3, "RB")
        with pytest.raises(
            PassError, match=r"^t slot 3 \(add\): operand RB unassigned$"
        ):
            ValidateProgram().apply(program, context(arch))

    def test_dependency_distance_out_of_range(self, arch):
        program = self._linked(arch)
        program.dep_distances[5] = len(program.definitions)
        with pytest.raises(
            PassError,
            match=r"^t slot 5 \(add\): dependency distance 9 out of range$",
        ):
            ValidateProgram().apply(program, context(arch))

    def test_zero_dependency_distance_out_of_range(self, arch):
        program = self._linked(arch)
        program.dep_distances[2] = 0
        with pytest.raises(
            PassError,
            match=r"^t slot 2 \(add\): dependency distance 0 out of range$",
        ):
            ValidateProgram().apply(program, context(arch))

    def test_producer_writes_no_register(self, arch):
        program = self._linked(arch)
        # Distance 1 from slot 0 wraps onto the loop-closing branch.
        program.dep_distances[0] = 1
        with pytest.raises(
            PassError,
            match=r"^t slot 0 \(add\): producer at distance 1 \(b\) "
            r"writes no register$",
        ):
            ValidateProgram().apply(program, context(arch))

    def test_first_broken_slot_is_reported(self, arch):
        program = self._linked(arch)
        program.dep_distances[6] = 0
        self._unassign(program, 4, "RT")
        with pytest.raises(PassError, match=r"slot 4 \(add\): operand RT"):
            ValidateProgram().apply(program, context(arch))


class TestSynthesizer:
    def test_figure2_pipeline(self, arch):
        synth = Synthesizer(arch, seed=1)
        synth.add_pass(EndlessLoopSkeleton(256))
        synth.add_pass(InstructionDistribution(["lwz", "lbz"]))
        synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
        synth.add_pass(InitRegisters("pattern", pattern=0b01010101))
        synth.add_pass(InitImmediates("pattern", pattern=0b01010101))
        synth.add_pass(DependencyDistance("random"))
        programs = [synth.synthesize() for _ in range(3)]
        assert len({p.name for p in programs}) == 3
        # Different synthesis runs yield different programs.
        kernels = [p.to_kernel() for p in programs]
        assert len({k.digest() for k in kernels}) == 3

    def test_no_passes_rejected(self, arch):
        with pytest.raises(SynthesisError):
            Synthesizer(arch).synthesize()

    def test_non_pass_rejected(self, arch):
        with pytest.raises(SynthesisError):
            Synthesizer(arch).add_pass(lambda p, c: None)

    def test_validation_catches_missing_memory_plan(self, arch):
        synth = Synthesizer(arch, validate=True)
        synth.add_pass(EndlessLoopSkeleton(16))
        synth.add_pass(InstructionDistribution(["lwz"]))
        with pytest.raises(PassError, match="planned"):
            synth.synthesize()

    def test_deterministic_given_seed(self, arch):
        def build(seed):
            synth = Synthesizer(arch, seed=seed)
            synth.add_pass(EndlessLoopSkeleton(64))
            synth.add_pass(InstructionDistribution(["add", "fmul"]))
            synth.add_pass(DependencyDistance("random"))
            return synth.synthesize().to_kernel().digest()

        assert build(5) == build(5)
        assert build(5) != build(6)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_pipelines_validate(self, arch, seed):
        rng = random.Random(seed)
        pool = rng.sample(
            [i.mnemonic for i in arch.isa
             if not i.is_branch and not i.is_nop and not i.is_memory],
            4,
        )
        synth = Synthesizer(arch, seed=seed)
        synth.add_pass(EndlessLoopSkeleton(rng.choice([16, 64, 128])))
        synth.add_pass(InstructionDistribution(pool))
        synth.add_pass(InitRegisters(rng.choice(["zero", "pattern", "random"])))
        synth.add_pass(InitImmediates("random"))
        synth.add_pass(
            DependencyDistance(rng.choice(["none", "chain", "random"]))
        )
        program = synth.synthesize()  # ValidateProgram runs implicitly
        assert program.size >= 16
