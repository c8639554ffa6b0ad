"""The column synthesis pipeline against its per-slot oracle.

``tests/oracle/synthesis.py`` keeps the pipeline that built one
``IRInstruction`` object per slot, verbatim.  Each case here runs the
same recipe through both: the production ``Synthesizer`` over the
column ``Program``, and the oracle twins of its passes over the oracle
program, from the same random stream.  They must agree on the kernel
(``==``, digest, period, slot table), the metadata, the program
attributes, the state the random stream ends in, and any error text.
The random pipelines also compare the rows of ``Program.body`` and the
emitted assembly and C, and break validation invariants in both
programs alike.  The Table-2 suites compare the columns with the
reference rows directly: the emitters read nothing but the rows and
the compared attributes, and emitting the suites' 348 programs would
cost over 10 s.
"""

from __future__ import annotations

import random

import pytest

from repro.core import synthesizer as synthesizer_module
from repro.core.emit import emit_assembly, emit_c
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
from repro.core.synthesizer import Synthesizer
from repro.power_model.training import (
    generate_micro_suite,
    generate_random_suite,
)
from tests.oracle import synthesis as oracle

#: Instructions every few random pools draw from: update-form and
#: indexed loads and stores, a prefetch, and the ``XT:VSR:RW`` FMAs.
_FEATURED = (
    "lwzu", "ldux", "lfdux", "lhaux", "stwu", "stdux", "stfdux", "lwzx",
    "ldx", "lxvd2x", "stxvd2x", "dcbt", "xvmaddadp", "xsmaddadp",
    "xvnmsubmdp", "xvmaddasp", "mtctr", "addic", "rlwinm", "fmadd",
)
_LOOPS = (12, 13, 16, 24, 30, 48, 64, 100, 128, 200, 256) * 2 + (1024,)


@pytest.fixture
def contexts(monkeypatch):
    """Every production ``PassContext``, in creation order (builds
    run in one process: a forked child's contexts never show here)."""
    made = []

    def recording(**fields):
        context = PassContext(**fields)
        made.append(context)
        return context

    monkeypatch.setattr(synthesizer_module, "PassContext", recording)
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    return made


def _outcome(call):
    """``call()``'s result, or its exception's type and text."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return None, (type(exc), str(exc))


def assert_same(program, context, reference, reference_context, emit=True):
    """Both pipelines built the same program from the same stream.

    With ``emit``, the rows of :attr:`Program.body` and the emitted
    assembly and C are compared; without, the columns are compared with
    the reference rows directly (see :func:`_assert_columns`).
    """
    assert context.rng.getstate() == reference_context.rng.getstate()
    for attribute in (
        "name", "loop_label", "register_init", "immediate_init",
        "init_pattern", "memory_base", "size", "operand_entropy",
    ):
        assert getattr(program, attribute) == getattr(reference, attribute)
    assert repr(sorted(program.metadata.items())) == repr(
        sorted(reference.metadata.items())
    )
    kernel, expected = _outcome(program.to_kernel), _outcome(reference.to_kernel)
    assert kernel[1] == expected[1]
    if kernel[0] is not None:
        kernel, expected = kernel[0], expected[0]
        assert kernel == expected
        assert kernel.digest() == expected.digest()
        assert kernel.period == expected.period
        assert kernel.slot_table() == expected.slot_table()
    if emit:
        assert [vars(row) for row in program.body] == [
            vars(row) for row in reference.body
        ]
        assert program.mnemonic_counts() == reference.mnemonic_counts()
        assert emit_assembly(program) == emit_assembly(reference)
        assert emit_c(program) == emit_c(reference)
    else:
        _assert_columns(program, reference)


def _assert_columns(program, reference) -> None:
    """The columns hold what the reference rows hold.

    For a skeleton filled by one distribution pass, whose operand
    regions tile the flat columns in slot order.
    """
    body = reference.body
    assert program.definitions == [row.definition for row in body]
    for column, name in (
        ("dep_distances", "dep_distance"), ("dep_operands", "dep_operand"),
        ("addresses", "address"), ("source_levels", "source_level"),
        ("structural", "structural"), ("comments", "comment"),
    ):
        assert getattr(program, column) == [getattr(row, name) for row in body]
    assert program.registers == [
        row.registers.get(name)
        for row in body for name in row.definition.register_index
    ]
    assert program.immediates == [
        row.immediates.get(name)
        for row in body for name in row.definition.immediate_index
    ]


def _random_pipeline(arch, rng: random.Random, case: int) -> Synthesizer:
    """A seeded random recipe over every pass and mode."""
    candidates = [
        ins.mnemonic for ins in arch.isa if not ins.is_branch and not ins.is_nop
    ]
    pool = rng.sample(candidates, rng.randint(1, 6))
    pool += rng.sample(_FEATURED, rng.randint(0, 3))
    size = 4096 if case % 50 == 49 else rng.choice(_LOOPS)
    synth = Synthesizer(
        arch, seed=rng.choice([case, f"s{case}"]),
        name_prefix=f"case-{case}", validate=rng.random() < 0.9,
    )
    passes = [EndlessLoopSkeleton(size)]
    if rng.random() < 0.8:
        passes.append(InstructionDistribution(pool))
    else:
        weights = [rng.choice([0, 0.5, 1, 3]) for _ in pool]
        weights[0] += 1
        passes.append(InstructionDistribution(pool, weights, rng.random() < 0.5))
    if rng.random() < 0.9:
        # Deeper streams need more memory slots than small loops hold.
        levels = ["L1"] + rng.sample(["L2", "L3", "MEM"], int(size >= 128))
        weights = {level: 1 / len(levels) for level in levels}
        base = rng.choice([None, None, 0x4000_0000])
        passes.append(MemoryModel(weights, base_address=base))
    extras = [
        InitRegisters(rng.choice(["zero", "pattern", "random"]),
                      pattern=rng.randrange(256)),
        InitImmediates(rng.choice(["zero", "pattern", "random"]),
                       pattern=rng.randrange(256)),
        DependencyDistance(*rng.choice([
            ("none",), ("chain",), ("fixed", rng.randint(1, 12)),
            ("random", None, 1, rng.randint(1, 40)),
            ("random", None, rng.randint(2, 6), 12),
            ("mean", None, 1, 32, rng.uniform(1.0, 9.0)),
        ])),
    ]
    if rng.random() < 0.5:
        extras.append(SequenceOrder(
            rng.choice(["shuffle", "interleave", "blocked", "rotate"]),
            amount=rng.randint(-5, 40),
        ))
    if rng.random() < 0.4:
        extras.append(BranchBehavior(
            rng.choice([0.0, 0.1, 0.3, 1.0]),
            rng.choice(["bc", "bc", "beq", "bdnz", "blr", "add"]),
        ))
    if rng.random() < 0.5:
        extras.append(DependencyDistance("random", min_distance=1,
                                         max_distance=rng.randint(1, 20)))
    rng.shuffle(extras)
    if rng.random() < 0.03:
        extras.insert(0, InstructionDistribution(pool))
        passes.pop(0)  # distribution before any skeleton
    for pass_ in passes + extras:
        synth.add_pass(pass_)
    return synth


def _corrupt(rng: random.Random, program, reference) -> None:
    """Break the same validation invariant in both programs."""
    slot = rng.randrange(len(reference.body))
    row = reference.body[slot]
    edit = rng.choice(["register", "distance", "address"])
    if edit == "register" and row.registers:
        name = rng.choice(sorted(row.registers))
        del row.registers[name]
        position = program.definitions[slot].register_index[name]
        program.registers[program.register_bases[slot] + position] = None
    elif edit == "address":
        row.address = None
        program.addresses[slot] = None
    else:
        distance = rng.choice([0, 1, 2, len(reference.body)])
        row.dep_distance = distance
        program.dep_distances[slot] = distance


def test_random_pipelines_match_the_oracle(power7_arch, contexts):
    arch = power7_arch
    rng = random.Random(2027)
    outcomes = {"built": 0, "failed": 0, "corrupted": 0}
    for case in range(100):
        synth = _random_pipeline(arch, rng, case)
        for ordinal in range(1 + (case % 3 == 0)):
            program, error = _outcome(synth.synthesize)
            reference, expected = _outcome(
                lambda: oracle.synthesize(synth, ordinal)
            )
            assert error == expected, case
            if error is not None:
                outcomes["failed"] += 1
                continue
            outcomes["built"] += 1
            assert_same(program, contexts[-1], *reference)
            if rng.random() < 0.3:
                outcomes["corrupted"] += 1
                reference = reference[0]
                _corrupt(rng, program, reference)
                _corrupt(rng, program, reference)
                found = _outcome(
                    lambda: ValidateProgram().apply(program, contexts[-1])
                )
                assert found == _outcome(
                    lambda: oracle.ValidateProgram().apply(reference, None)
                ), case
    # The recipes reach both outcomes and the validator's error paths.
    assert min(outcomes.values()) >= 10, outcomes


def test_table2_suites_match_the_oracle(power7_arch, contexts, monkeypatch):
    calls = []
    synthesize = Synthesizer.synthesize

    def recording(self, name=None):
        ordinal = self._counter
        program = synthesize(self, name)
        calls.append((self, ordinal, name, program, contexts[-1]))
        return program

    monkeypatch.setattr(Synthesizer, "synthesize", recording)
    generate_micro_suite(power7_arch, 1024, 0.3)
    generate_random_suite(power7_arch, 1024, 0.3)
    assert len(calls) == 174
    for synth, ordinal, name, program, context in calls:
        assert_same(
            program, context, *oracle.synthesize(synth, ordinal, name),
            emit=False,
        )
