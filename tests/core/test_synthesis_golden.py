"""Byte-identity corpus for the synthesis pass pipeline.

Every program the corpus synthesizes is reduced to one blake2b digest
over its emitted assembly, its emitted C, its kernel digest and period,
and its metadata (pass names, memory plan, D-form count).  The digests
are pinned in ``tests/golden/synthesis_corpus.json``, so any change to
a pass, to register allocation or to kernel construction that moves a
single emitted byte fails here.  Regenerate with ``pytest
--update-goldens`` only for a deliberate change of synthesis output.

The corpus covers every pass and mode: the Table-2 micro and random
families, DAXPY, the bootstrap's chain and free loops for every
probeable mnemonic (update-form loads and stores, the ``XT:VSR:RW``
FMAs), all ``SequenceOrder`` modes, ``BranchBehavior``, the three
value-initialisation modes, non-exact distribution, a relocated
``MemoryModel`` and every ``DependencyDistance`` mode.
"""

import hashlib
from pathlib import Path

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
)
from repro.core.synthesizer import SYNTHESIS_VERSION, Synthesizer
from repro.march.bootstrap import Bootstrapper
from repro.power_model.training import (
    generate_micro_suite,
    generate_random_suite,
)
from repro.workloads.daxpy import build_daxpy

SUITE_LOOP = 64
BOOTSTRAP_LOOP = 12

_MIX = ["add", "subf", "fmadd", "xvmaddadp", "lwz", "stwu", "lfdux", "ldx"]
_MEMORY = {"L1": 0.5, "L2": 0.5}


def program_digest(program) -> str:
    kernel = program.to_kernel()
    text = "\0".join(
        (
            emit_assembly(program),
            emit_c(program),
            str(kernel.digest()),
            repr(kernel.period),
            repr(sorted(program.metadata.items())),
        )
    )
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.fixture
def captured(monkeypatch):
    """Programs synthesized by library builders that return kernels.

    A forked child's syntheses never reach this process's patch, so the
    builders run in one process.
    """
    programs = []
    synthesize = Synthesizer.synthesize

    def recording(self, name=None):
        program = synthesize(self, name)
        programs.append(program)
        return program

    monkeypatch.setattr(Synthesizer, "synthesize", recording)
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    return programs


def _pipeline(arch, seed, *passes, pool=_MIX, memory=_MEMORY, size=64):
    synth = Synthesizer(arch, seed=seed, name_prefix=f"mode-{seed}")
    synth.add_pass(EndlessLoopSkeleton(size))
    synth.add_pass(InstructionDistribution(pool))
    if memory is not None:
        synth.add_pass(MemoryModel(memory))
    for pass_ in passes:
        synth.add_pass(pass_)
    return synth


def _mode_pipelines(arch):
    """Hand-built pipelines exercising each pass mode once."""
    pipelines = {
        "order-shuffle": _pipeline(
            arch, 1, SequenceOrder("shuffle"), DependencyDistance("chain")
        ),
        "order-interleave": _pipeline(
            arch, 2, SequenceOrder("interleave"),
            DependencyDistance("fixed", distance=3),
        ),
        "order-blocked": _pipeline(
            arch, 3, SequenceOrder("blocked"), DependencyDistance("random")
        ),
        "order-rotate": _pipeline(
            arch, 4, SequenceOrder("rotate", amount=5),
            DependencyDistance("mean", mean_distance=2.5),
        ),
        "branches": _pipeline(
            arch, 5, DependencyDistance("chain"), BranchBehavior(0.2),
            DependencyDistance("random", min_distance=2, max_distance=6),
        ),
        "init-zero": _pipeline(
            arch, 6, InitRegisters("zero"), InitImmediates("zero"),
            DependencyDistance("none"),
        ),
        "init-pattern": _pipeline(
            arch, 7, InitRegisters("pattern", pattern=0b0110),
            InitImmediates("pattern", pattern=0b1011),
            DependencyDistance("fixed", distance=7),
        ),
        "init-random": _pipeline(
            arch, 8, InitRegisters("random"), InitImmediates("random"),
            DependencyDistance("random", min_distance=1, max_distance=32),
        ),
        "relocated-memory": _pipeline(
            arch, 9, DependencyDistance("chain"),
            memory=None,
        ).add_pass(MemoryModel({"L1": 0.5, "L3": 0.5}, base_address=0x4000_0000)),
        "no-memory-ilp": _pipeline(
            arch, 10, InitImmediates("random"), DependencyDistance("chain"),
            pool=["addic", "mulld", "xsmaddadp", "xvnmsubmdp", "mtctr", "rlwinm"],
            memory=None,
        ),
    }
    inexact = Synthesizer(arch, seed=11, name_prefix="mode-11")
    inexact.add_pass(EndlessLoopSkeleton(64))
    inexact.add_pass(
        InstructionDistribution(
            ["lfdu", "stfdux", "xvmaddasp", "add"], weights=[3, 1, 2, 2],
            exact=False,
        )
    )
    inexact.add_pass(MemoryModel({"L1": 1.0}))
    inexact.add_pass(InitImmediates("pattern"))
    inexact.add_pass(DependencyDistance("random", min_distance=1, max_distance=4))
    pipelines["inexact-distribution"] = inexact
    return pipelines


def test_synthesis_corpus_is_byte_identical(power7_arch, captured, golden):
    arch = power7_arch
    corpus = {}

    def record(case, programs):
        for program in programs:
            key = f"{case}/{program.name}"
            assert key not in corpus, key
            corpus[key] = program_digest(program)
        programs.clear()

    for seed in (0, 1):
        generate_micro_suite(arch, loop_size=SUITE_LOOP, scale=0.05, seed=seed)
        record(f"micro-s{seed}", captured)
        generate_random_suite(arch, loop_size=SUITE_LOOP, scale=0.05, seed=seed)
        record(f"random-s{seed}", captured)

    for unroll in (1, 2, 4):
        build_daxpy(arch, unroll=unroll, loop_size=SUITE_LOOP, seed=3)
    record("daxpy", captured)

    bootstrapper = Bootstrapper(arch, machine=None, loop_size=BOOTSTRAP_LOOP)
    for ins in arch.isa:
        if not ins.is_branch:
            bootstrapper._build(ins.mnemonic, chained=True).kernel()
            bootstrapper._build(ins.mnemonic, chained=False).kernel()
    record("bootstrap", captured)

    for synth in _mode_pipelines(arch).values():
        synth.synthesize()
        synth.synthesize()
    record("modes", captured)

    golden("synthesis_corpus.json", corpus)


#: ``SYNTHESIS_VERSION`` and the blake2b-128 of the corpus file it was
#: released with.  Stores key synthesized kernels by that version.
PINNED_SYNTHESIS = (1, "3093ca09b6893343224cf540a96a498c")


def test_synthesis_version_pins_the_corpus():
    corpus = Path(__file__).parents[1] / "golden" / "synthesis_corpus.json"
    digest = hashlib.blake2b(corpus.read_bytes(), digest_size=16).hexdigest()
    assert (SYNTHESIS_VERSION, digest) == PINNED_SYNTHESIS, (
        "tests/golden/synthesis_corpus.json was re-recorded: synthesis "
        "output moved, so result stores hold stale kernels under the old "
        "recipe keys.  Bump SYNTHESIS_VERSION in repro/core/synthesizer.py "
        "and pin the new (version, corpus digest) pair here."
    )
