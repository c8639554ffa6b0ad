"""Code generation module (paper section 2.2).

The micro-benchmark synthesizer works like a compiler: an internal
representation (:mod:`repro.core.ir`) is transformed by a user-ordered
sequence of passes (:mod:`repro.core.passes`) and finally emitted as C
with inline assembly or as a plain assembly file
(:mod:`repro.core.emit`), or handed to the machine substrate as a
:class:`~repro.sim.kernel.Kernel`.

The public surface mirrors the paper's Figure-2 script::

    arch = repro.arch.get_architecture("POWER7")
    synth = repro.code.Synthesizer(arch)
    synth.add_pass(passes.EndlessLoopSkeleton(4096))
    synth.add_pass(passes.InstructionDistribution(loads_vsu))
    synth.add_pass(passes.MemoryModel({"L1": 1/3, "L2": 1/3, "L3": 1/3}))
    synth.add_pass(passes.InitRegisters("pattern", pattern=0b01010101))
    synth.add_pass(passes.DependencyDistance(mode="random"))
    bench = synth.synthesize()
    bench.save("example.c")
"""

from repro.core import passes
from repro.core.ir import IRInstruction, Program
from repro.core.synthesizer import Synthesizer

__all__ = ["IRInstruction", "Program", "Synthesizer", "passes"]
