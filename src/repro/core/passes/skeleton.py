"""Program-skeleton pass: the endless loop."""

from __future__ import annotations

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError


class EndlessLoopSkeleton(Pass):
    """Define the program as an endless loop of ``size`` instructions.

    The body is created as ``size`` nop placeholder slots that the
    instruction-distribution pass later fills, plus a structural
    backward branch closing the loop.  This is the paper's
    "Single end-less loop of 4096 instructions" pass.
    """

    def __init__(self, size: int = 4096) -> None:
        if size < 1:
            raise ValueError("loop size must be >= 1")
        self.size = size

    @property
    def name(self) -> str:
        return f"EndlessLoopSkeleton({self.size})"

    def apply(self, program: Program, context: PassContext) -> None:
        if program.definitions:
            raise PassError(
                f"{program.name}: skeleton applied to a non-empty program"
            )
        isa = context.arch.isa
        nop = isa.instruction("nop")
        branch = isa.instruction("b")
        size = self.size
        for column in (
            "definitions", "dep_distances", "dep_operands", "addresses",
            "source_levels", "comments", "register_bases", "immediate_bases",
        ):
            setattr(program, column, [None] * (size + 1))
        program.define(list(range(size + 1)), [0] * size + [1], [nop, branch])
        program.structural = [False] * size + [True]
        program.comments[size] = "loop-closing branch"
        program.loop_label = "loop"
