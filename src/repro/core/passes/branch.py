"""Branch-behaviour pass.

Controls the speculation profile of the benchmark by planting
conditional branches into the body.  Benchmarks in this paper's case
studies keep branches predictable (forward, never-taken), so the pass
models the *presence* of branch work (BRU occupancy, front-end
bandwidth) without perturbing the planned instruction stream --
mirrored from the paper's basic branch modeling pass.
"""

from __future__ import annotations

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError


class BranchBehavior(Pass):
    """Replace a fraction of slots with predictable conditional branches.

    Args:
        fraction: Fraction of workload slots to turn into branches.
        mnemonic: Branch mnemonic to plant (default ``bc`` -- a
            conditional branch whose condition the init passes keep
            false, so it falls through and the loop structure is
            preserved).
    """

    def __init__(self, fraction: float, mnemonic: str = "bc") -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        self.fraction = fraction
        self.mnemonic = mnemonic

    @property
    def name(self) -> str:
        return f"BranchBehavior({self.fraction:.0%} {self.mnemonic})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: no slots for branch planting")
        definition = context.arch.isa.instruction(self.mnemonic)
        if not definition.is_branch:
            raise PassError(f"{self.mnemonic!r} is not a branch")
        count = round(self.fraction * len(slots))
        planted = sorted(context.rng.sample(slots, count))
        # A planted branch keeps its dependency operand and structural
        # flag; everything else starts afresh.
        program.define(
            planted, [0] * count, [definition],
            comment="planted branch (fall-through)",
        )
