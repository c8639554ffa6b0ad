"""Instruction-distribution pass.

Fills the skeleton's slots with instructions drawn from a user-selected
pool, either as an exact proportional mix (shuffled multiset, the
default -- distributions are then exact, not just expected) or by
independent weighted draws.  Register operands receive round-robin
default assignments; memory operands are left for the memory pass.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.ir import IRInstruction, Program
from repro.core.passes.base import Pass, PassContext
from repro.core.registers import MEMORY_BASE_REGISTER
from repro.errors import PassError
from repro.isa.instruction import InstructionDef


class InstructionDistribution(Pass):
    """Fill workload slots with a mix of instructions.

    Args:
        pool: Instruction definitions (or mnemonics, resolved against
            the target ISA) to draw from.
        weights: Optional relative weight per pool entry, parallel to
            ``pool``; uniform when omitted.
        exact: When true (default), realize the weights exactly as a
            shuffled multiset; when false, draw each slot independently.
    """

    def __init__(
        self,
        pool: Sequence[InstructionDef | str],
        weights: Sequence[float] | None = None,
        exact: bool = True,
    ) -> None:
        if not pool:
            raise ValueError("instruction pool must not be empty")
        if weights is not None and len(weights) != len(pool):
            raise ValueError("weights must parallel the pool")
        if weights is not None and (min(weights) < 0 or sum(weights) <= 0):
            raise ValueError("weights must be non-negative and sum > 0")
        self.pool = list(pool)
        self.weights = list(weights) if weights is not None else None
        self.exact = exact

    @property
    def name(self) -> str:
        return f"InstructionDistribution({len(self.pool)} instructions)"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(
                f"{program.name}: no slots to fill; run a skeleton pass first"
            )
        definitions = [
            entry if isinstance(entry, InstructionDef)
            else context.arch.isa.instruction(entry)
            for entry in self.pool
        ]
        # Each definition with its register template: operand names and
        # pool kinds, ``None`` for the base register of a load or store
        # (it points at the benchmark's memory region; the memory pass
        # plans the rest of the address).
        entries = [
            (definition, tuple(
                (name, None if definition.is_memory and name == "RA" else kind)
                for name, kind in definition.register_slots
            ))
            for definition in definitions
        ]
        if self.exact:
            choices = self._exact_mix(entries, len(slots), context)
        else:
            weights = self.weights or [1.0] * len(entries)
            choices = context.rng.choices(entries, weights, k=len(slots))

        take = context.pools.take
        for slot, (definition, template) in zip(slots, choices):
            program.body[slot] = IRInstruction(definition, registers={
                name: MEMORY_BASE_REGISTER if kind is None else take(kind)
                for name, kind in template
            })

    def _exact_mix(
        self,
        entries: list[tuple],
        count: int,
        context: PassContext,
    ) -> list[tuple]:
        weights = self.weights or [1.0] * len(entries)
        total = sum(weights)
        raw = [weight / total * count for weight in weights]
        counts = [int(value) for value in raw]
        remainder = count - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for index in order[:remainder]:
            counts[index] += 1
        mix: list[tuple] = []
        for entry, amount in zip(entries, counts):
            mix.extend([entry] * amount)
        context.rng.shuffle(mix)
        return mix
