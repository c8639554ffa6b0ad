"""Instruction-distribution pass.

Fills the skeleton's slots with instructions drawn from a user-selected
pool, either as an exact proportional mix (shuffled multiset, the
default -- distributions are then exact, not just expected) or by
independent weighted draws.  Register operands receive round-robin
default assignments; memory operands are left for the memory pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat

from repro.core.ir import Program, scatter
from repro.core.passes.base import Pass, PassContext
from repro.core.registers import MEMORY_BASE_REGISTER
from repro.errors import PassError
from repro.isa.instruction import InstructionDef

#: The register stream of a load or store's base register.
_MEMORY_BASE = repeat(MEMORY_BASE_REGISTER)


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
        # One register stream per register operand; the base register of
        # a load or store points at the benchmark's memory region (the
        # memory pass plans the rest of the address).
        take = context.pools.cycle
        streams = [
            tuple(
                _MEMORY_BASE if definition.is_memory and name == "RA"
                else take(kind)
                for name, kind in definition.register_slots
            )
            for definition in definitions
        ]
        if self.exact:
            choices = self._exact_mix(len(definitions), len(slots), context)
        else:
            weights = self.weights or [1.0] * len(definitions)
            choices = context.rng.choices(
                range(len(definitions)), weights, k=len(slots)
            )
        # Registers are taken slot by slot, operand by operand.
        registers = list(map(
            next, chain.from_iterable(map(streams.__getitem__, choices))
        ))
        program.define(slots, choices, definitions, registers)
        scatter(program.dep_operands, slots, [None] * len(slots))

    def _exact_mix(
        self,
        entries: int,
        count: int,
        context: PassContext,
    ) -> list[int]:
        """A shuffled multiset of ``count`` entry indices."""
        weights = self.weights or [1.0] * entries
        total = sum(weights)
        raw = [weight / total * count for weight in weights]
        counts = [int(value) for value in raw]
        remainder = count - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for index in order[:remainder]:
            counts[index] += 1
        mix: list[int] = []
        for entry, amount in enumerate(counts):
            mix.extend([entry] * amount)
        context.rng.shuffle(mix)
        return mix
