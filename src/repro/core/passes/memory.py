"""Memory-behaviour pass: plan addresses with the analytical cache model.

"Generate addresses according to model" from the paper's Figure-2
script: every memory instruction in the body receives a planned byte
address and the hierarchy level that address is statically guaranteed
to hit, using the set-associative cache model of section 2.1.3 -- no
design-space exploration required.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.ir import Program, scatter
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError
from repro.march.cache_model import SetAssociativeCacheModel


class MemoryModel(Pass):
    """Assign addresses realizing a target hierarchy hit distribution.

    Args:
        weights: Per-level hit fractions, e.g. ``{"L1": 1/3, "L2": 1/3,
            "L3": 1/3}``.  Keys are the architecture's level names.
        base_address: Optional override of the model's memory-region
            base (useful to give concurrent benchmarks disjoint
            regions).
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        base_address: int | None = None,
    ) -> None:
        self.weights = dict(weights)
        self.base_address = base_address

    @property
    def name(self) -> str:
        spec = ", ".join(
            f"{level}={weight:.0%}" for level, weight in self.weights.items()
        )
        return f"MemoryModel({spec})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.memory_slots()
        if not slots:
            raise PassError(
                f"{program.name}: memory model applied but the body has "
                "no memory instructions; order the distribution pass first"
            )
        if self.base_address is not None:
            model = SetAssociativeCacheModel(
                context.arch.caches,
                context.arch.memory,
                base_address=self.base_address,
            )
        else:
            model = SetAssociativeCacheModel.for_architecture(context.arch)

        plan = model.plan(
            self.weights,
            slot_count=len(slots),
            seed=context.rng.randrange(2 ** 31),
        )
        program.memory_base = model.base_address
        program.metadata["memory_plan"] = plan
        scatter(program.addresses, slots, plan.slots)
        scatter(program.source_levels, slots, plan.slot_levels)

        definitions, immediates = program.definitions, program.immediates
        fits_dform = 0
        for index, address in zip(slots, plan.slots):
            offset = address - model.base_address
            definition = definitions[index]
            displacement = definition.displacement
            if displacement is not None:
                at = program.immediate_bases[index]
                immediates[at + definition.immediate_index[displacement]] = offset
                if -32768 <= offset <= 32767:
                    fits_dform += 1
        program.metadata["dform_offsets_in_range"] = fits_dform
