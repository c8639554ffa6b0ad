"""Final IR validation pass.

The synthesizer appends this pass automatically: it enforces the
invariants every downstream consumer (emitters, machine substrate)
relies on, so a mis-ordered pass pipeline fails loudly at synthesis
time rather than producing a silently wrong micro-benchmark.
"""

from __future__ import annotations

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError


class ValidateProgram(Pass):
    """Check IR well-formedness after all transformations."""

    def apply(self, program: Program, context: PassContext) -> None:
        body = program.body
        if not body:
            raise PassError(f"{program.name}: empty program")
        size = len(body)
        for index, instruction in enumerate(body):
            definition = instruction.definition
            for name in definition.required_registers:
                if name not in instruction.registers:
                    raise _slot_error(
                        program, index, f"operand {name} unassigned"
                    )
            if definition.accesses_memory and not instruction.structural:
                if instruction.address is None:
                    raise _slot_error(
                        program, index, "memory instruction without a "
                        "planned address; run a MemoryModel pass"
                    )
            distance = instruction.dep_distance
            if distance is not None:
                if distance < 1 or distance >= size:
                    raise _slot_error(
                        program, index,
                        f"dependency distance {distance} out of range",
                    )
                producer = body[index - distance]  # wraps like the loop
                if producer.target_register() is None:
                    raise _slot_error(
                        program, index, f"producer at distance {distance} "
                        f"({producer.mnemonic}) writes no register",
                    )


def _slot_error(program: Program, index: int, reason: str) -> PassError:
    mnemonic = program.body[index].mnemonic
    return PassError(f"{program.name} slot {index} ({mnemonic}): {reason}")
