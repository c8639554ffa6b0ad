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
        definitions = program.definitions
        if not definitions:
            raise PassError(f"{program.name}: empty program")
        size, registers = len(definitions), program.registers
        # With no operand unassigned anywhere, every register check
        # passes and a slot writes a register if it has a write operand.
        assigned = None not in registers
        for index, (definition, distance) in enumerate(
            zip(definitions, program.dep_distances)
        ):
            base = program.register_bases[index]
            for name in () if assigned else definition.required_registers:
                if registers[base + definition.register_index[name]] is None:
                    raise _slot_error(
                        program, index, f"operand {name} unassigned"
                    )
            if (
                definition.accesses_memory and not program.structural[index]
                and program.addresses[index] is None
            ):
                raise _slot_error(
                    program, index, "memory instruction without a "
                    "planned address; run a MemoryModel pass"
                )
            if distance is not None:
                if distance < 1 or distance >= size:
                    raise _slot_error(
                        program, index,
                        f"dependency distance {distance} out of range",
                    )
                producer = index - distance  # wraps like the loop
                if (
                    not definitions[producer].write_slots if assigned
                    else program.targets((producer,))[0] is None
                ):
                    raise _slot_error(
                        program, index, f"producer at distance {distance} "
                        f"({definitions[producer].mnemonic}) writes no "
                        "register",
                    )


def _slot_error(program: Program, index: int, reason: str) -> PassError:
    mnemonic = program.definitions[index].mnemonic
    return PassError(f"{program.name} slot {index} ({mnemonic}): {reason}")
