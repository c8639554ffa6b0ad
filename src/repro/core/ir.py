"""Internal representation of a micro-benchmark under construction.

A :class:`Program` is an endless loop: a body of :class:`IRInstruction`
slots plus a closing backward branch.  Passes transform the program in
place; emission and simulation read it.  The IR keeps both the static
side (mnemonics, register assignments, immediates) and the dynamic
annotations the machine model needs (dependency distances, planned
memory levels and addresses, operand entropy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SynthesisError
from repro.isa.instruction import InstructionDef
from repro.isa.operand import OperandKind
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel, KernelInstruction

#: Value-initialisation policies and the operand-data entropy they induce.
DATA_ENTROPY = {"zero": 0.0, "pattern": 0.5, "random": 1.0}


@dataclass
class IRInstruction:
    """One slot of the loop body.

    Attributes:
        definition: The ISA instruction occupying this slot.
        registers: Register number per register operand name.
        immediates: Immediate value per immediate operand name.
        dep_distance: Slots back to this instruction's producer, or
            ``None`` when independent.
        dep_operand: Name of the source operand carrying the dependency
            (set alongside ``dep_distance`` by the ILP pass).
        address: Planned byte address for memory operations.
        source_level: Hierarchy level the address is planned to hit.
        structural: True for skeleton-owned slots (the loop-closing
            branch) that distribution passes must not replace.
        comment: Free-form annotation carried into emitted code.
    """

    definition: InstructionDef
    registers: dict[str, int] = field(default_factory=dict)
    immediates: dict[str, int] = field(default_factory=dict)
    dep_distance: int | None = None
    dep_operand: str | None = None
    address: int | None = None
    source_level: str | None = None
    structural: bool = False
    comment: str = ""

    @property
    def mnemonic(self) -> str:
        return self.definition.mnemonic

    def target_register(self) -> tuple[str, OperandKind, int] | None:
        """(operand name, kind, number) of the primary written register."""
        registers = self.registers
        for name, kind in self.definition.write_slots:
            number = registers.get(name)
            if number is not None:
                return name, kind, number
        return None


@dataclass
class Program:
    """A micro-benchmark: an endless loop over a fixed body.

    Built by the skeleton pass, refined by the remaining passes.
    """

    name: str
    arch: MicroArchitecture
    body: list[IRInstruction] = field(default_factory=list)
    loop_label: str = "loop"
    register_init: str = "random"
    immediate_init: str = "random"
    init_pattern: int = 0
    memory_base: int = 0
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Body slots, excluding structural slots."""
        return sum(1 for ins in self.body if not ins.structural)

    @property
    def operand_entropy(self) -> float:
        """Data-switching entropy implied by the value-init policies."""
        register_entropy = DATA_ENTROPY[self.register_init]
        immediate_entropy = DATA_ENTROPY[self.immediate_init]
        # Register values dominate datapath toggling; immediates only
        # feed a slice of the operand bits.
        return 0.8 * register_entropy + 0.2 * immediate_entropy

    def workload_slots(self) -> list[int]:
        """Indices of non-structural slots, in program order."""
        return [
            index for index, ins in enumerate(self.body) if not ins.structural
        ]

    def memory_instructions(self) -> list[IRInstruction]:
        """Memory-op slots (loads and stores), program order."""
        return [
            ins for ins in self.body
            if ins.definition.accesses_memory and not ins.structural
        ]

    # -- downstream views ------------------------------------------------------

    def to_kernel(self) -> Kernel:
        """The simulator-facing view of this program.

        Bodies the pass pipeline left analytically uniform (every
        workload slot shares mnemonic, dependency link and memory
        level -- the bootstrap's single-instruction loops) are stamped
        with a period fingerprint so the steady-state evaluation engine
        summarizes them in O(period) work.
        """
        if not self.body:
            raise SynthesisError(
                f"program {self.name!r} has no body; run a skeleton pass"
            )
        # Slots with equal content share one (immutable) kernel slot.
        shared: dict[tuple, KernelInstruction] = {}
        slots = []
        for ins in self.body:
            key = (
                ins.definition.mnemonic, ins.dep_distance,
                ins.source_level, ins.address,
            )
            slot = shared.get(key)
            if slot is None:
                slot = shared[key] = KernelInstruction(*key)
            slots.append(slot)
        instructions = tuple(slots)
        return Kernel(
            name=self.name,
            instructions=instructions,
            operand_entropy=self.operand_entropy,
            period=self._analytic_period(instructions),
        )

    def _analytic_period(
        self, instructions: tuple[KernelInstruction, ...]
    ) -> int | None:
        """Period fingerprint of a uniform body, or ``None``.

        The fingerprint contract places the trailing structural slots
        (the loop-closing branch) in the remainder tail, so the period
        must divide the workload length while leaving the tail short of
        one full period; the smallest such divisor is returned.
        """
        tail = 0
        while tail < len(self.body) and self.body[-1 - tail].structural:
            tail += 1
        workload = len(self.body) - tail
        if workload < 2 or any(
            ins.structural for ins in self.body[:workload]
        ):
            return None
        key = instructions[0].analytic_key()
        if any(
            instructions[index].analytic_key() != key
            for index in range(1, workload)
        ):
            return None
        for divisor in (2, 3, 5, 7, 11, 13):
            if tail < divisor and workload % divisor == 0:
                return divisor
        return None

    def save(self, path: str | Path) -> Path:
        """Emit the program to ``path`` (.c or .s decides the emitter)."""
        from repro.core.emit.asm_emitter import emit_assembly
        from repro.core.emit.c_emitter import emit_c

        path = Path(path)
        if path.suffix == ".c":
            text = emit_c(self)
        elif path.suffix == ".s":
            text = emit_assembly(self)
        else:
            raise SynthesisError(
                f"cannot infer emitter from suffix {path.suffix!r}; "
                "use .c or .s"
            )
        path.write_text(text)
        return path

    def mnemonic_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ins in self.body:
            counts[ins.mnemonic] = counts.get(ins.mnemonic, 0) + 1
        return counts
