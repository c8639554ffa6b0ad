"""Internal representation of a micro-benchmark under construction.

A :class:`Program` is an endless loop: a body of slots plus a closing
backward branch.  Passes transform the program in place; emission and
simulation read it.  The IR keeps both the static side (instruction
definitions, register assignments, immediates) and the dynamic
annotations the machine model needs (dependency distances, planned
memory levels and addresses, operand entropy).  The body is held as
per-slot columns; :attr:`Program.body` spells them as rows, and
:meth:`Program.to_kernel` as a kernel slot table, with no slot objects.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, islice
from operator import and_, attrgetter, not_
from pathlib import Path

from repro.errors import SynthesisError
from repro.isa.instruction import InstructionDef
from repro.isa.operand import OperandKind
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel

#: Value-initialisation policies and the operand-data entropy they induce.
DATA_ENTROPY = {"zero": 0.0, "pattern": 0.5, "random": 1.0}

_mnemonic = attrgetter("mnemonic")


@dataclass
class IRInstruction:
    """One slot of the loop body, as :attr:`Program.body` spells it.

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


@dataclass
class Program:
    """A micro-benchmark: an endless loop over a fixed body.

    Built by the skeleton pass, refined by the remaining passes.  Slot
    ``i`` is entry ``i`` of each per-slot column, ``definitions``
    through ``immediate_bases``.  Its register numbers sit in the flat
    ``registers`` column from ``register_bases[i]`` on, one per entry
    of its definition's ``register_slots``, and its immediates in
    ``immediates`` from ``immediate_bases[i]`` on, one per entry of the
    definition's ``immediates``; ``None`` marks an unassigned operand.
    Giving a slot a new definition appends fresh regions.
    """

    name: str
    arch: MicroArchitecture
    loop_label: str = "loop"
    register_init: str = "random"
    immediate_init: str = "random"
    init_pattern: int = 0
    memory_base: int = 0
    metadata: dict[str, object] = field(default_factory=dict)
    definitions: list[InstructionDef] = field(default_factory=list)
    dep_distances: list[int | None] = field(default_factory=list)
    dep_operands: list[str | None] = field(default_factory=list)
    addresses: list[int | None] = field(default_factory=list)
    source_levels: list[str | None] = field(default_factory=list)
    structural: list[bool] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    register_bases: list[int] = field(default_factory=list)
    immediate_bases: list[int] = field(default_factory=list)
    registers: list[int | None] = field(default_factory=list)
    immediates: list[int | None] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Body slots, excluding structural slots."""
        return self.structural.count(False)

    @property
    def operand_entropy(self) -> float:
        """Data-switching entropy implied by the value-init policies."""
        register_entropy = DATA_ENTROPY[self.register_init]
        immediate_entropy = DATA_ENTROPY[self.immediate_init]
        # Register values dominate datapath toggling; immediates only
        # feed a slice of the operand bits.
        return 0.8 * register_entropy + 0.2 * immediate_entropy

    @property
    def body(self) -> list[IRInstruction]:
        """The slots as rows, built from the columns on every read.

        Rows are copies: editing one leaves the program unchanged.
        """
        rows = []
        for index, definition in enumerate(self.definitions):
            rows.append(IRInstruction(
                definition,
                _named(definition.register_index, self.registers,
                       self.register_bases[index]),
                _named(definition.immediate_index, self.immediates,
                       self.immediate_bases[index]),
                self.dep_distances[index], self.dep_operands[index],
                self.addresses[index], self.source_levels[index],
                self.structural[index], self.comments[index],
            ))
        return rows

    def workload_slots(self) -> list[int]:
        """Indices of non-structural slots, in program order."""
        return list(compress(range(len(self.structural)),
                             map(not_, self.structural)))

    def memory_slots(self) -> list[int]:
        """Indices of the memory-op slots (loads and stores), in order."""
        return list(compress(range(len(self.definitions)), map(
            and_, map(attrgetter("accesses_memory"), self.definitions),
            map(not_, self.structural),
        )))

    def targets(self, slots) -> list[tuple[OperandKind, int] | None]:
        """(kind, number) of the register each of ``slots`` writes: its
        first write operand with an assigned register, else ``None``."""
        registers, found = self.registers, []
        for index in slots:
            definition = self.definitions[index]
            at, positions = self.register_bases[index], definition.register_index
            for name, kind in definition.write_slots:
                number = registers[at + positions[name]]
                if number is not None:
                    found.append((kind, number))
                    break
            else:
                found.append(None)
        return found

    def define(
        self,
        slots: list[int],
        choices: list[int],
        definitions: list[InstructionDef],
        registers: list[int] | None = None,
        comment: str = "",
    ) -> None:
        """Make slot ``slots[k]`` (increasing) a fresh
        ``definitions[choices[k]]``: new operand regions, registers taken
        in order from ``registers`` (else unassigned), no immediates,
        dependency distance, address or level, and ``comment``."""
        scatter(self.definitions, slots,
                list(map(definitions.__getitem__, choices)))
        for column, bases, widths, values in (
            (self.registers, self.register_bases,
             [len(d.register_slots) for d in definitions], registers),
            (self.immediates, self.immediate_bases,
             [len(d.immediates) for d in definitions], None),
        ):
            starts = list(accumulate(map(widths.__getitem__, choices),
                                     initial=len(column)))
            column += values or [None] * (starts[-1] - starts[0])
            scatter(bases, slots, starts[:-1])
        unset = [None] * len(slots)
        for column in (self.dep_distances, self.addresses, self.source_levels):
            scatter(column, slots, unset)
        scatter(self.comments, slots, [comment] * len(slots))

    # -- downstream views ------------------------------------------------------

    def to_kernel(self) -> Kernel:
        """The simulator-facing view of this program, as a slot table
        (:meth:`Kernel.from_fields`): no slot object is built.

        Bodies the pass pipeline left analytically uniform (every
        workload slot shares mnemonic, dependency link and memory
        level -- the bootstrap's single-instruction loops) are stamped
        with a period fingerprint so the steady-state evaluation engine
        summarizes them in O(period) work.
        """
        if not self.definitions:
            raise SynthesisError(
                f"program {self.name!r} has no body; run a skeleton pass"
            )
        # Each distinct slot's fields become the next table entry.
        entries: defaultdict[tuple, int] = defaultdict(count().__next__)
        index = list(map(entries.__getitem__, zip(
            map(_mnemonic, self.definitions), self.dep_distances,
            self.source_levels, self.addresses,
        )))
        return Kernel.from_fields(
            self.name,
            list(entries),
            index,
            self.operand_entropy,
            self._analytic_period(),
        )

    def _analytic_period(self) -> int | None:
        """Period fingerprint of a uniform body, or ``None``.

        The fingerprint contract places the trailing structural slots
        (the loop-closing branch) in the remainder tail, so the period
        must divide the workload length while leaving the tail short of
        one full period; the smallest such divisor is returned.
        """
        structural = self.structural
        tail = 0
        while tail < len(structural) and structural[-1 - tail]:
            tail += 1
        workload = len(structural) - tail
        if workload < 2 or any(structural[:workload]):
            return None
        keys = zip(
            map(_mnemonic, self.definitions), self.dep_distances,
            self.source_levels,
        )
        first = next(keys)
        if any(key != first for key in islice(keys, workload - 1)):
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
        for mnemonic in map(_mnemonic, self.definitions):
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        return counts


def scatter(column: list, slots: list[int], values: list) -> None:
    """``column[slots[k]] = values[k]`` for increasing ``slots``."""
    count = len(slots)
    if count == len(values) and count and slots[-1] == count - 1:
        column[:count] = values
        return
    for slot, value in zip(slots, values):
        column[slot] = value


def _named(index: dict[str, int], column: list, at: int) -> dict[str, int]:
    """The assigned values of one slot's operand region, by name."""
    return {
        name: column[at + position]
        for name, position in index.items()
        if column[at + position] is not None
    }
