"""Instruction definitions: the static, ISA-manual view of an instruction.

An :class:`InstructionDef` captures everything the paper's ISA definition
module exposes for a single instruction: type, operand formats and
lengths, semantic flags (update form, record form, carry, conditional
execution, privilege, pre-fetch) and the binary encoding (primary and
extended opcodes).  Dynamic, implementation-specific properties such as
latency, throughput and EPI live in the micro-architecture module
(:mod:`repro.march`), never here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.isa.operand import Operand, OperandKind


class InstructionType(enum.Enum):
    """Coarse semantic class of an instruction (paper section 2.1.1)."""

    LOAD = "load"
    STORE = "store"
    INTEGER = "int"
    FLOAT = "float"
    VECTOR = "vector"
    DECIMAL = "decimal"
    BRANCH = "branch"
    CR = "cr"  # condition-register / move-to-from-SPR plumbing
    NOP = "nop"


#: Flags allowed in the ``flags`` column of the definition files.
VALID_FLAGS = frozenset(
    {
        "update",  # update form: writes the effective address back to RA
        "indexed",  # X-form addressing (RA + RB)
        "carry",  # reads/writes the carry bit (XER[CA])
        "record",  # record form: sets CR0 / CR1
        "overflow",  # OE form: sets XER[OV]
        "algebraic",  # sign-extends the loaded value
        "conditional",  # execution is predicated (e.g. conditional branch)
        "privileged",  # requires supervisor state
        "prefetch",  # data-prefetch hint (does not architecturally load)
        "absolute",  # branch target is absolute, not relative
        "link",  # branch saves return address in LR
        "ctr",  # branch decrements / reads CTR
    }
)


@dataclass(frozen=True)
class InstructionDef:
    """Static definition of one ISA instruction.

    Attributes:
        mnemonic: Assembly mnemonic, unique within an ISA.
        itype: Coarse semantic class.
        width: Data width in bits the instruction operates on (the operand
            length information of the paper; 128 for VSX/VMX forms).
        operands: Operand slots, in assembly order.
        flags: Semantic flags; subset of :data:`VALID_FLAGS`.
        opcode: Primary opcode from the ISA manual.
        extended_opcode: Extended opcode, or ``None`` for D-form style
            encodings without one.
        description: One-line human description from the manual.
    """

    mnemonic: str
    itype: InstructionType
    width: int
    operands: tuple[Operand, ...]
    flags: frozenset[str] = field(default_factory=frozenset)
    opcode: int = 0
    extended_opcode: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        unknown = self.flags - VALID_FLAGS
        if unknown:
            raise ValueError(
                f"{self.mnemonic}: unknown flags {sorted(unknown)!r}"
            )

    # -- type predicates ---------------------------------------------------

    @property
    def is_load(self) -> bool:
        return self.itype is InstructionType.LOAD

    @property
    def is_store(self) -> bool:
        return self.itype is InstructionType.STORE

    @property
    def is_memory(self) -> bool:
        return self.is_load or self.is_store

    @property
    def is_branch(self) -> bool:
        return self.itype is InstructionType.BRANCH

    @property
    def is_integer(self) -> bool:
        return self.itype is InstructionType.INTEGER

    @property
    def is_float(self) -> bool:
        return self.itype is InstructionType.FLOAT

    @property
    def is_vector(self) -> bool:
        return self.itype is InstructionType.VECTOR

    @property
    def is_decimal(self) -> bool:
        return self.itype is InstructionType.DECIMAL

    @property
    def is_nop(self) -> bool:
        return self.itype is InstructionType.NOP

    # -- flag predicates ---------------------------------------------------

    @property
    def is_update_form(self) -> bool:
        return "update" in self.flags

    @property
    def is_indexed(self) -> bool:
        return "indexed" in self.flags

    @property
    def is_algebraic(self) -> bool:
        return "algebraic" in self.flags

    @property
    def is_conditional(self) -> bool:
        return "conditional" in self.flags

    @property
    def is_privileged(self) -> bool:
        return "privileged" in self.flags

    @property
    def is_prefetch(self) -> bool:
        return "prefetch" in self.flags

    # -- operand helpers ---------------------------------------------------

    @property
    def register_reads(self) -> tuple[Operand, ...]:
        """Register operands the instruction reads."""
        return tuple(
            op for op in self.operands
            if op.is_register and op.direction.is_read
        )

    @property
    def register_writes(self) -> tuple[Operand, ...]:
        """Register operands the instruction writes."""
        return tuple(
            op for op in self.operands
            if op.is_register and op.direction.is_write
        )

    @property
    def immediates(self) -> tuple[Operand, ...]:
        """Immediate and displacement operands."""
        return tuple(op for op in self.operands if op.is_immediate)

    @property
    def has_immediate(self) -> bool:
        return bool(self.immediates)

    @property
    def memory_operands(self) -> tuple[Operand, ...]:
        """Operands participating in effective-address generation.

        For D-form memory ops this is ``(RA, D)``; for X-form, ``(RA, RB)``.
        Non-memory instructions have none.
        """
        if not self.is_memory and not self.is_prefetch:
            return ()
        names = {"RA", "RB", "D", "DS", "DQ"}
        return tuple(op for op in self.operands if op.name in names)

    # -- synthesis facts ---------------------------------------------------
    #
    # Derived from the declared fields on first use and cached on the
    # instance, so the synthesis passes read plain tuples per slot.
    # ``repr``, ``==`` and the architecture digest see declared fields only.

    @cached_property
    def register_slots(self) -> tuple[tuple[str, OperandKind], ...]:
        """``(name, kind)`` of every register operand, in assembly order."""
        return tuple(
            (op.name, op.kind) for op in self.operands if op.is_register
        )

    @cached_property
    def read_slots(self) -> tuple[tuple[str, OperandKind], ...]:
        """``(name, kind)`` of the register operands the instruction reads."""
        return tuple((op.name, op.kind) for op in self.register_reads)

    @cached_property
    def write_slots(self) -> tuple[tuple[str, OperandKind], ...]:
        """``(name, kind)`` of the register operands the instruction writes."""
        return tuple((op.name, op.kind) for op in self.register_writes)

    @cached_property
    def address_names(self) -> frozenset[str]:
        """Names of the :attr:`memory_operands`."""
        return frozenset(op.name for op in self.memory_operands)

    @cached_property
    def accesses_memory(self) -> bool:
        """A load or store other than a prefetch hint."""
        return self.is_memory and not self.is_prefetch

    @cached_property
    def dependency_sources(
        self,
    ) -> tuple[tuple[tuple[str, OperandKind], ...], ...]:
        """Source groups a dependency may link through, preferred first.

        The data sources come first, then every source with the
        effective-address operands last, index before base (dependency
        through an address register is a pointer-chase pattern).  SPRs
        carry no dependency; empty and repeated groups are dropped.
        """
        data, index, base = [], [], []
        for name, kind in self.read_slots:
            if kind is OperandKind.SPR:
                continue
            if name not in self.address_names:
                data.append((name, kind))
            elif name == "RB":
                index.append((name, kind))
            else:
                base.append((name, kind))
        groups = (tuple(data),)
        if index or base:
            groups += (tuple(data + index + base),)
        return tuple(group for group in groups if group)

    @cached_property
    def displacement(self) -> str | None:
        """Name of the displacement operand (``D``/``DS``/``DQ``), if any."""
        return next(
            (op.name for op in self.operands if op.name in ("D", "DS", "DQ")),
            None,
        )

    @cached_property
    def immediate_fields(self) -> tuple[tuple[str, int], ...]:
        """``(name, width)`` of the immediates other than displacements."""
        return tuple(
            (op.name, op.width) for op in self.immediates
            if op.kind is not OperandKind.DISP
        )

    @cached_property
    def required_registers(self) -> tuple[str, ...]:
        """Register operands that need an assignment (SPRs are implicit)."""
        return tuple(
            name for name, kind in self.register_slots
            if kind is not OperandKind.SPR
        )

    @cached_property
    def register_index(self) -> dict[str, int]:
        """Position of each register operand name in :attr:`register_slots`."""
        return {name: at for at, (name, _) in enumerate(self.register_slots)}

    @cached_property
    def immediate_index(self) -> dict[str, int]:
        """Position of each immediate operand name in :attr:`immediates`."""
        return {op.name: at for at, op in enumerate(self.immediates)}

    @property
    def target_kind(self) -> OperandKind | None:
        """Register kind of the primary destination, if any."""
        for op in self.operands:
            if op.is_register and op.direction.is_write:
                return op.kind
        return None

    def format_line(self) -> str:
        """Render the manual-style format line, e.g. ``addic RT, RA, SI``."""
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(op.name for op in self.operands)

    def __str__(self) -> str:
        return self.format_line()
