"""Architected register pools and round-robin allocation.

Code generation needs concrete register numbers for emission and for
expressing dependencies (a consumer reads the producer's target
register).  The allocator reserves the ABI registers a real POWER
toolchain would (r0 quirk, r1 stack, r2 TOC, r13 thread pointer) plus
the registers the generated skeleton itself uses (loop counter and
memory base).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.isa.operand import OperandKind

#: Register reserved as the memory-region base pointer in generated code.
MEMORY_BASE_REGISTER = 28
#: Register reserved as scratch for large-displacement address forming.
ADDRESS_SCRATCH_REGISTER = 27

_RESERVED_GPRS = frozenset({0, 1, 2, 13, ADDRESS_SCRATCH_REGISTER, MEMORY_BASE_REGISTER})

#: Allocatable register numbers per kind, in round-robin order.
_POOLS = {
    OperandKind.GPR: tuple(n for n in range(32) if n not in _RESERVED_GPRS),
    OperandKind.FPR: tuple(range(32)),
    OperandKind.VR: tuple(range(32)),
    OperandKind.VSR: tuple(range(64)),
    OperandKind.CR: tuple(range(8)),
    OperandKind.SPR: (0,),
}


@dataclass
class RegisterPools:
    """Round-robin register allocator over the architected files."""

    _cycles: dict[OperandKind, Iterator[int]] = field(default_factory=dict)

    def cycle(self, kind: OperandKind) -> Iterator[int]:
        """The round-robin register stream of ``kind``: ``next`` on it
        takes the next register, whichever pass asks."""
        cycle = self._cycles.get(kind)
        if cycle is None:
            if kind not in _POOLS:
                raise ValueError(f"no register pool for {kind}")
            cycle = self._cycles[kind] = itertools.cycle(_POOLS[kind])
        return cycle


def register_prefix(kind: OperandKind) -> str:
    """Assembly prefix for a register kind (``r3``, ``f5``, ``vs12``...)."""
    prefixes = {
        OperandKind.GPR: "r",
        OperandKind.FPR: "f",
        OperandKind.VR: "v",
        OperandKind.VSR: "vs",
        OperandKind.CR: "cr",
        OperandKind.SPR: "",
    }
    return prefixes[kind]


def format_register(kind: OperandKind, number: int) -> str:
    """Render a register operand for assembly output."""
    if kind is OperandKind.SPR:
        return ""  # SPR operands are implicit in PowerPC mnemonics
    return f"{register_prefix(kind)}{number}"
