"""Value-initialisation passes.

Registers, immediates and memory regions can be initialised to zero, a
fixed bit pattern, or random values.  The choice matters for power:
random data maximizes datapath toggling while all-zero operands can
reduce EPI by up to 40 % (paper section 5); the bootstrap process uses
random values "to minimize the possible data switching effects,
allowing fair comparison between instructions".
"""

from __future__ import annotations

from repro.core.ir import DATA_ENTROPY, Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError

_MODES = tuple(DATA_ENTROPY)


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


class InitRegisters(Pass):
    """Set the register-initialisation policy of the program.

    The Figure-2 example's "Init registers to 0b01010101" is
    ``InitRegisters("pattern", pattern=0b01010101)``.
    """

    def __init__(self, mode: str = "random", pattern: int = 0b01010101) -> None:
        _check_mode(mode)
        self.mode = mode
        self.pattern = pattern

    @property
    def name(self) -> str:
        if self.mode == "pattern":
            return f"InitRegisters(pattern=0b{self.pattern:b})"
        return f"InitRegisters({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        program.register_init = self.mode
        if self.mode == "pattern":
            program.init_pattern = self.pattern


class InitImmediates(Pass):
    """Assign immediate operand values throughout the body.

    Displacement operands are exempt: they carry addresses planned by
    the memory pass, not data.
    """

    def __init__(self, mode: str = "random", pattern: int = 0b01010101) -> None:
        _check_mode(mode)
        self.mode = mode
        self.pattern = pattern

    @property
    def name(self) -> str:
        if self.mode == "pattern":
            return f"InitImmediates(pattern=0b{self.pattern:b})"
        return f"InitImmediates({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        if not program.definitions:
            raise PassError(f"{program.name}: nothing to initialize")
        program.immediate_init = self.mode
        immediates, bases = program.immediates, program.immediate_bases
        for definition, base in zip(program.definitions, bases):
            for name, width in definition.immediate_fields:
                position = base + definition.immediate_index[name]
                immediates[position] = self._value(width, context)

    def _value(self, width: int, context: PassContext) -> int:
        # Immediates are encoded as signed fields; stay within the
        # non-negative half so every mode emits valid assembly.
        limit = max(1, 2 ** (width - 1) - 1)
        if self.mode == "zero":
            return 0
        if self.mode == "pattern":
            return self.pattern & limit
        return context.rng.randint(0, limit)
