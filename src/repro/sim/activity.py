"""ThreadActivity: the per-hardware-thread steady-state activity vector.

This is the interface between the performance side of the machine (the
pipeline model or a workload profile) and the hidden power model plus
the performance-counter synthesizer.  Everything is expressed as
per-second rates so configurations and durations compose trivially.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ThreadActivity:
    """Steady-state activity of one hardware thread.

    Attributes:
        ipc: Committed instructions per cycle.
        insn_rates: Instructions per second, by mnemonic.  Empty for
            profiled workloads that only know unit-level rates.
        unit_op_rates: Operations per second injected into each
            functional unit (flexible ops already assigned).
        level_rates: Accesses per second sourced by each memory
            hierarchy level.
        alternation: Fraction of adjacent instruction pairs executing
            on different functional units (0 blocked .. 1 interleaved).
            Drives switching power in the hidden model.
        entropy: Operand-data switching activity in [0, 1].
        unit_energy_bias: Per-unit multiplicative energy bias of this
            workload's instruction mix relative to a generic mix;
            profiles use it, kernels leave it empty (their mix is known
            mnemonic by mnemonic).
    """

    ipc: float
    insn_rates: dict[str, float] = field(default_factory=dict)
    unit_op_rates: dict[str, float] = field(default_factory=dict)
    level_rates: dict[str, float] = field(default_factory=dict)
    alternation: float = 0.0
    entropy: float = 1.0
    unit_energy_bias: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ipc < 0:
            raise ValueError("ipc must be non-negative")
        if not 0.0 <= self.alternation <= 1.0:
            raise ValueError("alternation must be within [0, 1]")
        if not 0.0 <= self.entropy <= 1.0:
            raise ValueError("entropy must be within [0, 1]")
