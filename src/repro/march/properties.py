"""Per-instruction dynamic properties.

This is the micro-architecture side of an instruction: which functional
units it stresses (and how many operations it injects into each), its
execution latency, its inverse throughput (pipe-occupancy cycles), and
-- once the bootstrap of section 2.1.2 has run -- its measured EPI and
average sustained power.

The unit-usage model distinguishes *alternatives* from *composition*:

* ``FXU/LSU:1`` -- one operation that can execute on either unit
  (POWER7's LSU executes simple fixed-point ops), and
* ``LSU:1,FXU:2`` -- a load that also injects two fixed-point ops
  (sign extension plus base-register update, e.g. ``lhaux``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

from repro.errors import MicroProbeError


@dataclass(frozen=True)
class UnitUsage:
    """Operations injected into one unit (or one of several alternatives).

    Attributes:
        units: Candidate units, in preference order.  A single-element
            tuple means the operation is tied to that unit.
        ops: Number of operations injected per instruction instance.
    """

    units: tuple[str, ...]
    ops: float = 1.0

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError("unit usage needs at least one unit")
        if not 0 < self.ops < float("inf"):
            raise ValueError("unit usage ops must be positive and finite")

    @property
    def is_flexible(self) -> bool:
        """Whether the operation may execute on more than one unit."""
        return len(self.units) > 1

    def __str__(self) -> str:
        spec = "/".join(self.units)
        if self.ops != 1:
            spec += f":{self.ops:g}"
        return spec


def parse_unit_usages(spec: str) -> tuple[UnitUsage, ...]:
    """Parse a usages spec like ``LSU:1,FXU:2`` or ``FXU/LSU`` or ``-``."""
    spec = spec.strip()
    if spec == "-":
        return ()
    usages = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        name_part, _, ops_part = chunk.partition(":")
        units = tuple(unit.strip() for unit in name_part.split("/"))
        if any(not unit for unit in units):
            raise ValueError(f"bad unit usage spec {chunk!r}")
        ops = float(ops_part) if ops_part else 1.0
        usages.append(UnitUsage(units=units, ops=ops))
    return tuple(usages)


@dataclass(frozen=True)
class InstructionProperties:
    """Micro-architecture properties of one instruction.

    Attributes:
        mnemonic: Instruction mnemonic (matches the ISA registry).
        usages: Unit usages (empty for nops).
        latency: Result latency in cycles.
        inv_throughput: Pipe-occupancy in cycles per operation; sustained
            single-instruction IPC is ``pipes(unit) / inv_throughput``.
        epi: Energy per instruction in nanojoules, measured by the
            bootstrap process (``None`` until bootstrapped).
        avg_power: Average sustained power in watts while running an
            endless loop of this instruction (``None`` until
            bootstrapped).
    """

    mnemonic: str
    usages: tuple[UnitUsage, ...]
    latency: float
    inv_throughput: float
    epi: float | None = None
    avg_power: float | None = None

    def __post_init__(self) -> None:
        if self.latency <= 0:
            raise ValueError(f"{self.mnemonic}: latency must be positive")
        if self.inv_throughput <= 0:
            raise ValueError(f"{self.mnemonic}: inv_throughput must be positive")

    def stresses(self, unit: str) -> bool:
        """Whether this instruction can inject work into ``unit``."""
        return any(unit in usage.units for usage in self.usages)

    @property
    def units(self) -> tuple[str, ...]:
        """All units this instruction may stress, in usage order."""
        seen: dict[str, None] = {}
        for usage in self.usages:
            for unit in usage.units:
                seen.setdefault(unit)
        return tuple(seen)

    @property
    def total_ops(self) -> float:
        """Total micro-operations injected per instance."""
        return sum(usage.ops for usage in self.usages)

    def with_bootstrap(
        self, epi: float, avg_power: float
    ) -> "InstructionProperties":
        """Copy with bootstrapped energy metrics filled in."""
        return replace(self, epi=epi, avg_power=avg_power)


class PropertyDatabase:
    """Mapping of mnemonic to :class:`InstructionProperties`.

    Mutable so the bootstrap process can fill in measured EPI/power.
    """

    def __init__(
        self, properties: Iterable[InstructionProperties] = ()
    ) -> None:
        self._properties: dict[str, InstructionProperties] = {}
        for prop in properties:
            self.add(prop)

    def __contains__(self, mnemonic: str) -> bool:
        return mnemonic in self._properties

    def __iter__(self) -> Iterator[InstructionProperties]:
        return iter(self._properties.values())

    def __len__(self) -> int:
        return len(self._properties)

    def add(self, prop: InstructionProperties) -> None:
        self._properties[prop.mnemonic] = prop

    def get(self, mnemonic: str) -> InstructionProperties:
        try:
            return self._properties[mnemonic]
        except KeyError:
            raise MicroProbeError(
                f"no micro-architecture properties for {mnemonic!r}"
            ) from None

    def update(self, prop: InstructionProperties) -> None:
        """Replace an existing entry (bootstrap write-back)."""
        if prop.mnemonic not in self._properties:
            raise MicroProbeError(
                f"cannot update unknown instruction {prop.mnemonic!r}"
            )
        self._properties[prop.mnemonic] = prop

    def stressing(self, unit: str) -> list[InstructionProperties]:
        """All instructions that can stress ``unit``."""
        return [prop for prop in self if prop.stresses(unit)]

    @property
    def bootstrapped(self) -> bool:
        """Whether every entry carries measured EPI data."""
        return all(prop.epi is not None for prop in self)
