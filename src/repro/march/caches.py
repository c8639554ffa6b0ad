"""Cache geometry and address-field decomposition (paper Figure 3b).

The analytical set-associative cache model of the paper relies on
knowing, for each cache level, which address bits select the set.  That
information is pure geometry: with ``line_bytes`` per line and ``sets``
sets, bits ``[offset_bits, offset_bits + set_bits)`` form the set index.
:class:`CacheGeometry` derives it once from size/ways/line-size and
:class:`AddressFields` exposes the split used by the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import cycle


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class AddressFields:
    """The offset/set/tag split of a physical address for one cache level."""

    offset_bits: int
    set_bits: int

    @property
    def tag_shift(self) -> int:
        """Bit position where the tag field starts."""
        return self.offset_bits + self.set_bits

    def line_address(self, address: int) -> int:
        """Address with the intra-line offset stripped."""
        return address >> self.offset_bits

    def set_index(self, address: int) -> int:
        """Set selected by ``address`` at this level."""
        return (address >> self.offset_bits) & ((1 << self.set_bits) - 1)

    def tag(self, address: int) -> int:
        """Tag bits of ``address`` at this level."""
        return address >> self.tag_shift

    def compose(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Build an address that lands in ``set_index`` with the given tag."""
        if not 0 <= set_index < (1 << self.set_bits):
            raise ValueError(f"set index {set_index} out of range")
        if not 0 <= offset < (1 << self.offset_bits):
            raise ValueError(f"offset {offset} out of range")
        return (tag << self.tag_shift) | (set_index << self.offset_bits) | offset

    def compose_lines(self, tags, set_indices, base: int) -> list[int]:
        """``base + compose(tag, set_index)`` for each of ``tags``, set
        indices taken in turn (cycled) and each checked once."""
        shift = self.tag_shift
        sets = [self.compose(0, set_index) for set_index in set_indices]
        return [base + ((tag << shift) | low) for tag, low in zip(tags, cycle(sets))]


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache level.

    Attributes:
        name: Level name (``L1``, ``L2``, ``L3``).
        level: Depth in the hierarchy, 1-based.
        size_bytes: Total capacity.
        line_bytes: Cache line size.
        ways: Associativity.
        latency: Load-to-use latency in cycles when hitting this level.
        counter: Performance counter crediting data sourced from this
            level (empty for L1, whose hits are derived by subtraction).
    """

    name: str
    level: int
    size_bytes: int
    line_bytes: int
    ways: int
    latency: int
    counter: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError(f"{self.name}: sizes and ways must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of line_bytes * ways"
            )
        if not _is_power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if not _is_power_of_two(self.sets):
            raise ValueError(f"{self.name}: set count must be a power of two")

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.ways)

    @cached_property
    def fields(self) -> AddressFields:
        """Address-field decomposition for this level (Figure 3b)."""
        return AddressFields(
            offset_bits=self.line_bytes.bit_length() - 1,
            set_bits=self.sets.bit_length() - 1,
        )

    def set_of(self, address: int) -> int:
        """Set index selected by ``address``."""
        return self.fields.set_index(address)

    def __str__(self) -> str:
        kb = self.size_bytes // 1024
        return f"{self.name}({kb}KB {self.ways}-way, {self.sets} sets)"


@dataclass(frozen=True)
class MemoryLevel:
    """Main memory: the terminal level of the hierarchy.

    Attributes:
        latency: Access latency in cycles.
        counter: Performance counter crediting data sourced from memory.
    """

    latency: int
    counter: str = ""

    name: str = "MEM"

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")
