"""Analytical set-associative cache model (paper section 2.1.3).

The model statically constructs a cyclic sequence of memory addresses
whose steady-state hit distribution across the cache hierarchy matches
a requested target -- with *no* design-space exploration.  It rests on
the two observations of the paper:

1. With the address-field information of the micro-architecture
   definition (Figure 3b) one can control which set an access lands in
   at every level.  Because all levels share the line size, the set
   fields nest: every line of one L2 set maps to a single L1 set, and
   every line of one L3 set maps to a single L2 set.

2. In an endless loop, a round-robin walk over ``L`` distinct lines
   mapping to one set of a ``w``-way cache always hits in steady state
   when ``L <= w`` and always misses when the reuse distance stays
   above ``w`` (we use ``L >= 2w``, which keeps the distance ``>= w``
   even across the loop-boundary rewind).

A level-``k``-hitting stream therefore uses lines that overflow the
associativity of every earlier level while staying within the
associativity of level ``k``; main-memory streams overflow every
level.  Streams for different levels are assigned *disjoint* L1 sets,
which -- by field nesting -- makes them disjoint at every level.  Line
tags are drawn randomly (not sequentially) so that hardware stride
prefetchers cannot convert intended misses into hits, as the paper
prescribes.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import CacheModelError
from repro.march.caches import CacheGeometry, MemoryLevel
from repro.march.definition import MicroArchitecture

#: Default base for generated addresses: a 256 MiB-aligned heap region.
DEFAULT_BASE_ADDRESS = 0x1000_0000

_WEIGHT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class MemoryAccessPlan:
    """A statically planned cyclic address sequence.

    Attributes:
        level_names: Hierarchy level names, L1 first, ``MEM`` last.
        weights: Requested per-level hit fractions.
        slots: One byte address per memory slot, in loop-body order.
            Executing the loop repeatedly replays this cycle.
        lines: Per level, the distinct line addresses its stream uses.
        predicted: Hit fractions the plan actually delivers (requested
            weights after integer slot rounding).
    """

    level_names: tuple[str, ...]
    weights: dict[str, float]
    slots: tuple[int, ...]
    slot_levels: tuple[str, ...]
    lines: dict[str, tuple[int, ...]]
    predicted: dict[str, float]

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def footprint_bytes(self, line_bytes: int) -> int:
        """Total distinct bytes touched by the plan."""
        distinct = {address for pool in self.lines.values() for address in pool}
        return len(distinct) * line_bytes


def _round_to_total(weights: list[float], total: int) -> list[int]:
    """Largest-remainder rounding of ``weights * total`` to integers."""
    raw = [weight * total for weight in weights]
    counts = [int(value) for value in raw]
    remainder = total - sum(counts)
    order = sorted(
        range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
    )
    for index in order[:remainder]:
        counts[index] += 1
    return counts


class SetAssociativeCacheModel:
    """Plans address streams for a specific cache hierarchy."""

    def __init__(
        self,
        caches: tuple[CacheGeometry, ...],
        memory: MemoryLevel,
        base_address: int = DEFAULT_BASE_ADDRESS,
    ) -> None:
        if not caches:
            raise CacheModelError("hierarchy needs at least one cache level")
        line_sizes = {cache.line_bytes for cache in caches}
        if len(line_sizes) != 1:
            raise CacheModelError(
                "the analytical model requires a uniform line size; "
                f"got {sorted(line_sizes)}"
            )
        for shallower, deeper in zip(caches, caches[1:]):
            if deeper.sets % shallower.sets != 0:
                raise CacheModelError(
                    f"{deeper.name} set count must be a multiple of "
                    f"{shallower.name}'s for field nesting"
                )
        self.caches = caches
        self.memory = memory
        self.base_address = base_address

    @classmethod
    def for_architecture(
        cls,
        arch: MicroArchitecture,
        base_address: int = DEFAULT_BASE_ADDRESS,
    ) -> "SetAssociativeCacheModel":
        return cls(arch.caches, arch.memory, base_address=base_address)

    # -- public API --------------------------------------------------------------

    @property
    def level_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.caches) + (self.memory.name,)

    def minimum_lines(self, level: str) -> int:
        """Distinct lines a stream hitting ``level`` must cycle through."""
        index = self._level_index(level)
        if index == 0:
            return 1
        # Overflow the largest earlier-level associativity by 2x so the
        # reuse distance stays above it even across the loop rewind.
        return 2 * max(cache.ways for cache in self.caches[:index])

    def plan(
        self,
        weights: Mapping[str, float],
        slot_count: int,
        seed: int = 0,
    ) -> MemoryAccessPlan:
        """Build the cyclic address plan for a target hit distribution.

        Args:
            weights: Per-level hit fractions; keys from
                :attr:`level_names`; must be non-negative and sum to 1.
            slot_count: Number of memory slots in the loop body.
            seed: Seed for randomized tag selection and interleaving.

        Raises:
            CacheModelError: If the weights are invalid or ``slot_count``
                is too small to satisfy the per-stream line minimums.
        """
        normalized = self._validate_weights(weights)
        if slot_count < 1:
            raise CacheModelError("slot_count must be >= 1")

        names = self.level_names
        ordered_weights = [normalized.get(name, 0.0) for name in names]
        counts = _round_to_total(ordered_weights, slot_count)

        rng = random.Random(seed)
        groups = self._set_groups()

        lines: dict[str, tuple[int, ...]] = {}
        stream_slots: dict[str, list[int]] = {}
        for name, count in zip(names, counts):
            if count == 0:
                continue
            minimum = self.minimum_lines(name)
            if count < minimum:
                raise CacheModelError(
                    f"{name} stream received {count} slots but needs at "
                    f"least {minimum}; raise the memory instruction count "
                    f"or the {name} weight"
                )
            pool = self._build_line_pool(name, groups[name], count, rng)
            lines[name] = pool
            stream_slots[name] = [
                pool[i % len(pool)] for i in range(count)
            ]

        slots, slot_levels = self._interleave(stream_slots, rng)
        predicted = {
            name: (len(stream_slots[name]) / slot_count if name in stream_slots else 0.0)
            for name in names
        }
        return MemoryAccessPlan(
            level_names=names,
            weights=dict(normalized),
            slots=tuple(slots),
            slot_levels=tuple(slot_levels),
            lines=lines,
            predicted=predicted,
        )

    # -- internals ------------------------------------------------------------------

    def _level_index(self, level: str) -> int:
        names = self.level_names
        try:
            return names.index(level)
        except ValueError:
            raise CacheModelError(
                f"unknown level {level!r}; levels: {', '.join(names)}"
            ) from None

    def _validate_weights(self, weights: Mapping[str, float]) -> dict[str, float]:
        names = set(self.level_names)
        unknown = set(weights) - names
        if unknown:
            raise CacheModelError(f"unknown levels in weights: {sorted(unknown)}")
        if any(value < 0 for value in weights.values()):
            raise CacheModelError("weights must be non-negative")
        total = sum(weights.values())
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise CacheModelError(f"weights must sum to 1, got {total:g}")
        return {name: float(value) for name, value in weights.items() if value > 0}

    def _set_groups(self) -> dict[str, range]:
        """Partition the L1 sets into one disjoint group per level.

        Streams draw their L1 home sets from their own group, which --
        because the set fields nest -- keeps streams disjoint at every
        level of the hierarchy.
        """
        names = self.level_names
        l1_sets = self.caches[0].sets
        group_size = l1_sets // len(names)
        if group_size < 1:
            raise CacheModelError(
                f"L1 has {l1_sets} sets, cannot carve {len(names)} "
                "disjoint stream groups"
            )
        return {
            name: range(index * group_size, (index + 1) * group_size)
            for index, name in enumerate(names)
        }

    def _random_tags(self, count: int, tag_bits: int, rng: random.Random) -> list[int]:
        """Distinct, randomly spread tags (defeats stride prefetchers)."""
        space = 1 << min(tag_bits, 20)
        if count > space:
            raise CacheModelError("tag space exhausted")
        return rng.sample(range(space), count)

    #: Lines per set used by L1-hitting streams: low enough that even
    #: the maximum SMT way sharing one L1 leaves the sets un-thrashed.
    _L1_LINES_PER_SET = 2

    def _build_line_pool(
        self, level: str, group: range, slot_count: int, rng: random.Random
    ) -> tuple[int, ...]:
        """Distinct line addresses for a stream hitting ``level``.

        L1 streams spread at most :data:`_L1_LINES_PER_SET` lines per
        set across their whole group.  A level-``k`` stream (k > 1)
        walks an alias chain -- one home set per earlier level, all
        nested -- and then spreads ``2 * max(earlier ways)`` lines over
        level-``k`` sets aliasing the level-``k-1`` home, overflowing
        every earlier level while staying at associativity in level
        ``k``.  Main-memory pools overflow a single last-level set.
        """
        index = self._level_index(level)
        l1 = self.caches[0]

        if index == 0:
            pool_size = max(1, min(self._L1_LINES_PER_SET * len(group), slot_count))
            tags = self._random_tags(pool_size, 16, rng)
            return tuple(l1.fields.compose_lines(
                tags, group[:pool_size], self.base_address
            ))

        return self._deep_pool(level, index, group, slot_count, rng)

    def _deep_pool(
        self,
        level: str,
        index: int,
        group: range,
        slot_count: int,
        rng: random.Random,
    ) -> tuple[int, ...]:
        """Line pool for a level-``k`` (k > 1) or main-memory stream.

        When the target level can hold one distinct line per slot, the
        pool simply *is* ``slot_count`` distinct lines: with no reuse at
        all, every access provably misses the levels above (and, for
        the memory stream, every level).  Only when the slot count
        exceeds the level's aliased capacity does the pool fall back to
        a cyclic size ``L`` chosen so the loop-boundary rewind keeps
        every reuse distance above the earlier levels' associativity
        (``slot_count % L == 0`` or ``> ways``).
        """
        earlier_ways = max(cache.ways for cache in self.caches[:index]) \
            if index > 0 else max(cache.ways for cache in self.caches)
        min_per_home = 2 * earlier_ways

        if level == self.memory.name:
            home_capacity = 1 << 18  # tag space; effectively unbounded
        else:
            cache = self.caches[index]
            previous = self.caches[index - 1]
            aliases = cache.sets // previous.sets
            home_capacity = aliases * cache.ways
        total_capacity = home_capacity * len(group)

        if slot_count <= total_capacity:
            pool_size = slot_count
        else:
            pool_size = self._residue_safe_size(
                slot_count, total_capacity, earlier_ways, level
            )

        homes_needed = max(1, -(-pool_size // home_capacity))
        if pool_size // homes_needed < min_per_home:
            homes_needed = max(1, pool_size // min_per_home)
        homes_needed = min(homes_needed, len(group))
        l1_homes = rng.sample(list(group), homes_needed)

        share, extra = divmod(pool_size, homes_needed)
        pool: list[int] = []
        for position, l1_home in enumerate(l1_homes):
            lines_here = share + (1 if position < extra else 0)
            pool.extend(
                self._home_lines(level, index, l1_home, lines_here, rng)
            )
        return tuple(pool)

    def _residue_safe_size(
        self, slot_count: int, capacity: int, earlier_ways: int, level: str
    ) -> int:
        """Largest cyclic pool size whose loop rewind cannot cause hits."""
        size = (capacity // 8) * 8
        while size >= 2 * earlier_ways:
            residue = slot_count % size
            if residue == 0 or residue > earlier_ways:
                return size
            size -= 8
        raise CacheModelError(
            f"cannot find a rewind-safe pool size for the {level} stream "
            f"({slot_count} slots, capacity {capacity})"
        )

    def _home_lines(
        self,
        level: str,
        index: int,
        l1_home: int,
        count: int,
        rng: random.Random,
    ) -> list[int]:
        """``count`` distinct lines aliasing one L1 home set."""
        if level == self.memory.name:
            last = self.caches[-1]
            home = self._alias_chain(len(self.caches) - 1, l1_home, rng)
            tags = self._random_tags(count, 20, rng)
            return last.fields.compose_lines(tags, (home,), self.base_address)
        cache = self.caches[index]
        previous = self.caches[index - 1]
        sets_needed = -(-count // cache.ways)
        previous_home = self._alias_chain(index - 1, l1_home, rng)
        chosen_sets = self._alias_sets(
            cache, previous, previous_home, sets_needed, rng
        )
        lines: list[int] = []
        remaining = count
        for target_set in chosen_sets:
            here = min(cache.ways, remaining)
            lines += cache.fields.compose_lines(
                self._random_tags(here, 18, rng), (target_set,),
                self.base_address,
            )
            remaining -= here
        return lines

    def _alias_chain(
        self, depth: int, l1_home: int, rng: random.Random
    ) -> int:
        """Walk nested home sets from L1 down to cache index ``depth``.

        Returns the home set index at ``self.caches[depth]`` such that
        all its lines alias onto the chosen homes at every level above.
        """
        home = l1_home
        for index in range(1, depth + 1):
            home = self._alias_sets(
                self.caches[index], self.caches[index - 1], home, 1, rng
            )[0]
        return home

    def _alias_sets(
        self,
        cache: CacheGeometry,
        previous: CacheGeometry,
        previous_home: int,
        count: int,
        rng: random.Random,
    ) -> list[int]:
        """Sets of ``cache`` whose lines map onto ``previous_home`` above."""
        aliases = cache.sets // previous.sets
        if count > aliases:
            raise CacheModelError(
                f"{cache.name} has only {aliases} sets aliasing one "
                f"{previous.name} set, need {count}"
            )
        offsets = rng.sample(range(aliases), count)
        return [previous_home + offset * previous.sets for offset in offsets]

    def _interleave(
        self,
        stream_slots: dict[str, list[int]],
        rng: random.Random,
    ) -> tuple[list[int], list[str]]:
        """Randomized interleave preserving each stream's internal order.

        Per-set LRU behaviour only depends on the access order *within*
        a set, and streams never share sets, so any interleaving
        preserves the planned hit/miss behaviour while the randomness
        breaks global stride patterns.  Returns the address per slot
        and, parallel to it, the level each slot is planned to hit.
        """
        tickets = []
        for name, slots in stream_slots.items():
            tickets.extend([name] * len(slots))
        rng.shuffle(tickets)
        streams = {name: iter(slots) for name, slots in stream_slots.items()}
        return list(map(next, map(streams.__getitem__, tickets))), tickets
