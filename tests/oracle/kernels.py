"""The slot-object kernel path, kept as the slot-table path's oracle.

:meth:`repro.core.ir.Program.to_kernel` builds a kernel as a slot
table -- each distinct slot once, as its fields and digest text, and
one table index per loop slot -- and every analytic reader (digest,
slot table, counts, wire form, the pipeline model's summary) reads
that table.  This module is the path the table replaced, verbatim: a
``to_kernel`` building one shared :class:`KernelInstruction` per
distinct slot, the kernel readers walking those slot objects, and the
summary family of :class:`~repro.sim.pipeline.CorePipelineModel`
(``_build_summary``, ``_reduce_parts``, ``_dependency_bound``,
``_periodic_alternation``, ``_effective_latency``) reading them.
:class:`OraclePipelineModel` runs that family inside the production
model (its property rows, water-fill and flexible-op split are shared).
Tests compare kernels, their records and every summary field of both
paths.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import attrgetter

from repro.errors import SynthesisError
from repro.hashing import content_hash
from repro.sim.kernel import _SLOT_TABLE, Kernel, KernelInstruction
from repro.sim.pipeline import CorePipelineModel
from repro.sim.summary import KernelSummary

_mnemonic = attrgetter("mnemonic")
_slot_text = attrgetter("_text")


# -- repro/core/ir.py: Program.to_kernel ---------------------------------------


def to_kernel(self) -> Kernel:
    """The simulator-facing view of this program.

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
    keys = list(zip(
        map(_mnemonic, self.definitions), self.dep_distances,
        self.source_levels, self.addresses,
    ))
    # Slots with equal content share one (immutable) kernel slot.
    shared = dict.fromkeys(keys)
    for key in shared:
        shared[key] = KernelInstruction(*key)
    instructions = tuple(map(shared.__getitem__, keys))
    return Kernel(
        name=self.name,
        instructions=instructions,
        operand_entropy=self.operand_entropy,
        period=self._analytic_period(),
    )


# -- repro/sim/kernel.py: the Kernel readers over slot objects -----------------


def _body_digest(
    operand_entropy: float, pattern: list[str], repeats: int, tail: list[str]
) -> int:
    """:meth:`Kernel.digest` of a body given its pattern and tail slot texts."""
    return content_hash(
        f"{operand_entropy}:{len(pattern)}:{repeats}:"
        f"{'|'.join(pattern)}#{'|'.join(tail)}"
    )


def digest(self) -> int:
    """Deterministic analytic-content digest (stable across processes)."""
    pattern, repeats, tail = self.periodic_parts()
    return _body_digest(
        self.operand_entropy,
        list(map(_slot_text, pattern)),
        repeats,
        list(map(_slot_text, tail)),
    )


def slot_table(self) -> tuple[str, list[int]] | None:
    """``(slots, index)`` as :meth:`Kernel.from_slot_table` reads them."""
    instructions = self.instructions
    ids = list(map(id, instructions))
    distinct = dict(zip(ids, instructions))
    slots = "|".join(map(_slot_text, distinct.values()))
    if re.fullmatch(_SLOT_TABLE, slots) is None:
        return None
    positions = dict(zip(distinct, range(len(distinct))))
    return slots, list(map(positions.__getitem__, ids))


def mnemonic_counts(self) -> dict[str, int]:
    """Occurrences of each mnemonic in the loop body."""
    counts: dict[str, int] = {}
    pattern, repeats, tail = self.periodic_parts()
    for instruction in pattern:
        counts[instruction.mnemonic] = (
            counts.get(instruction.mnemonic, 0) + repeats
        )
    for instruction in tail:
        counts[instruction.mnemonic] = counts.get(instruction.mnemonic, 0) + 1
    return counts


def to_dict(self) -> dict:
    """JSON-able form, round-tripped by :meth:`Kernel.from_dict`."""
    pattern, repeats, tail = self.periodic_parts()
    return {
        "name": self.name,
        "operand_entropy": self.operand_entropy,
        "period": self.period,
        "analytic_period": self.analytic_period,
        "pattern": [instruction.to_list() for instruction in pattern],
        "repeats": repeats,
        "tail": [instruction.to_list() for instruction in tail],
    }


# -- repro/sim/pipeline.py: the summary family over slot objects ---------------


class OraclePipelineModel(CorePipelineModel):
    """The pipeline model summarizing kernels from their slot objects."""

    @staticmethod
    def _reduce_parts(
        pattern: tuple[KernelInstruction, ...],
        repeats: int,
        tail: tuple[KernelInstruction, ...],
        declared: int | None = None,
    ) -> tuple[
        tuple[KernelInstruction, ...], int, tuple[KernelInstruction, ...]
    ]:
        """Shrink a declared decomposition to its minimal analytic period.

        The period contract only promises analytic equivalence
        (mnemonic, dependency distance, source level -- addresses may
        differ), so a pattern that is itself analytically periodic with
        some divisor ``q`` of its length describes the same replicated
        body as the ``q``-slot pattern repeated proportionally more
        times; a tail prefix that keeps following that periodicity
        (builders put the replicated remainder plus the loop branch
        there) folds into extra repeats the same way.  Every summary
        quantity below is a function of the decomposition's
        *per-mnemonic integer counts* and junction structure, both
        invariant under this rewrite, so the reduced summary is
        bit-identical to the declared one -- just O(q + reduced tail)
        instead of O(declared period + tail) to accumulate.
        (Stressmark builders declare the lcm of sequence length and
        address round-robin as their period; the analytic period is
        usually the bare sequence length.)

        A ``declared`` analytic period (``Kernel.analytic_period``) is
        trusted like the period fingerprint itself and skips the
        periodicity search entirely.
        """
        length = len(pattern)
        if length < 2 or repeats < 1:
            return pattern, repeats, tail
        if declared is not None and 0 < declared <= length and not length % declared:
            q = declared
            keys = [ins.analytic_key() for ins in pattern[:q]]
        else:
            keys = [ins.analytic_key() for ins in pattern]
            for q in range(1, length // 2 + 1):
                if length % q:
                    continue
                if keys[q:] == keys[: length - q]:
                    break
            else:
                return pattern, repeats, tail
        repeats = repeats * (length // q)
        # Fold the tail prefix that continues the q-periodicity into
        # whole extra repeats; the sub-period remainder it ends on goes
        # back to the front of the reduced tail (those slots are
        # analytically interchangeable with their pattern images).
        follows = 0
        for index, ins in enumerate(tail):
            if ins.analytic_key() != keys[index % q]:
                break
            follows += 1
        leftover = follows % q
        repeats += (follows - leftover) // q
        return pattern[:q], repeats, tail[follows - leftover:]

    def _build_summary(self, kernel: Kernel, digest: int) -> KernelSummary:
        pattern, repeats, tail = kernel.periodic_parts()
        pattern, repeats, tail = self._reduce_parts(
            pattern, repeats, tail, kernel.analytic_period
        )

        # Per-mnemonic counts: one Counter pass over the period, scaled.
        counts: Counter[str] = Counter()
        for mnemonic, count in Counter(
            ins.mnemonic for ins in pattern
        ).items():
            counts[mnemonic] += count * repeats
        counts.update(ins.mnemonic for ins in tail)

        # Memory accesses per (mnemonic, level); O(period) again.
        memory_counts: Counter[tuple[str, str]] = Counter()
        for key, count in Counter(
            (ins.mnemonic, ins.source_level)
            for ins in pattern
            if ins.source_level is not None
        ).items():
            memory_counts[key] += count * repeats
        memory_counts.update(
            (ins.mnemonic, ins.source_level)
            for ins in tail
            if ins.source_level is not None
        )

        level_counts: dict[str, float] = {}
        miss_latency = 0.0
        l1_latency = self._level_latency[self._l1_name]
        for (mnemonic, level), count in memory_counts.items():
            level_counts[level] = level_counts.get(level, 0.0) + count
            key = "_stores" if self._row(mnemonic).is_store else "_loads"
            level_counts[key] = level_counts.get(key, 0.0) + count
            if level != self._l1_name:
                miss_latency += count * (
                    self._level_latency[level] - l1_latency
                )

        # Unit occupancies and operation counts from the mnemonic
        # histogram; one shared water-fill covers bound and op split.
        fixed_occ = {name: 0.0 for name in self.arch.units}
        flexible_occ: dict[tuple[str, ...], float] = {}
        fixed_ops = {name: 0.0 for name in self.arch.units}
        flexible_ops: dict[tuple[str, ...], float] = {}
        for mnemonic, count in counts.items():
            row = self._row(mnemonic)
            for unit, occupancy in row.fixed_occupancy:
                fixed_occ[unit] += occupancy * count
            for units, occupancy in row.flexible_occupancy:
                flexible_occ[units] = (
                    flexible_occ.get(units, 0.0) + occupancy * count
                )
            for unit, ops in row.fixed_ops:
                fixed_ops[unit] += ops * count
            for units, ops in row.flexible_ops:
                flexible_ops[units] = (
                    flexible_ops.get(units, 0.0) + ops * count
                )

        unit_loads = self._waterfill(fixed_occ, flexible_occ)
        unit_bound = max(
            (
                unit_loads[name] / self._unit_pipes[name]
                for name in unit_loads
            ),
            default=0.0,
        )
        unit_ops = self._split_flexible_ops(
            fixed_ops, flexible_ops, fixed_occ, unit_loads
        )

        # Dependency cycles only exist when some slot carries a link;
        # by the period contract, checking one period plus the tail
        # decides that for the whole body.
        has_deps = any(
            ins.dep_distance is not None for ins in pattern
        ) or any(ins.dep_distance is not None for ins in tail)
        dependency = self._dependency_bound(kernel) if has_deps else 0.0

        return KernelSummary(
            digest=digest,
            size=len(kernel),
            mnemonic_counts=dict(counts),
            level_counts=level_counts,
            miss_latency=miss_latency,
            dependency_bound=dependency,
            unit_loads=unit_loads,
            unit_bound=unit_bound,
            unit_ops=unit_ops,
            alternation=self._periodic_alternation(pattern, repeats, tail),
            entropy=kernel.operand_entropy,
            fixed_occupancy=fixed_occ,
            flexible_occupancy=flexible_occ,
        )

    def _periodic_alternation(
        self,
        pattern: tuple[KernelInstruction, ...],
        repeats: int,
        tail: tuple[KernelInstruction, ...],
    ) -> float:
        """Unit-alternation of ``pattern * repeats + tail``, O(period).

        Matches the reference definition exactly: primary units of all
        slots (slots with no unit usage excluded), circular adjacent
        pairs, fraction that differ.
        """
        pattern_units = [
            unit
            for unit in (
                self._row(ins.mnemonic).primary_unit for ins in pattern
            )
            if unit is not None
        ]
        tail_units = [
            unit
            for unit in (
                self._row(ins.mnemonic).primary_unit for ins in tail
            )
            if unit is not None
        ]
        total = len(pattern_units) * repeats + len(tail_units)
        if total < 2:
            return 0.0

        changes = 0
        if pattern_units:
            internal = sum(
                1
                for index in range(len(pattern_units) - 1)
                if pattern_units[index] != pattern_units[index + 1]
            )
            junction = int(pattern_units[-1] != pattern_units[0])
            changes += internal * repeats
            if tail_units:
                changes += junction * (repeats - 1)
                changes += int(pattern_units[-1] != tail_units[0])
                changes += int(tail_units[-1] != pattern_units[0])
            else:
                changes += junction * repeats
        if tail_units:
            changes += sum(
                1
                for index in range(len(tail_units) - 1)
                if tail_units[index] != tail_units[index + 1]
            )
            if not pattern_units:
                changes += int(tail_units[-1] != tail_units[0])
        return changes / total

    def _dependency_bound(self, kernel: Kernel) -> float:
        """Exact maximum cycle mean of the (functional) dependence graph.

        Each slot has at most one producer edge, so every dependence
        cycle is discovered by walking producer chains once, tracking
        accumulated latency and iteration-boundary crossings.
        """
        instructions = kernel.instructions
        size = len(instructions)
        # Each distinct slot's latency, resolved once per kernel.
        latency = {id(slot): slot for slot in instructions}
        for key, slot in latency.items():
            latency[key] = self._effective_latency(slot)
        latencies = list(map(latency.__getitem__, map(id, instructions)))
        state = [0] * size  # 0 unvisited, 1 in current walk, 2 done
        best = 0.0

        for start in range(size):
            if state[start] != 0:
                continue
            path: list[int] = []
            position: dict[int, int] = {}
            weights: list[float] = []
            crossings: list[int] = []
            node = start
            while True:
                if state[node] == 2:
                    break
                if node in position:
                    # Found a cycle: slice the walk from its first visit.
                    cycle_start = position[node]
                    weight = sum(weights[cycle_start:])
                    crossing = sum(crossings[cycle_start:])
                    if crossing > 0:
                        best = max(best, weight / crossing)
                    break
                position[node] = len(path)
                path.append(node)
                distance = instructions[node].dep_distance
                if distance is None:
                    break
                producer_index = node - distance
                crossings.append(-(producer_index // size) if producer_index < 0 else 0)
                producer = producer_index % size
                weights.append(latencies[producer])
                node = producer
            for visited in path:
                state[visited] = 2
        return best

    def _effective_latency(self, instruction: KernelInstruction) -> float:
        """Producer latency including the memory-level residency."""
        latency = self._row(instruction.mnemonic).latency
        source = instruction.source_level
        if source is not None and source != self._l1_name:
            latency += (
                self._level_latency[source] - self._level_latency[self._l1_name]
            )
        return latency
