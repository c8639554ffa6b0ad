"""ILP pass: dependency distances via register allocation.

The paper models instruction-level parallelism by choosing the
*dependency distance* between instructions -- how many slots back the
producer of each instruction's input sits -- and realizing it through
register allocation: the consumer reads the register the producer
writes.

Modes:

* ``none`` -- clear all dependencies (maximum ILP; bootstrap benchmark
  #2 and all max-power stressmarks).
* ``chain`` -- every instruction depends on its predecessor (serialized
  execution; bootstrap benchmark #1, used to derive latencies).
* ``fixed`` -- a constant distance.
* ``random`` -- distances drawn uniformly from
  ``[min_distance, max_distance]`` (the Figure-2 example's
  "Set instruction dependency distance randomly").

A dependency is only realized when the producer's target register kind
matches one of the consumer's source operand kinds; otherwise nearby
distances are tried, and the slot is left independent if none within
the search window is compatible.  Store-class consumers link through
their data register; memory consumers link through their index
register (the value-initialisation contract guarantees producers of
address inputs yield the planned region offsets).
"""

from __future__ import annotations

from itertools import compress

from repro.core.ir import Program, scatter
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError

_MODES = ("none", "chain", "fixed", "random", "mean")
#: How far around the requested distance to search for a compatible producer.
_SEARCH_WINDOW = 8

class DependencyDistance(Pass):
    """Assign dependency distances and wire registers accordingly."""

    def __init__(
        self,
        mode: str = "random",
        distance: int | None = None,
        min_distance: int = 1,
        max_distance: int = 32,
        mean_distance: float | None = None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if mode == "fixed" and (distance is None or distance < 1):
            raise ValueError("fixed mode needs distance >= 1")
        if mode == "mean" and (mean_distance is None or mean_distance < 1):
            raise ValueError("mean mode needs mean_distance >= 1")
        if min_distance < 1 or max_distance < min_distance:
            raise ValueError("need 1 <= min_distance <= max_distance")
        self.mode = mode
        self.distance = distance
        self.min_distance = min_distance
        self.max_distance = max_distance
        self.mean_distance = mean_distance

    @property
    def name(self) -> str:
        if self.mode == "fixed":
            return f"DependencyDistance(fixed={self.distance})"
        if self.mode == "random":
            return (
                f"DependencyDistance(random "
                f"[{self.min_distance}, {self.max_distance}])"
            )
        if self.mode == "mean":
            return f"DependencyDistance(mean={self.mean_distance:g})"
        return f"DependencyDistance({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: no instructions to link")

        distances, operands = program.dep_distances, program.dep_operands
        if self.mode == "none":
            scatter(distances, slots, [None] * len(slots))
            scatter(operands, slots, [None] * len(slots))
            return

        definitions, registers = program.definitions, program.registers
        size = len(definitions)
        # Each slot's (kind, number) target, ``None`` where no
        # dependency can start (structural or writing nothing).
        targets = program.targets(range(size))
        for index in compress(range(size), program.structural):
            targets[index] = None
        candidates: dict[int, list[int]] = {}
        wanted_distances = self._wanted_distances(len(slots), context)
        for index, wanted in zip(slots, wanted_distances):
            order = candidates.get(wanted)
            if order is None:
                order = candidates[wanted] = _candidates(wanted, size)
            definition = definitions[index]
            groups = definition.dependency_sources
            if not groups:
                distances[index] = None
                continue
            link = _link(groups, targets, index, order)
            if link is None:
                distances[index] = None
                operands[index] = None
                continue
            distance, name, number = link
            at = program.register_bases[index]
            registers[at + definition.register_index[name]] = number
            distances[index] = distance
            operands[index] = name
            for written, _ in definition.write_slots:
                if written == name:
                    # A read-write source renames the consumer's own
                    # target (``XT`` of the VSX FMAs).
                    targets[index] = program.targets((index,))[0]
                    break

    def _wanted_distances(self, count, context: PassContext) -> list[int]:
        """The distance each of ``count`` slots asks for, in order."""
        if self.mode == "chain":
            return [1] * count
        if self.mode == "fixed":
            assert self.distance is not None
            return [self.distance] * count
        if self.mode == "mean":
            # Bernoulli mix of floor/ceil realizes a fractional mean
            # distance; random assignment mixes the distances within
            # dependence cycles, so steady-state IPC interpolates.
            assert self.mean_distance is not None
            low = int(self.mean_distance)
            fraction = self.mean_distance - low
            draw = context.rng.random
            return [low + 1 if draw() < fraction else low for _ in range(count)]
        draw = context.rng.randint
        low, high = self.min_distance, self.max_distance
        return [draw(low, high) for _ in range(count)]


def _link(groups, targets, index: int, candidates: list[int]):
    """(distance, source name, register) of the consumer at ``index``.

    Tries body distances around the wanted one until kinds match.
    Distances are expressed in *body* positions (the same space the
    machine substrate and the validation pass use); structural slots
    are never selected as producers.  Data-register sources are
    preferred across the whole search window before any
    address-register (pointer-chase) link is considered, so memory
    operations keep their planned addressing whenever a data
    dependency can realize the distance.  ``None`` when no candidate
    matches.
    """
    for sources in groups:
        for candidate in candidates:
            target = targets[index - candidate]  # wraps like the loop
            if target is None:
                continue
            kind, number = target
            for source_name, source_kind in sources:
                if source_kind is kind:
                    return candidate, source_name, number
    return None


def _candidates(wanted: int, size: int) -> list[int]:
    """Distances tried for ``wanted``, nearest first, inside the body."""
    order = [wanted]
    for delta in range(1, _SEARCH_WINDOW + 1):
        order += (wanted + delta, wanted - delta)
    return [candidate for candidate in order if 1 <= candidate < size]
