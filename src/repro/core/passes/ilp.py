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

from repro.core.ir import IRInstruction, Program
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError
from repro.isa.operand import OperandKind

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

        if self.mode == "none":
            for index in slots:
                program.body[index].dep_distance = None
                program.body[index].dep_operand = None
            return

        body = program.body
        # Index table of each slot's (name, kind, number) target, ``None``
        # where no dependency can start (structural or writing nothing).
        targets = [
            None if ins.structural else ins.target_register() for ins in body
        ]
        candidates: dict[int, list[int]] = {}
        for index in slots:
            wanted = self._wanted_distance(context)
            order = candidates.get(wanted)
            if order is None:
                order = candidates[wanted] = _candidates(wanted, len(body))
            self._link(body, targets, index, order)

    def _wanted_distance(self, context: PassContext) -> int:
        if self.mode == "chain":
            return 1
        if self.mode == "fixed":
            assert self.distance is not None
            return self.distance
        if self.mode == "mean":
            # Bernoulli mix of floor/ceil realizes a fractional mean
            # distance; random assignment mixes the distances within
            # dependence cycles, so steady-state IPC interpolates.
            assert self.mean_distance is not None
            low = int(self.mean_distance)
            fraction = self.mean_distance - low
            if context.rng.random() < fraction:
                return low + 1
            return low
        return context.rng.randint(self.min_distance, self.max_distance)

    @staticmethod
    def _link(
        body: list[IRInstruction],
        targets: list[tuple[str, OperandKind, int] | None],
        index: int,
        candidates: list[int],
    ) -> None:
        """Try body distances around the wanted one until kinds match.

        Distances are expressed in *body* positions (the same space the
        machine substrate and the validation pass use); structural
        slots are never selected as producers.  Data-register sources
        are preferred across the whole search window before any
        address-register (pointer-chase) link is considered, so memory
        operations keep their planned addressing whenever a data
        dependency can realize the distance.
        """
        consumer = body[index]
        groups = consumer.definition.dependency_sources
        if not groups:
            consumer.dep_distance = None
            return
        for sources in groups:
            for candidate in candidates:
                target = targets[index - candidate]  # wraps like the loop
                if target is None:
                    continue
                __, kind, number = target
                for source_name, source_kind in sources:
                    if source_kind is kind:
                        consumer.registers[source_name] = number
                        consumer.dep_distance = candidate
                        consumer.dep_operand = source_name
                        # A read-write source renames the consumer's
                        # own target (``XT`` of the VSX FMAs).
                        targets[index] = consumer.target_register()
                        return
        consumer.dep_distance = None
        consumer.dep_operand = None


def _candidates(wanted: int, size: int) -> list[int]:
    """Distances tried for ``wanted``, nearest first, inside the body."""
    order = [wanted]
    for delta in range(1, _SEARCH_WINDOW + 1):
        order += (wanted + delta, wanted - delta)
    return [candidate for candidate in order if 1 <= candidate < size]
