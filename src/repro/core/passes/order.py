"""Sequence-order passes.

Section 6 of the paper reports that stressmarks with the *same*
instruction distribution and activity rate but different instruction
order differ by up to 17 % in power.  These passes rearrange the body
without changing its multiset of instructions, which is exactly the
dimension the max-power search explores.

Order passes clear dependency distances (a reorder invalidates them);
run any :class:`~repro.core.passes.ilp.DependencyDistance` pass *after*
ordering.
"""

from __future__ import annotations

from repro.core.ir import Program, scatter
from repro.core.passes.base import Pass, PassContext
from repro.errors import PassError

_MODES = ("shuffle", "interleave", "blocked", "rotate")


class SequenceOrder(Pass):
    """Reorder the workload slots of the body.

    Modes:
        * ``shuffle`` -- random permutation;
        * ``interleave`` -- round-robin across functional-unit groups
          (maximizes unit alternation between neighbours);
        * ``blocked`` -- group instructions by functional unit
          (minimizes alternation);
        * ``rotate`` -- rotate the sequence by ``amount`` slots.
    """

    def __init__(self, mode: str = "shuffle", amount: int = 0) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.amount = amount

    @property
    def name(self) -> str:
        if self.mode == "rotate":
            return f"SequenceOrder(rotate {self.amount})"
        return f"SequenceOrder({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: nothing to reorder")
        # The slot each position of the new order takes its row from.
        order = list(slots)

        if self.mode == "shuffle":
            context.rng.shuffle(order)
        elif self.mode == "rotate":
            shift = self.amount % len(order)
            order = order[shift:] + order[:shift]
        else:
            definitions = program.definitions
            groups: dict[str, list[int]] = {}
            for slot in order:
                props = context.arch.props(definitions[slot].mnemonic)
                unit = props.usages[0].units[0] if props.usages else "-"
                groups.setdefault(unit, []).append(slot)
            if self.mode == "blocked":
                order = [slot for unit in sorted(groups) for slot in groups[unit]]
            else:  # interleave
                order = []
                queues = [groups[unit] for unit in sorted(groups)]
                cursors = [0] * len(queues)
                while any(c < len(q) for c, q in zip(cursors, queues)):
                    for position, queue in enumerate(queues):
                        if cursors[position] < len(queue):
                            order.append(queue[cursors[position]])
                            cursors[position] += 1

        for column in (
            program.definitions, program.dep_operands, program.addresses,
            program.source_levels, program.structural, program.comments,
            program.register_bases, program.immediate_bases,
        ):
            scatter(column, slots, list(map(column.__getitem__, order)))
        scatter(program.dep_distances, slots, [None] * len(slots))
