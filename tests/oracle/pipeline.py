"""The per-instruction pipeline walk, kept as the summary engine's oracle.

:class:`~repro.sim.pipeline.CorePipelineModel` evaluates kernels from
a :class:`~repro.sim.summary.KernelSummary` built once per analytic
digest in O(period) work.  These functions are the naive O(loop size)
walk that engine replaced -- every slot's properties looked up again,
occupancies accumulated instruction by instruction -- so tests can
assert the fast path reproduces it on arbitrary kernels, periodic or
not.  Each takes the model whose architecture and water-fill it
shares, with the per-slot latency lookup of the slot-object summary
family (:mod:`.kernels`); the dependency walk is the model's
walk as it was before it resolved each distinct slot's latency once
per kernel (:func:`reference_dependency_bound`).
"""

from __future__ import annotations

from repro.sim.activity import ThreadActivity
from repro.sim.kernel import Kernel
from repro.sim.pipeline import (
    MSHRS_PER_THREAD,
    SECONDARY_OCCUPANCY,
    CorePipelineModel,
    PipelineBounds,
)

from .kernels import OraclePipelineModel

#: The per-slot latency lookup, from the slot-object summary family.
_effective_latency = OraclePipelineModel._effective_latency


def reference_bounds(
    model: CorePipelineModel, kernel: Kernel, smt: int = 1
) -> PipelineBounds:
    """Per-instruction-walk bounds."""
    share = model._share(smt)
    dispatch = len(kernel) / model.arch.chip.dispatch_width * share
    unit = _unit_bound(model, kernel) * share
    dependency = reference_dependency_bound(model, kernel)
    memory = _memory_bound(model, kernel) * share
    return PipelineBounds(
        dispatch=dispatch, unit=unit, dependency=dependency, memory=memory
    )


def reference_dependency_bound(
    model: CorePipelineModel, kernel: Kernel
) -> float:
    """Exact maximum cycle mean of the (functional) dependence graph.

    Each slot has at most one producer edge, so every dependence
    cycle is discovered by walking producer chains once, tracking
    accumulated latency and iteration-boundary crossings.
    """
    instructions = kernel.instructions
    size = len(instructions)
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
            weights.append(_effective_latency(model, instructions[producer]))
            node = producer
        for visited in path:
            state[visited] = 2
    return best


def reference_activity(
    model: CorePipelineModel, kernel: Kernel, smt: int = 1
) -> ThreadActivity:
    """Per-instruction-walk activity."""
    period = reference_bounds(model, kernel, smt).period
    frequency = model.arch.chip.cycles_per_second
    iterations_per_second = frequency / period

    insn_rates: dict[str, float] = {}
    for instruction in kernel.instructions:
        insn_rates[instruction.mnemonic] = (
            insn_rates.get(instruction.mnemonic, 0.0)
            + iterations_per_second
        )
    unit_ops = _unit_ops(model, kernel)
    unit_op_rates = {
        unit: ops * iterations_per_second for unit, ops in unit_ops.items()
    }
    level_counts = _level_counts(model, kernel)
    level_rates = {
        level: count * iterations_per_second
        for level, count in level_counts.items()
    }
    return ThreadActivity(
        ipc=len(kernel) / period,
        insn_rates=insn_rates,
        unit_op_rates=unit_op_rates,
        level_rates=level_rates,
        alternation=reference_alternation(model, kernel),
        entropy=kernel.operand_entropy,
    )


def reference_alternation(model: CorePipelineModel, kernel: Kernel) -> float:
    """Per-instruction-walk alternation: circular adjacent primary-unit
    pairs that differ, slots with no unit usage excluded."""
    units = []
    for instruction in kernel.instructions:
        props = model.arch.props(instruction.mnemonic)
        if props.usages:
            units.append(props.usages[0].units[0])
    if len(units) < 2:
        return 0.0
    pairs = len(units)
    changes = sum(
        1 for index in range(pairs)
        if units[index] != units[(index + 1) % pairs]
    )
    return changes / pairs


def _unit_occupancies(
    model: CorePipelineModel, kernel: Kernel
) -> tuple[dict[str, float], dict[tuple[str, ...], float]]:
    """Fixed per-unit occupancy plus flexible occupancy per unit set."""
    fixed: dict[str, float] = {name: 0.0 for name in model.arch.units}
    flexible: dict[tuple[str, ...], float] = {}
    for instruction in kernel.instructions:
        props = model.arch.props(instruction.mnemonic)
        for position, usage in enumerate(props.usages):
            occupancy = (
                props.inv_throughput * usage.ops
                if position == 0
                else SECONDARY_OCCUPANCY * usage.ops
            )
            if usage.is_flexible:
                flexible[usage.units] = (
                    flexible.get(usage.units, 0.0) + occupancy
                )
            else:
                fixed[usage.units[0]] += occupancy
    return fixed, flexible


def _unit_bound(model: CorePipelineModel, kernel: Kernel) -> float:
    fixed, flexible = _unit_occupancies(model, kernel)
    loads = model._waterfill(fixed, flexible)
    return max(
        loads[name] / model.arch.unit(name).pipes for name in loads
    ) if loads else 0.0


def _unit_ops(model: CorePipelineModel, kernel: Kernel) -> dict[str, float]:
    """Operations per iteration per unit, flexible ops split across
    their candidate units in proportion to the water-filled occupancy."""
    fixed_ops: dict[str, float] = {name: 0.0 for name in model.arch.units}
    flexible_ops: dict[tuple[str, ...], float] = {}
    for instruction in kernel.instructions:
        props = model.arch.props(instruction.mnemonic)
        for usage in props.usages:
            if usage.is_flexible:
                flexible_ops[usage.units] = (
                    flexible_ops.get(usage.units, 0.0) + usage.ops
                )
            else:
                fixed_ops[usage.units[0]] += usage.ops

    fixed_occ, flexible_occ = _unit_occupancies(model, kernel)
    filled = model._waterfill(fixed_occ, flexible_occ)
    return model._split_flexible_ops(
        fixed_ops, flexible_ops, fixed_occ, filled
    )


def _memory_bound(model: CorePipelineModel, kernel: Kernel) -> float:
    """Miss-bandwidth bound: total off-L1 latency over the MSHRs."""
    latency = {cache.name: cache.latency for cache in model.arch.caches}
    latency[model.arch.memory.name] = model.arch.memory.latency
    l1 = model.arch.caches[0].name
    total_latency = 0.0
    for instruction in kernel.instructions:
        source = instruction.source_level
        if source is None or source == l1:
            continue
        total_latency += latency[source] - latency[l1]
    return total_latency / MSHRS_PER_THREAD


def _level_counts(model: CorePipelineModel, kernel: Kernel) -> dict[str, float]:
    """Per-iteration access counts per hierarchy level, plus
    ``_loads``/``_stores`` pseudo-levels for the L1 reference PMCs."""
    counts: dict[str, float] = {}
    for instruction in kernel.instructions:
        source = instruction.source_level
        if source is None:
            continue
        counts[source] = counts.get(source, 0.0) + 1
        isa_def = model.arch.isa.instruction(instruction.mnemonic)
        key = "_stores" if isa_def.is_store else "_loads"
        counts[key] = counts.get(key, 0.0) + 1
    return counts
