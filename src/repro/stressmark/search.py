"""Stressmark construction and the sequence design space.

The case study fixes everything except the 6-instruction sequence that
is replicated to fill the 4K endless loop: maximum activity means no
dependencies and no cache misses (L1-resident addresses), so the only
remaining dimensions are *which* instructions fill the sequence slots
and *in what order* -- and order alone moves power by double-digit
percents (section 6's 17 % observation).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Sequence

from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel, intern_slot

logger = logging.getLogger("repro.stressmark")

#: Paper sequence length.
SEQUENCE_LENGTH = 6
#: Paper loop size; evaluations may use a smaller replication since the
#: steady-state metrics are invariant to it.
DEFAULT_LOOP_SIZE = 4096

#: L1-resident address region for the stressmark's memory slots.
_L1_REGION_BASE = 0x1000_0000
_L1_REGION_BYTES = 4096


def build_stressmark(
    arch: MicroArchitecture,
    sequence: Sequence[str],
    loop_size: int = DEFAULT_LOOP_SIZE,
    name: str | None = None,
) -> Kernel:
    """An endless loop replicating ``sequence``, dependency-free and
    L1-resident -- the stressmark recipe of section 6.

    The per-slot content (mnemonic, planned L1 address) is periodic:
    mnemonics repeat every ``len(sequence)`` slots and the round-robin
    L1 addresses every ``region / line`` slots, so the body is one
    pattern of ``lcm`` of the two lengths replicated to fill the loop.
    The builder materializes that pattern once, fills the loop by tuple
    replication, and stamps the kernel with the period fingerprint the
    evaluation engine consumes -- construction plus steady-state
    analysis cost O(period), not O(loop size).
    """
    if not sequence:
        raise ValueError("sequence must not be empty")
    if name is None:
        name = "stressmark-" + "-".join(sequence)
    line = arch.caches[0].line_bytes
    l1_name = arch.caches[0].name
    region_lines = max(1, _L1_REGION_BYTES // line)

    # Per-mnemonic memory-ness resolved once, not once per slot.
    is_memory_slot = {}
    for mnemonic in set(sequence):
        definition = arch.isa.instruction(mnemonic)
        is_memory_slot[mnemonic] = (
            definition.is_memory and not definition.is_prefetch
        )
    has_memory = any(is_memory_slot.values())
    pattern_length = (
        math.lcm(len(sequence), region_lines) if has_memory else len(sequence)
    )
    pattern_length = min(pattern_length, loop_size)

    pattern = []
    for index in range(pattern_length):
        mnemonic = sequence[index % len(sequence)]
        # Stressmark spaces reuse a small set of (mnemonic, address)
        # slots across hundreds of sequences: interned, building a
        # 540-point space is mostly dictionary lookups.
        if is_memory_slot[mnemonic]:
            offset = (index * line) % _L1_REGION_BYTES
            slot = intern_slot(
                mnemonic,
                source_level=l1_name,
                address=_L1_REGION_BASE + offset,
            )
        else:
            slot = intern_slot(mnemonic)
        pattern.append(slot)

    pattern = tuple(pattern)
    repeats, remainder = divmod(loop_size, pattern_length)
    instructions = pattern * repeats + pattern[:remainder]
    # Loop-closing branch, as the skeleton pass would emit.
    instructions += (intern_slot("b"),)
    # The fingerprint contract places everything outside the replicated
    # pattern in the remainder tail; when the branch would land exactly
    # on a period boundary ((loop_size + 1) % pattern_length == 0) the
    # body has no remainder to hold it, so no period is declared.
    period = pattern_length if (loop_size + 1) % pattern_length else None
    # The declared period is the mnemonic/address lcm, but the
    # *analytic* content (addresses excluded) repeats every
    # len(sequence) slots -- declare that too, so the evaluation
    # engine summarizes in O(sequence) without a periodicity search.
    analytic = (
        len(sequence)
        if period is not None and not pattern_length % len(sequence)
        else None
    )
    return Kernel(
        name=name,
        instructions=instructions,
        operand_entropy=1.0,
        period=period,
        analytic_period=analytic,
    )


def covering_sequences(
    candidates: Sequence[str], length: int = SEQUENCE_LENGTH
) -> list[tuple[str, ...]]:
    """All sequences using *every* candidate at least once.

    For three candidates and six slots this is the paper's 540-point
    space (3^6 minus the sequences that drop an instruction).
    """
    import itertools

    required = set(candidates)
    return [
        sequence
        for sequence in itertools.product(candidates, repeat=length)
        if required <= set(sequence)
    ]


def _run(machine, plan, executor):
    """``executor.run(plan)``, or with no executor the environment's
    default one, whose store (``REPRO_STORE``) closes before this
    returns.  A store inside a caller's executor stays open."""
    from repro.exec.executors import default_executor

    if executor is not None:
        return executor.run(plan)
    executor = default_executor(machine)
    try:
        return executor.run(plan)
    finally:
        if executor.store is not None:
            executor.store.close()


def spec_power_baseline(
    machine, duration: float = 10.0, executor=None
) -> float:
    """The Figure-9 baseline: maximum SPEC CPU2006 proxy power.

    One definition shared by the figure harness, the CLI and the
    examples: every SPEC proxy on all cores in every SMT mode, maximum
    mean sensor power.  Routed through the execution engine, so a
    store-backed executor serves a warm baseline without touching the
    machine.
    """
    from repro.exec.plan import ExperimentPlan
    from repro.sim.config import MachineConfig
    from repro.workloads.spec import spec_cpu2006

    arch = machine.arch
    plan = ExperimentPlan.cross(
        spec_cpu2006(),
        [
            MachineConfig(arch.chip.max_cores, smt)
            for smt in arch.chip.smt_modes()
        ],
        duration=duration,
    )
    logger.info("SPEC baseline: %s", plan.describe())
    return max(
        measurement.mean_power
        for measurement in _run(machine, plan, executor)
    )


def stressmark_search(
    machine,
    sequences: Iterable[tuple[str, ...]],
    smt_modes: tuple[int, ...] = (1, 2, 4),
    loop_size: int = 768,
    duration: float = 10.0,
    executor=None,
) -> list[tuple[tuple[str, ...], int, float, float]]:
    """Measure every sequence in every SMT mode on all cores.

    Returns ``(sequence, smt, power, core_ipc)`` tuples -- the raw
    material for the Figure 9 summaries and the max-IPC order-spread
    analysis.

    The whole search is one experiment plan (sequences x SMT modes)
    handed to ``executor`` -- by default the environment-resolved
    executor, so ``REPRO_STORE`` serves a warm re-run from disk with
    zero machine invocations.
    """
    from repro.exec.plan import ExperimentPlan
    from repro.sim.config import MachineConfig

    arch = machine.arch
    cores = arch.chip.max_cores
    sequences = list(sequences)
    kernels = [
        build_stressmark(arch, sequence, loop_size) for sequence in sequences
    ]
    configs = [MachineConfig(cores, smt) for smt in smt_modes]
    plan = ExperimentPlan.cross(kernels, configs, duration=duration)
    logger.info(
        "stressmark search: %d sequences x %d SMT modes (%s)",
        len(sequences),
        len(smt_modes),
        plan.describe(),
    )
    # Configuration-major plan: the measurements of SMT mode ``m`` are
    # the contiguous slice ``[m * len(kernels), (m + 1) * len(kernels))``.
    measurements = _run(machine, plan, executor)
    results = []
    for index, sequence in enumerate(sequences):
        for mode_index, smt in enumerate(smt_modes):
            measurement = measurements[mode_index * len(kernels) + index]
            ipc = arch.ipc(measurement.thread_counters[0]) * smt
            results.append((sequence, smt, measurement.mean_power, ipc))
    return results
