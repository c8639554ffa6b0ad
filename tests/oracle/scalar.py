"""Scalar ground-truth arithmetic: activities, counters and chip power.

One thread's activity is a dict-of-rates :class:`ThreadActivity`; this
module re-clocks it, synthesizes its performance-counter readings and
evaluates the hidden power model over a chip's threads, one Python
float at a time.  It is the per-cell definition the fused plane
(:mod:`repro.sim.vector`) replays with whole-array passes, so every
expression keeps its operand order.  Sums run strictly left to right
from zero (:func:`seq_sum`), as CPython's ``sum`` of floats did before
3.12 switched it to compensated summation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.activity import ThreadActivity
from repro.sim.power import (
    CMP_CONCAVE,
    CMP_EXPONENT,
    CMP_LINEAR,
    IDLE_POWER,
    LEVEL_ENERGY_NJ,
    PROFILE_UNIT_ENERGY_NJ,
    SMT_LOGIC,
    UNCORE_ACTIVE,
    cmp_effect,
    data_multiplier,
    order_multiplier,
)


def seq_sum(values) -> float:
    """Left-to-right sum from zero, one rounding per add."""
    total = 0
    for value in values:
        total = total + value
    return total


def instruction_rate(activity: ThreadActivity) -> float:
    """Total committed instructions per second."""
    if activity.insn_rates:
        return seq_sum(activity.insn_rates.values())
    return seq_sum(activity.unit_op_rates.values())


def at_frequency_scale(
    activity: ThreadActivity, freq_scale: float
) -> ThreadActivity:
    """Activity re-clocked to a scaled frequency.

    Per-second rates scale with the clock while per-cycle quantities
    (IPC) and stream shape (alternation, entropy, bias) do not -- the
    performance half of a DVFS p-state.  The nominal scale returns the
    activity unchanged.
    """
    if freq_scale == 1.0:
        return activity
    return ThreadActivity(
        ipc=activity.ipc,
        insn_rates={
            k: v * freq_scale for k, v in activity.insn_rates.items()
        },
        unit_op_rates={
            k: v * freq_scale for k, v in activity.unit_op_rates.items()
        },
        level_rates={
            k: v * freq_scale for k, v in activity.level_rates.items()
        },
        alternation=activity.alternation,
        entropy=activity.entropy,
        unit_energy_bias=dict(activity.unit_energy_bias),
    )


def scaled(activity: ThreadActivity, factor: float) -> ThreadActivity:
    """Activity with every rate multiplied by ``factor``."""
    return ThreadActivity(
        ipc=activity.ipc * factor,
        insn_rates={k: v * factor for k, v in activity.insn_rates.items()},
        unit_op_rates={
            k: v * factor for k, v in activity.unit_op_rates.items()
        },
        level_rates={k: v * factor for k, v in activity.level_rates.items()},
        alternation=activity.alternation,
        entropy=activity.entropy,
        unit_energy_bias=dict(activity.unit_energy_bias),
    )


def counters_from_activity(
    arch,
    activity: ThreadActivity,
    duration: float,
    frequency: float | None = None,
) -> dict[str, float]:
    """Synthesize one thread's PMC readings from an activity vector.

    ``frequency`` overrides the nominal clock for DVFS operating
    points: cycle counts accrue at the scaled clock (the activity's
    rates must already be re-clocked to match).
    """
    if frequency is None:
        frequency = arch.chip.cycles_per_second
    readings = {
        "PM_RUN_CYC": frequency * duration,
        "PM_RUN_INST_CMPL": activity.ipc * frequency * duration,
    }
    for unit in arch.units.values():
        rate = activity.unit_op_rates.get(unit.name, 0.0)
        readings[unit.counter] = rate * duration
    load_rate = activity.level_rates.get("_loads", 0.0)
    store_rate = activity.level_rates.get("_stores", 0.0)
    readings["PM_LD_REF_L1"] = load_rate * duration
    readings["PM_ST_REF_L1"] = store_rate * duration
    for cache in arch.caches[1:]:
        rate = activity.level_rates.get(cache.name, 0.0)
        readings[cache.counter] = rate * duration
    memory_rate = activity.level_rates.get(arch.memory.name, 0.0)
    readings[arch.memory.counter] = memory_rate * duration
    return readings


def thread_dynamic_power(model, activity: ThreadActivity) -> float:
    """Dynamic watts one hardware thread dissipates under ``model``."""
    order = order_multiplier(activity.alternation)
    data = data_multiplier(activity.entropy)

    if activity.insn_rates:
        core_joules = seq_sum(
            model.instruction_energy(mnemonic) * 1e-9 * rate
            for mnemonic, rate in activity.insn_rates.items()
        )
    else:
        core_joules = seq_sum(
            PROFILE_UNIT_ENERGY_NJ.get(unit, 0.5) * 1e-9 * rate
            * activity.unit_energy_bias.get(unit, 1.0)
            for unit, rate in activity.unit_op_rates.items()
        )

    level_joules = seq_sum(
        LEVEL_ENERGY_NJ[level] * 1e-9 * rate
        for level, rate in activity.level_rates.items()
        if level in LEVEL_ENERGY_NJ
    )
    power = order * data * core_joules + data * level_joules
    if model.energy_scale != 1.0:
        power *= model.energy_scale
    return power


def chip_power(
    model, thread_activities: Sequence[ThreadActivity], config
) -> float:
    """True chip power (watts) of a homogeneous configuration.

    The dynamic part scales by the p-state's ``V^2`` term (the ``f``
    term is already inside the re-clocked activity rates); idle,
    uncore, CMP effect and SMT control logic are frequency-independent.
    """
    active = any(
        instruction_rate(activity) > 0 for activity in thread_activities
    )
    power = IDLE_POWER
    if active:
        power += UNCORE_ACTIVE
        power += cmp_effect(config.cores)
        if config.smt_enabled:
            power += SMT_LOGIC * config.cores
        dynamic = seq_sum(
            thread_dynamic_power(model, activity)
            for activity in thread_activities
        )
        p_state = config.p_state
        if not p_state.is_nominal:
            dynamic *= p_state.dynamic_scale
        power += dynamic
    return power


def topology_power(cluster_parts: Sequence[tuple], total_cores: int) -> float:
    """True chip power of a heterogeneous multi-cluster chip, watts.

    ``cluster_parts`` is one ``(cluster, power_model, activities)``
    triple per cluster, activities re-clocked to the cluster's
    operating point.  The idle floor and active uncore are chip-wide;
    the concave CMP part grows with the total core count while the
    linear part is paid per cluster at its class's energy scale; SMT
    logic is paid per SMT-enabled cluster; each cluster's dynamic power
    scales by its own ``V^2`` term.
    """
    active = any(
        instruction_rate(activity) > 0
        for _, _, activities in cluster_parts
        for activity in activities
    )
    power = IDLE_POWER
    if active:
        power += UNCORE_ACTIVE
        power += CMP_CONCAVE * total_cores ** CMP_EXPONENT
        for cluster, model, _ in cluster_parts:
            power += CMP_LINEAR * cluster.cores * model.energy_scale
            if cluster.smt_enabled:
                power += SMT_LOGIC * cluster.cores
        for cluster, model, activities in cluster_parts:
            dynamic = seq_sum(
                thread_dynamic_power(model, activity)
                for activity in activities
            )
            p_state = cluster.p_state
            if not p_state.is_nominal:
                dynamic *= p_state.dynamic_scale
            power += dynamic
    return power
