"""Activity profiles: replaying real-application behaviour.

An :class:`ActivityProfile` captures the per-thread steady-state
characteristics of an application (IPC, unit mix, memory locality,
SMT scaling) the way published SPEC CPU2006 characterizations report
them.  A :class:`ProfiledWorkload` adapts a profile to the machine's
workload protocol so profiles and generated micro-benchmarks run
through the *same* measurement path.

Profiles carry a per-unit energy bias drawn deterministically from the
benchmark name: real applications' instruction mixes are more or less
energy-hungry than the generic mix a counter-based model can see, and
this is precisely the model error the paper's validation quantifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sim.activity import ThreadActivity
from repro.sim.pstate import finite_real
from repro.sim.sensors import stable_seed

#: Default core-throughput multipliers per SMT way (total core IPC
#: relative to SMT-1); diminishing returns per added thread.
DEFAULT_SMT_SCALING = {1: 1.0, 2: 1.45, 4: 1.80}

#: Spread (1 sigma) of the per-unit energy bias across applications.
ENERGY_BIAS_SIGMA = 0.06


def _energy_bias(name: str) -> dict[str, float]:
    rng = random.Random(stable_seed("energy-bias", name))
    return {
        unit: max(0.7, rng.gauss(1.0, ENERGY_BIAS_SIGMA))
        for unit in ("FXU", "LSU", "VSU", "BRU", "CRU")
    }


@dataclass(frozen=True)
class ActivityProfile:
    """Per-thread activity characteristics of one application.

    Attributes:
        name: Application name (e.g. ``mcf``).
        ipc: Committed IPC of one thread at SMT-1.
        unit_mix: Operations injected per committed instruction, by
            functional unit.
        memory_per_insn: Memory accesses per committed instruction.
        locality: Fraction of memory accesses sourced by each level
            (``L1``/``L2``/``L3``/``MEM``; must sum to 1).
        store_fraction: Share of memory accesses that are stores.
        alternation: Unit-alternation of the dynamic instruction stream.
        smt_scaling: Core-throughput multiplier per SMT way.
    """

    name: str
    ipc: float
    unit_mix: dict[str, float]
    memory_per_insn: float
    locality: dict[str, float]
    store_fraction: float = 0.3
    alternation: float = 0.55
    smt_scaling: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_SMT_SCALING)
    )

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"profile name must be a string: {self.name!r}")
        mappings = (self.unit_mix, self.locality, self.smt_scaling)
        if not all(isinstance(mapping, dict) for mapping in mappings):
            raise ValueError(
                f"{self.name}: unit_mix, locality and smt_scaling must be "
                "dicts"
            )
        rates = [
            self.ipc,
            self.memory_per_insn,
            self.store_fraction,
            self.alternation,
        ]
        for mapping in mappings:
            rates.extend(mapping.values())
        bad = [rate for rate in rates if not (finite_real(rate) and rate >= 0)]
        if bad:
            raise ValueError(
                f"{self.name}: rates must be finite and >= 0, got {bad[0]!r}"
            )
        if self.ipc <= 0:
            raise ValueError(f"{self.name}: ipc must be positive")
        total = sum(self.locality.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: locality must sum to 1, got {total:g}"
            )
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError(f"{self.name}: bad store fraction")

    def thread_ipc(self, smt: int) -> float:
        """Per-thread IPC at the given SMT way."""
        scaling = self.smt_scaling.get(smt)
        if scaling is None:
            raise ValueError(f"{self.name}: no SMT-{smt} scaling defined")
        return self.ipc * scaling / smt


class ProfiledWorkload:
    """Adapter: profile -> machine workload protocol."""

    def __init__(self, profile: ActivityProfile) -> None:
        self.profile = profile
        self.name = profile.name
        self._bias = _energy_bias(profile.name)

    def thread_activity(self, machine, smt: int) -> ThreadActivity:
        profile = self.profile
        frequency = machine.frequency
        ipc = profile.thread_ipc(smt)
        insn_rate = ipc * frequency

        unit_op_rates = {
            unit: per_insn * insn_rate
            for unit, per_insn in profile.unit_mix.items()
        }
        memory_rate = profile.memory_per_insn * insn_rate
        level_rates = {
            level: fraction * memory_rate
            for level, fraction in profile.locality.items()
        }
        level_rates["_stores"] = profile.store_fraction * memory_rate
        level_rates["_loads"] = memory_rate - level_rates["_stores"]

        return ThreadActivity(
            ipc=ipc,
            insn_rates={},  # applications expose only unit-level rates
            unit_op_rates=unit_op_rates,
            level_rates=level_rates,
            alternation=profile.alternation,
            entropy=1.0,
            unit_energy_bias=dict(self._bias),
        )

    def __repr__(self) -> str:
        return f"ProfiledWorkload({self.name!r})"
