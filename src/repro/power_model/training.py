"""Table 2 training-suite generation.

Twenty benchmark families covering the broadest practical range of
processor activity: unit-targeted IPC sweeps (built with white-box
dependency-distance solving instead of a GA -- the march latency
information makes the dependency mean for a target IPC a closed-form
query), memory-hierarchy mixes planned by the analytical cache model,
and the 331-strong random family that calibrates the model intercept.

The ``scale`` parameter shrinks every family proportionally (and the
loop size) for fast test runs; ``scale=1.0`` reproduces the paper's
~580-benchmark suite.

Every generator takes an optional ``memo``: a result store whose kernel
records serve each benchmark built before from the same recipe, so
only new recipes are synthesized (and then written to it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.passes.distribution import InstructionDistribution
from repro.core.passes.ilp import DependencyDistance
from repro.core.passes.init_values import InitImmediates, InitRegisters
from repro.core.passes.memory import MemoryModel
from repro.core.passes.skeleton import EndlessLoopSkeleton
from repro.core.synthesizer import Synthesizer, kernel_memo
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel
from repro.workloads.random_gen import RandomBenchmarkPolicy

#: Pools per unit-targeted family (paper Table 2, "Units stressed").
SIMPLE_INTEGER_POOL = ("add", "or", "nor", "and", "xor", "nand", "eqv", "andc")
COMPLEX_INTEGER_POOL = ("mulld", "mulldo", "mulhd", "mullw", "rlwinm")
INTEGER_POOL = ("add", "subf", "mulld", "sld", "cntlzd", "addic")
FLOAT_VECTOR_POOL = ("fadd", "fmul", "fmadd", "xvmaddadp", "xsmuldp", "xvadddp", "dadd")
UNIT_MIX_POOL = ("add", "subf", "mulld", "fmadd", "xvmaddadp", "vand", "xsmuldp")
LOAD_POOL = ("lbz", "lhz", "lwz", "ld", "lwzx", "ldx")
LOAD_STORE_POOL = ("lwz", "ld", "lbz", "stw", "std", "sth")

#: Memory families: name -> (pool, per-level weights, count).
MEMORY_FAMILIES: dict[str, tuple[tuple[str, ...], dict[str, float], int]] = {
    "L1 ld": (LOAD_POOL, {"L1": 1.0}, 10),
    "L1 ld/st": (LOAD_STORE_POOL, {"L1": 1.0}, 10),
    "L1L2a": (LOAD_STORE_POOL, {"L1": 0.75, "L2": 0.25}, 10),
    "L1L2b": (LOAD_STORE_POOL, {"L1": 0.50, "L2": 0.50}, 10),
    "L1L2c": (LOAD_STORE_POOL, {"L1": 0.25, "L2": 0.75}, 10),
    "L1L3a": (LOAD_STORE_POOL, {"L1": 0.75, "L3": 0.25}, 10),
    "L1L3b": (LOAD_STORE_POOL, {"L1": 0.50, "L3": 0.50}, 10),
    "L1L3c": (LOAD_STORE_POOL, {"L1": 0.25, "L3": 0.75}, 10),
    "L2": (LOAD_STORE_POOL, {"L2": 1.0}, 10),
    "L2L3a": (LOAD_STORE_POOL, {"L2": 0.75, "L3": 0.25}, 10),
    "L2L3b": (LOAD_STORE_POOL, {"L2": 0.50, "L3": 0.50}, 10),
    "L2L3c": (LOAD_STORE_POOL, {"L2": 0.25, "L3": 0.75}, 10),
    "L3": (LOAD_STORE_POOL, {"L3": 1.0}, 10),
    "Caches": (LOAD_STORE_POOL, {"L1": 0.33, "L2": 0.33, "L3": 0.34}, 10),
    "Memory": (LOAD_STORE_POOL, {"MEM": 1.0}, 20),
}

#: IPC-sweep families: name -> (pool, first IPC, last IPC, step).
IPC_FAMILIES: dict[str, tuple[tuple[str, ...], float, float, float]] = {
    "Simple Integer": (SIMPLE_INTEGER_POOL, 0.5, 3.9, 0.1),
    "Complex Integer": (COMPLEX_INTEGER_POOL, 0.1, 1.1, 0.1),
    "Integer": (INTEGER_POOL, 0.1, 1.2, 0.1),
    "Float/Vector": (FLOAT_VECTOR_POOL, 0.1, 1.4, 0.1),
    "Unit Mix": (UNIT_MIX_POOL, 0.1, 2.0, 0.1),
}

#: Paper size of the random calibration family.
RANDOM_FAMILY_SIZE = 331


@dataclass(frozen=True)
class TrainingBenchmark:
    """One training-suite entry: the family it came from and its kernel."""

    family: str
    kernel: Kernel

    @property
    def name(self) -> str:
        return self.kernel.name


def solve_dependency_mean(
    arch: MicroArchitecture, pool: tuple[str, ...], target_ipc: float
) -> float:
    """White-box solve: mean dependency distance for a target IPC.

    A dependence structure with mean distance ``x`` over instructions
    of mean latency ``L`` sustains ``IPC = x / L``; the march property
    database provides ``L`` directly, replacing the design-space
    exploration a black-box framework would need (paper section 2.1.3's
    argument applied to ILP).  The result is clamped to the pass's
    valid distance range; unit-bound targets simply saturate.
    """
    mean_latency = sum(
        arch.props(mnemonic).latency for mnemonic in pool
    ) / len(pool)
    return min(max(target_ipc * mean_latency, 1.0), 32.0)


def _ipc_targets(first: float, last: float, step: float) -> list[float]:
    targets = []
    value = first
    while value <= last + 1e-9:
        targets.append(round(value, 3))
        value += step
    return targets


def generate_micro_suite(
    arch: MicroArchitecture,
    loop_size: int = 4096,
    scale: float = 1.0,
    seed: int = 0,
    memo=None,
) -> list[TrainingBenchmark]:
    """The micro-architecture aware families (everything but Random)."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    benchmarks: list[TrainingBenchmark] = []
    with kernel_memo(memo, arch) as kernels:
        for family, (pool, first, last, step) in IPC_FAMILIES.items():
            targets = _ipc_targets(first, last, step)
            targets = _scaled_subset(targets, scale)
            for index, target in enumerate(targets):
                synth = _family_synthesizer(arch, family, seed, index)
                synth.add_pass(EndlessLoopSkeleton(loop_size))
                synth.add_pass(InstructionDistribution(list(pool)))
                synth.add_pass(InitRegisters("random"))
                synth.add_pass(InitImmediates("random"))
                mean = solve_dependency_mean(arch, pool, target)
                synth.add_pass(DependencyDistance("mean", mean_distance=mean))
                benchmarks.append(
                    TrainingBenchmark(family, synth.kernel(kernels))
                )

        for family, (pool, weights, count) in MEMORY_FAMILIES.items():
            for index in range(_scaled_count(count, scale)):
                synth = _family_synthesizer(arch, family, seed, index)
                synth.add_pass(EndlessLoopSkeleton(loop_size))
                synth.add_pass(InstructionDistribution(list(pool)))
                synth.add_pass(MemoryModel(weights))
                synth.add_pass(InitRegisters("random"))
                synth.add_pass(InitImmediates("random"))
                synth.add_pass(DependencyDistance("none"))
                benchmarks.append(
                    TrainingBenchmark(family, synth.kernel(kernels))
                )
    return benchmarks


def generate_random_suite(
    arch: MicroArchitecture,
    loop_size: int = 4096,
    scale: float = 1.0,
    seed: int = 0,
    memo=None,
) -> list[TrainingBenchmark]:
    """The Random calibration family (331 benchmarks at full scale)."""
    policy = RandomBenchmarkPolicy(arch, loop_size=loop_size, seed=seed)
    count = _scaled_count(RANDOM_FAMILY_SIZE, scale)
    return [
        TrainingBenchmark("Random", kernel)
        for kernel in policy.build(count, memo)
    ]


def generate_training_suite(
    arch: MicroArchitecture,
    loop_size: int = 4096,
    scale: float = 1.0,
    seed: int = 0,
    memo=None,
) -> list[TrainingBenchmark]:
    """The full Table 2 suite: targeted families plus Random."""
    return generate_micro_suite(arch, loop_size, scale, seed, memo) + (
        generate_random_suite(arch, loop_size, scale, seed, memo)
    )


def _family_synthesizer(
    arch: MicroArchitecture, family: str, seed: int, index: int
) -> Synthesizer:
    slug = family.lower().replace(" ", "-").replace("/", "-")
    return Synthesizer(
        arch,
        seed=f"{seed}:{family}:{index}",
        name_prefix=f"t2-{slug}-{index}",
    )


def _scaled_count(count: int, scale: float) -> int:
    # Never fewer than 3 per family: the sequential fitting protocol
    # needs at least 3 rows per component.
    return max(3, round(count * scale))


def _scaled_subset(targets: list[float], scale: float) -> list[float]:
    """Evenly thin an IPC-target list to ``scale`` of its size."""
    wanted = max(3, round(len(targets) * scale))
    if wanted >= len(targets):
        return targets
    step = (len(targets) - 1) / (wanted - 1)
    return [targets[round(i * step)] for i in range(wanted)]
