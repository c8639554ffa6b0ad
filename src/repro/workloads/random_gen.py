"""Random micro-benchmark generation policy (Table 2's "Random" family).

331 random micro-benchmarks enrich the training set and calibrate the
model intercept (paper section 4.1, step 1).  Each benchmark draws a
random instruction pool from the ISA, a random memory mix, random
dependency-distance parameters and random value-initialisation -- so
the family covers activity combinations no targeted family contains.
"""

from __future__ import annotations

import random

from repro.core.passes.distribution import InstructionDistribution
from repro.core.passes.ilp import DependencyDistance
from repro.core.passes.init_values import InitImmediates, InitRegisters
from repro.core.passes.memory import MemoryModel
from repro.core.passes.skeleton import EndlessLoopSkeleton
from repro.core.synthesizer import KernelMemo, Synthesizer, kernel_memo
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel


class RandomBenchmarkPolicy:
    """Seeded generator of random micro-benchmarks."""

    def __init__(
        self,
        arch: MicroArchitecture,
        loop_size: int = 4096,
        seed: int = 0,
    ) -> None:
        self.arch = arch
        self.loop_size = loop_size
        self.seed = seed
        self._candidates = [
            ins.mnemonic for ins in arch.isa
            if not ins.is_branch and not ins.is_nop
            and not ins.is_privileged and not ins.is_prefetch
        ]

    def build(self, count: int, memo=None) -> list[Kernel]:
        """Generate ``count`` random micro-benchmarks.

        ``memo`` is an optional result store: benchmarks whose recipe
        it holds load from it, the rest are synthesized and written.
        """
        rng = random.Random(f"random-policy:{self.seed}")
        with kernel_memo(memo, self.arch) as kernels:
            return [
                self._build_one(rng, index, kernels) for index in range(count)
            ]

    def _build_one(
        self, rng: random.Random, index: int, memo: KernelMemo | None
    ) -> Kernel:
        # Random mixes draw a broad pool: like the random test cases of
        # prior synthetic-benchmark work, they blend many instruction
        # types, so per-unit activities are correlated (never the pure
        # single-unit signatures the targeted families provide).
        pool_size = rng.randint(6, 14)
        pool = rng.sample(self._candidates, pool_size)
        synth = Synthesizer(
            self.arch,
            seed=rng.randrange(2 ** 31),
            name_prefix=f"random-{self.seed}-{index}",
        )
        synth.add_pass(EndlessLoopSkeleton(self.loop_size))
        synth.add_pass(InstructionDistribution(pool))

        memory_count = sum(
            1 for mnemonic in pool
            if self.arch.isa.instruction(mnemonic).is_memory
        )
        if memory_count:
            memory_slots = self.loop_size * memory_count // len(pool)
            synth.add_pass(
                MemoryModel(self._random_memory_mix(rng, memory_slots))
            )

        synth.add_pass(InitRegisters(rng.choice(["random", "pattern"])))
        synth.add_pass(InitImmediates("random"))
        mode = rng.choice(["none", "random", "random", "fixed"])
        if mode == "fixed":
            synth.add_pass(
                DependencyDistance("fixed", distance=rng.randint(1, 16))
            )
        elif mode == "random":
            low = rng.randint(1, 8)
            synth.add_pass(
                DependencyDistance(
                    "random",
                    min_distance=low,
                    max_distance=low + rng.randint(0, 24),
                )
            )
        else:
            synth.add_pass(DependencyDistance("none"))
        return synth.kernel(memo)

    def _random_memory_mix(
        self, rng: random.Random, memory_slots: int
    ) -> dict[str, float]:
        """A random point on the hierarchy-mix simplex.

        Level weights are drawn then renormalized; levels may drop out
        entirely, so pure-L1 and memory-heavy mixes both occur.  Any
        surviving non-L1 weight is floored so its stream receives at
        least the cache model's per-stream line minimum (with a safety
        margin) given the benchmark's memory slot count; when the body
        is too small to sustain deep-level streams the mix degrades to
        pure L1.
        """
        from repro.march.cache_model import SetAssociativeCacheModel

        model = SetAssociativeCacheModel(self.arch.caches, self.arch.memory)
        l1 = self.arch.memory_level_names()[0]
        weights = {
            level: rng.random() * rng.choice([0.0, 1.0, 1.0])
            for level in self.arch.memory_level_names()
        }
        weights[l1] = max(weights[l1], 0.3)
        kept = {level: weight for level, weight in weights.items() if weight > 0}

        # Iteratively drop streams whose (renormalized) slot share falls
        # under the cache model's per-stream line minimum, until the mix
        # is feasible for this benchmark's memory slot count.
        while True:
            total = sum(kept.values())
            normalized = {level: w / total for level, w in kept.items()}
            infeasible = [
                level for level, share in normalized.items()
                if level != l1
                and share * memory_slots < 1.25 * model.minimum_lines(level)
            ]
            if not infeasible:
                return normalized
            kept.pop(min(infeasible, key=normalized.get))
            if not kept:
                return {l1: 1.0}
