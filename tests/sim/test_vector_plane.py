"""Fused plane == scalar oracle: bit-exact equivalence properties.

The measurement plane (:mod:`repro.sim.vector`) must reproduce the
per-cell scalar walk kept in ``tests/oracle`` *bit for bit* --
Measurements, every counter reading, chip power and the sensor noise
draws -- over arbitrary kernels, placements, configurations, operating
points and windows.  These tests drive both (``Machine`` vs
``OracleMachine``) over randomized inputs and assert strict equality
(dataclass ``==`` on Measurement compares every float), plus a
degenerate-batch edge-case suite and draw-level checks of the batched
MT19937 sensor seeding.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExperimentPlan, SerialExecutor
from repro.sim import (
    Kernel,
    KernelInstruction,
    Machine,
    MachineConfig,
    Placement,
)
from repro.sim.pstate import get_pstate, standard_pstates
from repro.sim.sensors import MT_BATCH_MIN, PowerSensor, _mt_first_uniform_pairs
from repro.stressmark.search import build_stressmark
from repro.workloads.spec import spec_cpu2006
from tests.oracle import OracleMachine

_DURATION = 1.0
#: A batch wide enough to exercise the stacked kernel matrices.
_BATCH = 8

POOL = (
    "addic", "mulldo", "add", "nor", "lwz", "lxvw4x", "xvmaddadp",
    "fadd", "lhaux", "ldu", "stfd", "stw", "b", "nop", "divd",
)
MEMORY_POOL = ("lwz", "lxvw4x", "ldu", "stfd", "stw", "lhaux")
LEVELS = (None, "L1", "L1", "L2", "L3", "MEM")


def random_kernel(seed, size=None, name=None):
    rng = random.Random(seed)
    size = size or rng.randint(2, 96)
    instructions = []
    for _ in range(size):
        mnemonic = rng.choice(POOL)
        level = rng.choice(LEVELS) if mnemonic in MEMORY_POOL else None
        distance = (
            rng.randint(1, size - 1)
            if rng.random() < 0.4 and size > 1
            else None
        )
        instructions.append(
            KernelInstruction(
                mnemonic,
                dep_distance=distance,
                source_level=level,
                address=(
                    0x1000_0000 + rng.randrange(1 << 20) * 8
                    if level
                    else None
                ),
            )
        )
    return Kernel(
        name=name or f"vrand-{seed}",
        instructions=tuple(instructions),
        operand_entropy=rng.choice([0.0, 0.5, 1.0]),
    )


@pytest.fixture(scope="module")
def machines(power7_arch):
    return Machine(power7_arch), OracleMachine(power7_arch)


def assert_batch_identical(machines, workloads, config, duration=_DURATION):
    vector, scalar = machines
    fast = vector.run_many(workloads, config, duration)
    reference = scalar.run_many(workloads, config, duration)
    assert fast == reference
    return fast


class TestBitIdentity:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_random_kernel_batches(self, machines, seed):
        """Randomized kernels x configs x p-states: strict equality."""
        rng = random.Random(seed)
        kernels = [
            random_kernel(seed * 100 + index)
            for index in range(rng.randint(1, 16))
        ]
        config = MachineConfig(
            rng.randint(1, 8), rng.choice([1, 2, 4])
        )
        if rng.random() < 0.5:
            config = config.with_p_state(
                rng.choice(standard_pstates())
            )
        duration = rng.choice([0.25, 1.0, 10.0])
        assert_batch_identical(machines, kernels, config, duration)

    def test_heterogeneous_plan_single_pass(self, machines, power7_arch):
        """A whole plan across many configs, p-states and windows
        evaluates in one tensor pass and matches the scalar walk."""
        vector, scalar = machines
        kernels = [random_kernel(9000 + index) for index in range(12)]
        kernels.append(
            build_stressmark(power7_arch, ("mulldo", "lxvw4x"), 96)
        )
        configs = [
            MachineConfig(1, 1),
            MachineConfig(8, 4),
            MachineConfig(3, 2).with_p_state(get_pstate("p2")),
            MachineConfig(8, 1).with_p_state(get_pstate("turbo")),
        ]
        for duration in (0.5, 10.0):
            plan = ExperimentPlan.cross(kernels, configs, duration=duration)
            assert vector.run_plan(plan) == scalar.run_plan(plan)

    def test_mixed_durations_in_one_cell_batch(self, machines):
        """run_cells spans windows; sensor sample counts still match."""
        vector, scalar = machines
        from repro.exec.plan import PlanCell

        kernels = [random_kernel(7000 + index) for index in range(10)]
        cells = [
            PlanCell(kernel, MachineConfig(2, 2), duration)
            for kernel in kernels
            for duration in (0.5, 2.0)
        ]
        assert vector.run_cells(cells) == scalar.run_cells(cells)

    def test_executor_parity_with_scalar_machine(self, power7_arch):
        """SerialExecutor over the machine == over the scalar oracle."""
        kernels = [random_kernel(3000 + index) for index in range(16)]
        plan = ExperimentPlan.cross(
            kernels,
            [MachineConfig(8, smt) for smt in (1, 2, 4)],
            duration=_DURATION,
        )
        fast = SerialExecutor(Machine(power7_arch)).run(plan)
        reference = SerialExecutor(OracleMachine(power7_arch)).run(plan)
        assert fast == reference

    def test_same_content_different_name_draws_distinct_noise(
        self, machines
    ):
        base = random_kernel(42, size=24)
        renamed = Kernel(
            name="renamed-twin",
            instructions=base.instructions,
            operand_entropy=base.operand_entropy,
        )
        batch = [base, renamed] * _BATCH
        measurements = assert_batch_identical(
            machines, batch, MachineConfig(2, 2)
        )
        assert measurements[0].mean_power != measurements[1].mean_power

    def test_duplicates_dedupe_to_equal_measurements(self, machines):
        kernel = random_kernel(77, size=24)
        batch = [kernel] * (_BATCH * 2)
        measurements = assert_batch_identical(
            machines, batch, MachineConfig(4, 2)
        )
        assert all(m == measurements[0] for m in measurements)


class TestMixedAndDegenerateBatches:
    def test_mixed_kernel_placement_profile_batch(
        self, machines, small_kernel_factory
    ):
        """Kernels, a placement and a SPEC proxy fuse in one program,
        each result in its cell's place."""
        mix = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        batch = (
            [random_kernel(500 + index) for index in range(_BATCH)]
            + [spec_cpu2006()[0]]
            + [mix]
            + [random_kernel(600)]
        )
        assert_batch_identical(machines, batch, MachineConfig(1, 2))

    def test_empty_batch(self, machines):
        vector, scalar = machines
        assert vector.run_many([], MachineConfig(1, 1)) == []
        assert scalar.run_many([], MachineConfig(1, 1)) == []

    def test_empty_plan(self, machines):
        vector, _ = machines
        plan = ExperimentPlan([])
        assert vector.run_plan(plan) == []
        assert SerialExecutor(vector).run(plan) == []

    def test_single_cell_batch_matches(self, machines):
        """A one-cell batch fuses like any other and stays identical."""
        kernel = random_kernel(321, size=16)
        assert_batch_identical(machines, [kernel], MachineConfig(8, 4))

    def test_single_kernel_run_matches_batch(self, machines):
        vector, scalar = machines
        kernel = random_kernel(654, size=16)
        config = MachineConfig(2, 1)
        direct = vector.run(kernel, config, _DURATION)
        assert direct == scalar.run(kernel, config, _DURATION)
        batched = vector.run_many(
            [kernel] * (_BATCH + 1), config, _DURATION
        )
        assert all(m == direct for m in batched)

    def test_wide_batch_crosses_mt_threshold(self, machines):
        """Batches wide enough for the vectorized MT seeding still
        reproduce the per-cell generator draws exactly."""
        kernels = [
            random_kernel(10_000 + index, size=8)
            for index in range(MT_BATCH_MIN + 16)
        ]
        assert_batch_identical(machines, kernels, MachineConfig(1, 1))


class TestBatchedSensorPlane:
    def test_mt_uniforms_match_cpython(self):
        rng = random.Random(99)
        seeds = [rng.randrange(2**32) for _ in range(512)]
        seeds += [0, 1, 2**32 - 1]
        first, second = _mt_first_uniform_pairs(seeds)
        for seed, u1, u2 in zip(seeds, first.tolist(), second.tolist()):
            reference = random.Random(seed)
            assert (reference.random(), reference.random()) == (u1, u2)

    @given(count=st.integers(1, 40), base_seed=st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_measure_batch_equals_measure(self, count, base_seed):
        sensor = PowerSensor()
        rng = random.Random(base_seed)
        powers = [50.0 + rng.random() * 150.0 for _ in range(count)]
        seeds = [rng.randrange(2**32) for _ in range(count)]
        means, std, samples = sensor.measure_batch(powers, 1.0, seeds)
        for power, seed, mean in zip(powers, seeds, means):
            reference = sensor.measure(power, 1.0, seed)
            assert mean == reference.mean_power
            assert std == reference.power_std
            assert samples == reference.sample_count

    def test_wide_measure_batch_equals_measure(self):
        sensor = PowerSensor()
        rng = random.Random(17)
        count = MT_BATCH_MIN + 32
        powers = [60.0 + rng.random() * 100.0 for _ in range(count)]
        seeds = [rng.randrange(2**32) for _ in range(count)]
        means, _, _ = sensor.measure_batch(powers, 10.0, seeds)
        for power, seed, mean in zip(powers, seeds, means):
            assert mean == sensor.measure(power, 10.0, seed).mean_power


class TestDrawCache:
    """The draw cache stores each seed's constants without rounding."""

    @staticmethod
    def _bits(values) -> list[int]:
        return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()

    def test_cached_constants_equal_fresh_bits_across_generation_swap(
        self, monkeypatch
    ):
        from repro.sim import sensors

        monkeypatch.setattr(sensors, "_DRAWS", sensors._DrawCache())
        monkeypatch.setattr(sensors, "DRAW_CACHE_GENERATION", 64)
        # Fill misses in batches wide enough for the vectorized seeding.
        monkeypatch.setattr(sensors, "MT_BATCH_MIN", 8)
        negative_zero = 12_345
        exact = sensors._scalar_draw_constants

        def with_signed_zeros(seed, rng):
            if seed == negative_zero:
                return -0.0, -0.0
            return exact(seed, rng)

        monkeypatch.setattr(
            sensors, "_scalar_draw_constants", with_signed_zeros
        )
        rng = random.Random(2024)
        seeds = [rng.randrange(2**32) for _ in range(200)]
        fresh = {}
        for seed in seeds + [negative_zero]:
            sensors._DRAWS.clear()
            zo1, z2 = sensors.draw_constants([seed])
            fresh[seed] = (self._bits(zo1)[0], self._bits(z2)[0])
        assert fresh[negative_zero] == tuple(self._bits([-0.0, -0.0]))

        sensors._DRAWS.clear()
        cache = sensors._DRAWS
        sensors.draw_constants([negative_zero])
        for start in range(0, 80, 16):
            sensors.draw_constants(seeds[start : start + 16])
        # The fifth miss batch rotated the sentinel's generation out.
        assert negative_zero in cache.previous
        zo1, z2 = sensors.draw_constants([negative_zero])
        assert (self._bits(zo1)[0], self._bits(z2)[0]) == fresh[negative_zero]
        assert negative_zero in cache.current
        for start in range(80, len(seeds), 16):
            sensors.draw_constants(seeds[start : start + 16])
        # Served from the current generation, promoted from the
        # previous one, or re-seeded after eviction: all bit-exact.
        for query in (seeds, seeds[::-1]):
            zo1, z2 = sensors.draw_constants(query)
            assert list(zip(self._bits(zo1), self._bits(z2))) == [
                fresh[seed] for seed in query
            ]
        assert cache.hits > 0


class TestCacheAccounting:
    def test_cache_stats_exposes_bounded_lrus(self, power7_arch):
        machine = Machine(power7_arch)
        kernels = [random_kernel(800 + index) for index in range(12)]
        machine.run_many(kernels, MachineConfig(8, 2), _DURATION)
        machine.run_many(kernels, MachineConfig(8, 4), _DURATION)
        stats = machine.cache_stats()
        for name in ("activity", "mixed_core", "summaries", "packed", "stacks"):
            assert name in stats
            assert stats[name]["size"] <= stats[name]["capacity"]
        # The second configuration re-used every packed kernel.
        assert stats["packed"]["hits"] >= len(kernels)
        assert stats["summaries"]["misses"] >= len(kernels)

    def test_lru_caps_and_counts(self):
        from repro.caching import LRUCache

        cache = LRUCache(3, "test")
        for index in range(5):
            cache.put(index, index)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(0) is None and cache.misses == 1
        assert cache.get(4) == 4 and cache.hits == 1
        # Refreshing 2 makes 3 the LRU victim.
        cache.get(2)
        cache.put(5, 5)
        assert 3 not in cache and 2 in cache
        stats = cache.stats()
        assert stats["size"] == 3 and stats["capacity"] == 3

    def test_lru_put_refreshes_an_existing_key(self):
        from repro.caching import LRUCache

        with pytest.raises(ValueError, match="capacity"):
            LRUCache(0)
        cache = LRUCache(2, "test")
        cache.put("a", 1)
        cache.put("b", 2)
        # Re-putting "a" updates it in place and makes "b" the victim.
        cache.put("a", 10)
        assert len(cache) == 2 and cache.evictions == 0
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10 and cache.evictions == 1


class TestFusedProgramCaches:
    def test_canonical_stack_key_hits_on_permuted_batches(self, power7_arch):
        """Permuting a kernel batch re-uses the compiled stack (memo
        keys canonicalize to sorted content digests, not batch order)."""
        machine = Machine(power7_arch)
        scalar = OracleMachine(power7_arch)
        kernels = [random_kernel(4200 + index) for index in range(10)]
        config = MachineConfig(4, 2)
        first = machine.run_many(kernels, config, _DURATION)
        assert first == scalar.run_many(kernels, config, _DURATION)
        permuted = list(kernels)
        random.Random(7).shuffle(permuted)
        hits_before = machine.cache_stats()["stacks"]["hits"]
        second = machine.run_many(permuted, config, _DURATION)
        assert machine.cache_stats()["stacks"]["hits"] > hits_before
        assert second == scalar.run_many(permuted, config, _DURATION)

    def test_sensor_draw_constants_cached_across_batches(self, power7_arch):
        """Re-measuring the same cells re-uses cached MT19937 draws."""
        from repro.sim.sensors import draw_cache_stats

        machine = Machine(power7_arch)
        kernels = [random_kernel(4400 + index) for index in range(12)]
        config = MachineConfig(8, 1)
        first = machine.run_many(kernels, config, _DURATION)
        hits_before = draw_cache_stats()["hits"]
        assert machine.run_many(kernels, config, _DURATION) == first
        assert draw_cache_stats()["hits"] >= hits_before + len(kernels)

    def test_plan_program_cache_replays_bit_identically(self, power7_arch):
        """run_cells(plan=...) caches the fused program; the cached
        replay produces the same bytes as scalar and as compile-time."""
        machine = Machine(power7_arch)
        scalar = OracleMachine(power7_arch)
        kernels = [random_kernel(4600 + index) for index in range(9)]
        plan = ExperimentPlan.cross(
            kernels,
            [MachineConfig(2, 2), MachineConfig(4, 1)],
            duration=_DURATION,
        )
        assert machine._vector.cached_program(plan) is None
        first = machine.run_cells(plan.cells, plan=plan)
        program = machine._vector.cached_program(plan)
        assert program is not None
        replay = machine.run_cells(plan.cells, plan=plan)
        assert replay == first
        assert machine._vector.cached_program(plan) is program
        assert first == scalar.run_cells(plan.cells)

    def test_program_cache_is_weak(self, power7_arch):
        """Dropping the plan drops its compiled program."""
        machine = Machine(power7_arch)
        plan = ExperimentPlan.cross(
            [random_kernel(4800 + index) for index in range(8)],
            [MachineConfig(4, 2)],
            duration=_DURATION,
        )
        machine.run_cells(plan.cells, plan=plan)
        assert machine._vector.cached_program(plan) is not None
        del plan
        import gc

        gc.collect()
        assert len(machine._vector._programs) == 0
