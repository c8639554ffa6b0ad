"""Invariance tests for the steady-state evaluation engine.

The summary-based fast path (:meth:`CorePipelineModel.bounds` /
``activity``) must reproduce the naive per-instruction walk kept as
the test oracle (``tests/oracle/pipeline.py``) to float precision on
arbitrary kernels -- randomized aperiodic bodies, randomized periodic
bodies with declared fingerprints, and the degenerate shapes the
generators emit.  Replicating a periodic kernel must never change its
steady-state rates.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel, KernelInstruction, Machine, MachineConfig
from repro.sim.pipeline import CorePipelineModel
from tests.oracle import (
    reference_activity,
    reference_alternation,
    reference_bounds,
    reference_dependency_bound,
)

#: Mnemonic pool covering every usage shape: pure FXU, flexible
#: FXU/LSU, pure LSU, pure VSU, cracked LSU+FXU, LSU+2FXU, the
#: compound three-unit stores, branches, and usage-free nops.
POOL = (
    "addic", "mulldo", "add", "nor", "lwz", "lxvw4x", "xvmaddadp",
    "fadd", "lhaux", "ldu", "stfd", "stw", "b", "nop", "divd",
)
LEVELS = (None, "L1", "L1", "L2", "L3", "MEM")


@pytest.fixture(scope="module")
def pipeline(power7_arch):
    return CorePipelineModel(power7_arch)


def random_instruction(rng, size):
    mnemonic = rng.choice(POOL)
    level = rng.choice(LEVELS) if mnemonic in ("lwz", "lxvw4x", "ldu", "stfd", "stw", "lhaux") else None
    distance = None
    if rng.random() < 0.4 and size > 1:
        distance = rng.randint(1, size - 1)
    return KernelInstruction(
        mnemonic,
        dep_distance=distance,
        source_level=level,
        address=0x1000_0000 + rng.randrange(1 << 20) * 8 if level else None,
    )


def random_kernel(seed, size=None):
    rng = random.Random(seed)
    size = size or rng.randint(2, 160)
    return Kernel(
        name=f"rand-{seed}",
        instructions=tuple(
            random_instruction(rng, size) for _ in range(size)
        ),
        operand_entropy=rng.choice([0.0, 0.5, 1.0]),
    )


def random_periodic_kernel(seed):
    """Pattern * repeats + tail, with the fingerprint declared."""
    rng = random.Random(seed)
    period = rng.randint(1, 12)
    repeats = rng.randint(2, 24)
    # Dependency-free pattern slots: positional links do not replicate.
    pattern = tuple(
        KernelInstruction(
            rng.choice(POOL),
            source_level=level,
            address=0x1000_0000 + index * 128 if level else None,
        )
        for index, level in (
            (i, rng.choice(LEVELS) if rng.random() < 0.5 else None)
            for i in range(period)
        )
    )
    # The fingerprint contract places the tail in the remainder slots,
    # so it must stay shorter than one period.
    tail = (KernelInstruction("b"),) if period > 1 and rng.random() < 0.8 else ()
    return Kernel(
        name=f"periodic-{seed}",
        instructions=pattern * repeats + tail,
        operand_entropy=rng.choice([0.0, 1.0]),
        period=period,
    )


def assert_bounds_match(pipeline, kernel, smt):
    fast = pipeline.bounds(kernel, smt)
    reference = reference_bounds(pipeline, kernel, smt)
    for bound in ("dispatch", "unit", "dependency", "memory"):
        assert getattr(fast, bound) == pytest.approx(
            getattr(reference, bound), rel=1e-9, abs=1e-9
        ), (kernel.name, smt, bound)


def assert_activity_matches(pipeline, kernel, smt):
    fast = pipeline.activity(kernel, smt)
    reference = reference_activity(pipeline, kernel, smt)
    assert fast.ipc == pytest.approx(reference.ipc, rel=1e-9)
    assert fast.alternation == pytest.approx(reference.alternation, rel=1e-9)
    assert fast.entropy == reference.entropy
    for name in ("insn_rates", "unit_op_rates", "level_rates"):
        fast_rates = getattr(fast, name)
        reference_rates = getattr(reference, name)
        assert set(fast_rates) == set(reference_rates), (kernel.name, name)
        for key, value in reference_rates.items():
            assert fast_rates[key] == pytest.approx(value, rel=1e-9), (
                kernel.name, name, key,
            )


class TestFastPathInvariance:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_aperiodic_kernels(self, pipeline, seed):
        kernel = random_kernel(seed)
        for smt in (1, 2, 4):
            assert_bounds_match(pipeline, kernel, smt)
        assert_activity_matches(pipeline, kernel, 1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_periodic_kernels(self, pipeline, seed):
        kernel = random_periodic_kernel(seed)
        kernel.validate_period()
        for smt in (1, 2, 4):
            assert_bounds_match(pipeline, kernel, smt)
        assert_activity_matches(pipeline, kernel, 1)

    def test_dependency_chains(self, pipeline):
        for mnemonic in ("fadd", "mulldo", "lwz"):
            kernel = Kernel(
                name=f"chain-{mnemonic}",
                instructions=tuple(
                    KernelInstruction(mnemonic, dep_distance=1)
                    for _ in range(64)
                ),
            )
            assert_bounds_match(pipeline, kernel, 1)
            assert_activity_matches(pipeline, kernel, 1)

    @pytest.mark.parametrize("seed", range(40))
    def test_dependency_walk_on_linked_aperiodic_kernels(self, pipeline, seed):
        """The walk resolving each distinct slot's latency once equals
        the walk resolving it per node, bit for bit: on bodies of
        private slots and on bodies sharing a few linked slot objects
        (as synthesized and loaded kernels share equal slots)."""
        rng = random.Random(seed)
        size = rng.randint(2, 300)
        palette = [random_instruction(rng, size) for _ in range(6)]
        palette.append(KernelInstruction("fadd", dep_distance=1))
        shared = Kernel(
            name=f"shared-{seed}",
            instructions=tuple(rng.choice(palette) for _ in range(size)),
        )
        for kernel in (random_kernel(seed), shared):
            assert pipeline.summarize(kernel).dependency_bound == (
                reference_dependency_bound(pipeline, kernel)
            )

    def test_dependency_walk_on_the_table2_suites(self, pipeline, power7_arch):
        from repro.power_model.training import generate_training_suite

        suite = generate_training_suite(power7_arch, 1024, 0.3)
        linked = 0
        for entry in suite:
            bound = pipeline.summarize(entry.kernel).dependency_bound
            assert bound == reference_dependency_bound(pipeline, entry.kernel)
            linked += bound > 0
        assert linked >= 50

    def test_alternation_matches_on_periodic_blocks(self, pipeline):
        pattern = tuple(
            KernelInstruction(m) for m in ("mulldo", "nop", "xvmaddadp")
        )
        kernel = Kernel(
            name="alt-periodic",
            instructions=pattern * 11 + (KernelInstruction("b"),),
            period=3,
        )
        assert pipeline.alternation(kernel) == pytest.approx(
            reference_alternation(pipeline, kernel), rel=1e-12
        )


class TestReplicationInvariance:
    """Steady-state rates never depend on the replication factor."""

    @given(seed=st.integers(0, 5_000), repeats=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_ipc_invariant_under_replication(self, pipeline, seed, repeats):
        rng = random.Random(seed)
        pattern = tuple(
            KernelInstruction(
                rng.choice(POOL),
                source_level=("L1" if rng.random() < 0.5 else None),
                address=0x1000_0000,
            )
            if rng.random() < 0.3
            else KernelInstruction(rng.choice(POOL))
            for _ in range(rng.randint(1, 10))
        )
        once = Kernel("once", pattern, period=len(pattern))
        many = Kernel("many", pattern * repeats, period=len(pattern))
        for smt in (1, 2, 4):
            small = pipeline.activity(once, smt)
            big = pipeline.activity(many, smt)
            assert big.ipc == pytest.approx(small.ipc, rel=1e-9)
            for key, value in small.insn_rates.items():
                assert big.insn_rates[key] == pytest.approx(value, rel=1e-9)
            for key, value in small.unit_op_rates.items():
                assert big.unit_op_rates[key] == pytest.approx(value, rel=1e-9)

    def test_bounds_scale_linearly_with_replication(self, pipeline):
        pattern = tuple(
            KernelInstruction(m) for m in ("mulldo", "lxvw4x", "xvnmsubmdp")
        )
        base = pipeline.bounds(Kernel("x1", pattern, period=3))
        for repeats in (4, 16, 64):
            scaled = pipeline.bounds(
                Kernel(f"x{repeats}", pattern * repeats, period=3)
            )
            assert scaled.unit == pytest.approx(base.unit * repeats, rel=1e-9)
            assert scaled.dispatch == pytest.approx(
                base.dispatch * repeats, rel=1e-9
            )


class TestEngineBookkeeping:
    def test_summary_memoized_by_digest(self, power7_arch):
        pipeline = CorePipelineModel(power7_arch)
        kernel = random_kernel(7)
        clone = Kernel(
            name="different-name",
            instructions=kernel.instructions,
            operand_entropy=kernel.operand_entropy,
        )
        assert kernel.digest() == clone.digest()
        assert pipeline.summarize(kernel) is pipeline.summarize(clone)

    def test_digest_distinguishes_content(self):
        a = Kernel("k", (KernelInstruction("addic"),) * 8)
        b = Kernel("k", (KernelInstruction("mulldo"),) * 8)
        c = Kernel("k", (KernelInstruction("addic"),) * 9)
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_validate_period_rejects_broken_fingerprint(self):
        instructions = (
            KernelInstruction("addic"),
            KernelInstruction("addic"),
            KernelInstruction("mulldo"),
            KernelInstruction("addic"),
        )
        kernel = Kernel("broken", instructions, period=1)
        with pytest.raises(ValueError, match="breaks the declared period"):
            kernel.validate_period()

    def test_run_many_equals_run(self, power7_arch):
        machine_a = Machine(power7_arch)
        machine_b = Machine(power7_arch)
        kernels = [random_kernel(seed, size=48) for seed in range(6)]
        config = MachineConfig(4, 2)
        batched = machine_a.run_many(kernels, config)
        singles = [machine_b.run(kernel, config) for kernel in kernels]
        for one, many in zip(singles, batched):
            assert one.mean_power == many.mean_power
            assert one.thread_counters == many.thread_counters
            assert one.workload_name == many.workload_name

    def test_generated_fingerprints_honour_contract(self, power7_arch):
        from repro.march.bootstrap import Bootstrapper
        from repro.sim import Machine
        from repro.stressmark.search import build_stressmark

        machine = Machine(power7_arch)
        bootstrapper = Bootstrapper(power7_arch, machine, loop_size=96)
        for mnemonic in ("addic", "lwz", "stfd", "xvmaddadp"):
            for chained in (False, True):
                synth = bootstrapper._build(mnemonic, chained=chained)
                kernel = synth.kernel()
                kernel.validate_period()
        for loop_size in (12, 64, 500, 4096):
            kernel = build_stressmark(
                power7_arch, ("mulldo", "lxvw4x", "xvnmsubmdp"), loop_size
            )
            kernel.validate_period()

    def test_stressmark_period_boundary_branch(self, power7_arch):
        """(loop_size + 1) multiple of the pattern: the closing branch
        would land inside the last full period, so no fingerprint may
        be declared and the counts must stay exact."""
        from repro.stressmark.search import build_stressmark

        sequence = ("mulldo", "subf", "addic")  # no memory -> pattern 3
        kernel = build_stressmark(power7_arch, sequence, loop_size=8)  # 9 % 3 == 0
        assert kernel.period is None
        counts = kernel.mnemonic_counts()
        assert counts["b"] == 1
        assert counts["mulldo"] == 3 and counts["subf"] == 3
        assert counts["addic"] == 2
        kernel.validate_period()
