"""Evaluation-engine throughput: kernels/second at paper scale.

Pins the scaling axis of the whole system -- how many 4096-instruction
micro-benchmarks the machine substrate evaluates per second -- and
guards the O(period) fast path against regressions by comparing it
with the per-instruction walk kept as the test oracle
(``tests/oracle``).

Four numbers are reported (and recorded in ``BENCH_results.json``):

* ``build+run`` kernels/sec for periodic stressmark kernels across the
  three SMT modes (the Figure-9 inner loop);
* fused-vs-oracle measurement-plane throughput on the full
  540-sequence space (prebuilt kernels, one plan over the three SMT
  modes): the fused plane against the per-cell scalar walk of the
  test oracle, asserted bit-identical and >= 2.5x faster;
* summary-path vs reference-path evaluation time on the same kernels
  (the engine's raw speedup, asserted >= 10x);
* aperiodic-kernel evaluation throughput (the Table-2 suite shape),
  which exercises the O(loop) summarization with precompiled tables;
* synthesis throughput: the pass pipeline building the Table-2 micro
  and random suites at ``REPRO_SCALE``/``REPRO_LOOP_SIZE``, in one
  process, in microseconds per synthesized instruction and kernels per
  second; the same recipes through the column pipeline and through the
  per-slot pipeline kept as its oracle (``tests/oracle/synthesis.py``),
  best of 5 alternating rounds, asserted >= 1.4x faster on columns;
  the suite's programs turned into kernels (``to_kernel`` plus the
  first ``digest()`` and ``slot_table()``) as slot tables and through
  the slot-object ``to_kernel`` kept as their oracle
  (``tests/oracle/kernels.py``), asserted >= 2x faster as tables; then
  the suite through a temporary store's kernel memo, cold (synthesize
  and write) and warm (load), asserted >= 2.5x faster warm.  Recorded
  under ``synthesis`` at the default scale and under
  ``synthesis_scale<S>_loop<L>`` at any other.

Absolute rate floors hold on the nominal host: each is rescaled by the
host-speed reference timed next to its measurement (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import gc
import itertools
import time

from benchmarks.conftest import (
    LOOP_SIZE,
    SCALE,
    host_floor,
    host_reference,
    record_rate,
    record_result,
)
from repro.core import synthesizer as synthesizer_module
from repro.core.ir import Program
from repro.core.synthesizer import Synthesizer
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
from repro.power_model.training import (
    generate_micro_suite,
    generate_random_suite,
    generate_training_suite,
)
from repro.sim import Machine, MachineConfig
from repro.sim.pipeline import CorePipelineModel
from repro.stressmark.search import build_stressmark, covering_sequences
from tests.oracle import OracleMachine, reference_activity, reference_bounds
from tests.oracle import kernels as oracle_kernels
from tests.oracle import synthesis as oracle_synthesis

#: Stressmark candidates; the 540-point covering space is the workload.
_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
_SMT_MODES = (1, 2, 4)


def _fresh_machine(arch) -> Machine:
    """A machine with cold summary/activity caches."""
    return Machine(arch)


def test_eval_engine_throughput(benchmark, machine, arch):
    sequences = covering_sequences(_CANDIDATES)
    cores = arch.chip.max_cores

    def evaluate_all() -> int:
        runner = _fresh_machine(arch)
        kernels = [
            build_stressmark(arch, sequence, LOOP_SIZE)
            for sequence in sequences
        ]
        for smt in _SMT_MODES:
            runner.run_many(kernels, MachineConfig(cores, smt))
        return len(kernels)

    before = host_reference()
    start = time.perf_counter()
    count = benchmark.pedantic(evaluate_all, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    reference = (before + host_reference()) / 2
    kernels_per_second = count / elapsed
    print(
        f"\n=== Evaluation engine: {count} periodic {LOOP_SIZE}-instruction "
        f"kernels x {len(_SMT_MODES)} SMT modes ===\n"
        f"build+run throughput: {kernels_per_second:,.0f} kernels/sec "
        f"({count * len(_SMT_MODES) / elapsed:,.0f} measurements/sec)"
    )
    record_rate(
        "eval_engine",
        "build_and_run_kernels_per_sec",
        kernels_per_second,
        reference,
    )
    # The engine must stay comfortably interactive at paper scale; the
    # pre-engine walk managed ~60 kernels/sec on commodity hardware.
    assert kernels_per_second > host_floor(200, reference)


def test_vector_measurement_plane(arch):
    """Fused plane vs the scalar oracle over the full sequence space.

    Kernels are prebuilt (construction is the synthesizer's axis, not
    the measurement plane's); each path evaluates the whole 540-kernel
    x 3-SMT-mode plan on a cold machine.  The oracle is the per-cell
    scalar walk the plane replaced, so the ratio is the plane's
    like-for-like speedup; results must agree bit for bit.
    """
    sequences = covering_sequences(_CANDIDATES)
    kernels = [
        build_stressmark(arch, sequence, LOOP_SIZE)
        for sequence in sequences
    ]
    cores = arch.chip.max_cores
    plan = ExperimentPlan.cross(
        kernels,
        [MachineConfig(cores, smt) for smt in _SMT_MODES],
        duration=10.0,
    )

    fast = SerialExecutor(Machine(arch)).run(plan)
    reference = SerialExecutor(OracleMachine(arch)).run(plan)
    assert fast == reference

    def best_rate(machine_cls) -> float:
        best = None
        for _ in range(3):
            machine = machine_cls(arch)
            start = time.perf_counter()
            SerialExecutor(machine).run(plan)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return len(kernels) / best

    before = host_reference()
    vector_rate = best_rate(Machine)
    host = (before + host_reference()) / 2
    scalar_rate = best_rate(OracleMachine)
    speedup = vector_rate / scalar_rate
    print(
        f"\n=== Measurement plane: {len(kernels)} prebuilt kernels x "
        f"{len(_SMT_MODES)} SMT modes (loop {LOOP_SIZE}) ===\n"
        f"fused: {vector_rate:,.0f} kernels/sec, "
        f"scalar oracle: {scalar_rate:,.0f} kernels/sec -> "
        f"{speedup:.1f}x speedup"
    )
    record_rate("eval_engine", "vector_kernels_per_sec", vector_rate, host)
    record_result(
        "eval_engine",
        scalar_kernels_per_sec=round(scalar_rate),
        vector_speedup=round(speedup, 2),
    )
    assert vector_rate > host_floor(2_000, host)
    # At 3 cells/kernel this shape is bound by the per-kernel analytic
    # front end (digest + summary, shared by both paths and pinned by
    # golden-stability of the digest), so the like-for-like ratio sits
    # lower than the campaign-scale plan bench (~7x); the absolute
    # kernels/sec above is the number tracked across PRs.
    assert speedup >= 2.5


def test_fast_path_speedup(machine, arch):
    """Summary path vs reference path on identical kernels: >= 10x."""
    sequences = list(itertools.islice(covering_sequences(_CANDIDATES), 48))
    kernels = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]

    fast_model = CorePipelineModel(arch)
    start = time.perf_counter()
    for kernel in kernels:
        for smt in _SMT_MODES:
            fast_model.activity(kernel, smt)
    fast_elapsed = time.perf_counter() - start

    reference_model = CorePipelineModel(arch)
    start = time.perf_counter()
    for kernel in kernels:
        for smt in _SMT_MODES:
            reference_activity(reference_model, kernel, smt)
    reference_elapsed = time.perf_counter() - start

    speedup = reference_elapsed / fast_elapsed
    print(
        f"\nsummary path: {fast_elapsed * 1e3:.1f} ms, reference path: "
        f"{reference_elapsed * 1e3:.1f} ms -> {speedup:.1f}x speedup "
        f"({len(kernels)} kernels x {len(_SMT_MODES)} SMT modes, "
        f"loop {LOOP_SIZE})"
    )
    assert speedup >= 10.0

    # Both paths agree (spot check; the invariance suite is exhaustive).
    sample = kernels[0]
    fast = fast_model.bounds(sample, 2)
    reference = reference_bounds(reference_model, sample, 2)
    assert abs(fast.period - reference.period) <= 1e-9 * reference.period


def test_aperiodic_throughput(machine, arch):
    """Table-2-shaped kernels: O(loop) summaries, summarized once."""
    from repro.workloads.random_gen import RandomBenchmarkPolicy

    kernels = RandomBenchmarkPolicy(arch, loop_size=LOOP_SIZE, seed=3).build(24)
    runner = _fresh_machine(arch)
    before = host_reference()
    start = time.perf_counter()
    for smt in _SMT_MODES:
        runner.run_many(kernels, MachineConfig(arch.chip.max_cores, smt))
    elapsed = time.perf_counter() - start
    reference = (before + host_reference()) / 2
    rate = len(kernels) * len(_SMT_MODES) / elapsed
    print(
        f"\naperiodic evaluation: {rate:,.0f} measurements/sec "
        f"({len(kernels)} random {LOOP_SIZE}-instruction kernels)"
    )
    record_rate("eval_engine", "aperiodic_measurements_per_sec", rate, reference)
    assert rate > host_floor(100, reference)


def test_synthesis_throughput(arch, tmp_path, monkeypatch):
    """The pass pipeline building the Table-2 training suite.

    Every build runs in one process, as the recipe recording needs (a
    forked child's syntheses never reach its patch), so the figures
    and the memo's cold/warm ratio do not move with the host's CPU
    count.  perfbench's ``campaign`` times forked suite builds.

    Then the same suite twice through one temporary store, back to
    back: cold, every kernel synthesized and written; warm, every
    kernel loaded.  A warm load checks each record's checksum, slot
    grammar, index and kernel conditions and computes the kernel's
    digest from the slot text, but builds no slot: building the loaded
    kernels' slots, on their first read, is timed apart, with the heap
    frozen so the full collections the earlier phases leave due do not
    land in it.  The cold side digests its kernels as it builds them.
    """
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    start = time.perf_counter()
    suite = generate_micro_suite(arch, LOOP_SIZE, SCALE) + (
        generate_random_suite(arch, LOOP_SIZE, SCALE)
    )
    elapsed = time.perf_counter() - start
    instructions = sum(len(entry.kernel) for entry in suite)
    us_per_instruction = elapsed / instructions * 1e6
    kernels_per_second = len(suite) / elapsed
    print(
        f"\nsynthesis: {len(suite)} kernels, {instructions:,} instructions "
        f"in {elapsed:.2f} s -> {us_per_instruction:.2f} us/instruction, "
        f"{kernels_per_second:,.1f} kernels/sec (scale {SCALE}, "
        f"loop {LOOP_SIZE})"
    )

    recipes = _suite_recipes(arch)
    rounds = {"columns": [], "oracle": []}
    for _ in range(5):
        # Alternate the two pipelines so a host phase moves both.
        rounds["columns"].append(_replay(recipes, _column_synthesis))
        rounds["oracle"].append(_replay(recipes, _oracle_synthesis))
    synthesis_speedup = min(rounds["oracle"]) / min(rounds["columns"])
    oracle_us_per_instruction = min(rounds["oracle"]) / instructions * 1e6
    print(
        f"same recipes, best of 5: columns {min(rounds['columns']):.2f} s, "
        f"per-slot oracle {min(rounds['oracle']):.2f} s "
        f"({oracle_us_per_instruction:.2f} us/instruction) -> "
        f"{synthesis_speedup:.2f}x"
    )

    programs = [_column_synthesis(*recipe) for recipe in recipes]
    builds = {"tables": [], "slots": []}
    for _ in range(5):
        builds["tables"].append(_build_kernels(programs, Program.to_kernel))
        builds["slots"].append(
            _build_kernels(programs, oracle_kernels.to_kernel)
        )
    build_speedup = min(builds["slots"]) / min(builds["tables"])
    build_us = {
        side: min(times) / instructions * 1e6 for side, times in builds.items()
    }
    print(
        f"kernel build (to_kernel + digest + slot_table), best of 5: "
        f"slot tables {build_us['tables']:.3f} us/instruction, slot "
        f"objects {build_us['slots']:.3f} -> {build_speedup:.2f}x"
    )

    timings = {}
    for kind in ("cold", "warm"):
        store = ResultStore(tmp_path)
        start = time.perf_counter()
        memoized = generate_training_suite(arch, LOOP_SIZE, SCALE, memo=store)
        timings[kind] = time.perf_counter() - start
        if kind == "warm":
            gc.collect()
            gc.freeze()
            before = [stats["collections"] for stats in gc.get_stats()]
            start = time.perf_counter()
            for entry in memoized:
                entry.kernel.instructions
            timings["materialize"] = time.perf_counter() - start
            collections = [
                stats["collections"] - count
                for stats, count in zip(gc.get_stats(), before)
            ]
            gc.unfreeze()
        assert memoized == suite
    assert (store.kernel_hits, store.kernel_misses) == (len(suite), 0)
    speedup = timings["cold"] / timings["warm"]
    load_us_per_kernel = timings["warm"] / len(suite) * 1e6
    print(
        f"kernel memo: cold {timings['cold']:.2f} s (synthesize + write), "
        f"warm {timings['warm']:.3f} s (load, {load_us_per_kernel:.0f} "
        f"us/kernel) -> {speedup:.1f}x; building the loaded slots "
        f"{timings['materialize']:.3f} s (heap frozen; collections by "
        f"generation {collections})"
    )
    name = "synthesis"
    if (SCALE, LOOP_SIZE) != (0.3, 1024):
        name = f"synthesis_scale{SCALE:g}_loop{LOOP_SIZE}"
    record_result(
        name,
        synthesis_us_per_instruction=round(us_per_instruction, 2),
        synthesis_kernels_per_sec=round(kernels_per_second, 1),
        synthesis_oracle_us_per_instruction=round(
            oracle_us_per_instruction, 2
        ),
        synthesis_speedup=round(synthesis_speedup, 2),
        kernel_build_us_per_instruction=round(build_us["tables"], 3),
        kernel_build_oracle_us_per_instruction=round(build_us["slots"], 3),
        kernel_build_speedup=round(build_speedup, 2),
        kernel_memo_us_per_instruction=round(
            timings["warm"] / instructions * 1e6, 2
        ),
        kernel_memo_write_us_per_instruction=round(
            timings["cold"] / instructions * 1e6, 2
        ),
        kernel_memo_load_us_per_kernel=round(load_us_per_kernel, 1),
        kernel_memo_materialize_us_per_instruction=round(
            timings["materialize"] / instructions * 1e6, 3
        ),
        kernel_memo_speedup=round(speedup, 2),
    )
    # About 4.8 us/instruction on a 2-vCPU Xeon container, where the
    # per-slot pipeline kept as the oracle takes about 7.9 (1.6x).
    assert us_per_instruction < 20.0
    assert synthesis_speedup >= 1.4
    assert build_speedup >= 2.0
    assert speedup >= 2.5


def _suite_recipes(arch) -> list[tuple[Synthesizer, int, str | None]]:
    """(synthesizer, ordinal, name) of every synthesis of the suite."""
    recipes = []
    synthesize = Synthesizer.synthesize

    def recording(self, name=None):
        recipes.append((self, self._counter, name))
        return synthesize(self, name)

    Synthesizer.synthesize = recording
    try:
        generate_training_suite(arch, LOOP_SIZE, SCALE)
    finally:
        Synthesizer.synthesize = synthesize
    return recipes


def _replay(recipes, synthesis) -> float:
    """Seconds to synthesize every recipe and build its kernel."""
    start = time.perf_counter()
    for recipe in recipes:
        synthesis(*recipe).to_kernel()
    return time.perf_counter() - start


def _build_kernels(programs, to_kernel) -> float:
    """Seconds to build each program's kernel and its first digest
    and slot table, keeping the kernels alive as a suite keeps them."""
    kernels = []
    start = time.perf_counter()
    for program in programs:
        kernel = to_kernel(program)
        kernel.digest()
        kernel.slot_table()
        kernels.append(kernel)
    return time.perf_counter() - start


def _column_synthesis(synth: Synthesizer, ordinal: int, name):
    synth._counter = ordinal  # replay call ``ordinal`` of the recipe
    return synth.synthesize(name)


def _oracle_synthesis(synth: Synthesizer, ordinal: int, name):
    return oracle_synthesis.synthesize(synth, ordinal, name)[0]
