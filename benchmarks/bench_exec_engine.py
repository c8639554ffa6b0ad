"""Execution-engine throughput: cells/second and warm-store speedup.

Pins the scaling axis the engine adds on top of the evaluation engine:
how many *measurement cells* (workload x configuration x window) the
plan/executor/store pipeline completes per second, and how much a warm
result store accelerates a re-run of the same campaign.

The headline numbers (recorded in ``BENCH_results.json``):

* serial cells/sec over a Figure-9-shaped plan (stressmark kernels
  across the full 24-configuration sweep), asserted above a floor;
* vectorized-vs-scalar plan-evaluation throughput on a campaign-scale
  plan: the same cells measured through the tensor measurement plane
  (``sim/vector.py``) and through the retained scalar reference walk
  (``Machine(vector=False)`` -- the PR-3 evaluation path), asserted
  bit-identical, plus the *fused steady-state* rate -- a resident
  executor replaying the plan-cached fused program -- gated at
  >= 500k cells/sec;
* the warm sensor-batch crossover: with the draw-constant cache warm,
  the batch size at which ``measure_batch`` beats the scalar
  ``measure`` loop, gated at <= 2 (it was ~800 before the per-seed
  draws were cached);
* cold-vs-warm store speedup on the identical plan (the warm pass
  performs zero machine invocations), asserted >= 2x, and the stored
  record size per cell, asserted <= 1,500 bytes;
* the wire path: plan decode time per cell through a warm intern cache
  (asserted to rebuild nothing) and the pooled body size, plus the
  warm remote-serve rate over a real socket;
* parallel-executor wall time on the same plan, reported for context.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

from benchmarks.conftest import LOOP_SIZE, record_result
from repro.exec import (
    ExperimentPlan,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.sim import Machine
from repro.sim.config import standard_configurations
from repro.stressmark.search import build_stressmark, covering_sequences

_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
_KERNELS = 40
#: Campaign-scale kernel count for the vector-vs-scalar comparison:
#: wide enough that the tensor pass's fixed setup (stacking, the
#: batched MT19937 sensor seeding) amortizes the way a real sweep does.
_PLAN_KERNELS = 192
_DURATION = 1.0


def _plan(arch, kernels: int = _KERNELS) -> ExperimentPlan:
    sequences = covering_sequences(_CANDIDATES)[:kernels]
    built = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]
    configs = standard_configurations(
        arch.chip.max_cores, arch.chip.smt_modes()
    )
    return ExperimentPlan.cross(built, configs, duration=_DURATION)


def _best_rate(plan, arch, vector: bool, rounds: int = 3) -> float:
    """Best-of-N cold executor runs, cells/second."""
    best = None
    for _ in range(rounds):
        executor = SerialExecutor(Machine(arch, vector=vector))
        start = time.perf_counter()
        executor.run(plan)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return plan.size / best


def test_engine_cells_per_second(benchmark, arch):
    plan = _plan(arch)

    def run_cold() -> int:
        executor = SerialExecutor(Machine(arch))
        executor.run(plan)
        return plan.size

    start = time.perf_counter()
    cells = benchmark.pedantic(run_cold, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    rate = cells / elapsed
    print(
        f"\n=== Execution engine: {cells} cells "
        f"({_KERNELS} kernels x 24 configurations, loop {LOOP_SIZE}) ===\n"
        f"serial throughput: {rate:,.0f} cells/sec"
    )
    record_result("exec_engine", cold_cells_per_sec=round(rate))
    # The engine veneer must stay thin: the evaluation engine under it
    # manages hundreds of cells/sec, and plan/expansion bookkeeping
    # must not eat that.
    assert rate > 100


def test_vector_plan_throughput(arch):
    """Tensor plane vs scalar reference on a campaign-scale plan.

    Both paths run the identical plan through cold machines; the
    scalar pass *is* the retained PR-3 evaluation path, so the ratio
    is the vector plane's like-for-like speedup.  Results must agree
    bit for bit.
    """
    plan = _plan(arch, _PLAN_KERNELS)

    fast = SerialExecutor(Machine(arch, vector=True)).run(plan)
    reference = SerialExecutor(Machine(arch, vector=False)).run(plan)
    assert fast == reference  # bit-identical at benchmark scale too

    vector_rate = _best_rate(plan, arch, vector=True)
    scalar_rate = _best_rate(plan, arch, vector=False)
    speedup = vector_rate / scalar_rate

    # Steady state: a resident executor re-running the plan replays the
    # plan-cached fused program (compilation fully amortized) -- the
    # campaign-loop regime, where the same plan object is re-executed
    # against a warm machine.  Best-of-8 absorbs scheduler noise.
    resident = SerialExecutor(Machine(arch, vector=True))
    assert resident.run(plan) == reference  # compile + cache the program
    fused_elapsed = float("inf")
    for _ in range(8):
        start = time.perf_counter()
        resident.run(plan)
        fused_elapsed = min(fused_elapsed, time.perf_counter() - start)
    fused_rate = plan.size / fused_elapsed

    print(
        f"\n=== Vector plane: {plan.size} cells "
        f"({_PLAN_KERNELS} kernels x 24 configurations, loop {LOOP_SIZE}) ===\n"
        f"vectorized (cold): {vector_rate:,.0f} cells/sec, "
        f"scalar reference: {scalar_rate:,.0f} cells/sec -> "
        f"{speedup:.1f}x speedup\n"
        f"fused steady state (plan-cached program): "
        f"{fused_rate:,.0f} cells/sec"
    )
    record_result(
        "exec_engine",
        vector_cells_per_sec=round(vector_rate),
        scalar_cells_per_sec=round(scalar_rate),
        vector_speedup=round(speedup, 2),
        fused_cells_per_sec=round(fused_rate),
    )
    # The pinned perf-smoke floors (CI runs this on shared runners, so
    # the absolute floors are conservative; local hardware typically
    # measures 80-120k cold and 600-800k fused steady state).
    assert vector_rate > 30_000
    # Like-for-like: the tensor plane must stay well ahead of the
    # scalar walk (typically 5-7x; the floor below absorbs runner
    # noise, the recorded number tracks the real trajectory).
    assert speedup >= 4.0
    # The headline fused-program gate: half a million measurement
    # cells per second once compilation is amortized.
    assert fused_rate >= 500_000


def test_sensor_batch_crossover(arch):
    """Warm sensor-batch crossover: the batch size where batching wins.

    ``measure_batch`` historically needed ~800 cells to amortize its
    MT19937 seeding against the scalar ``measure`` loop.  With the
    per-seed draw constants cached (two-generation draw cache), the
    warm batch path wins at any size -- the crossover pinned here is
    the smallest batch size whose warm batched rate beats the scalar
    loop.
    """
    from repro.sim.sensors import PowerSensor

    sensor = PowerSensor()
    duration = 1.0
    powers = [40.0 + 0.125 * index for index in range(4096)]
    seeds = [7_000_000 + index for index in range(4096)]

    # Warm both paths: the scalar loop's rate is draw-cache-free by
    # construction (measure() recomputes its draws every call).
    sensor.measure_batch(powers, duration, seeds)
    start = time.perf_counter()
    for power, seed in zip(powers, seeds):
        sensor.measure(power, duration, seed)
    scalar_elapsed = time.perf_counter() - start

    crossover = None
    rates = {}
    for size in (1, 2, 4, 8, 64, 512):
        chunks = [
            (powers[base : base + size], seeds[base : base + size])
            for base in range(0, len(powers), size)
        ]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for chunk_powers, chunk_seeds in chunks:
                sensor.measure_batch(chunk_powers, duration, chunk_seeds)
            best = min(best, time.perf_counter() - start)
        rates[size] = len(powers) / best
        if crossover is None and best <= scalar_elapsed:
            crossover = size
    scalar_rate = len(powers) / scalar_elapsed
    print(
        f"\n=== Sensor crossover: scalar {scalar_rate:,.0f} draws/sec ===\n"
        + "\n".join(
            f"batch {size:>4}: {rate:,.0f} draws/sec"
            for size, rate in rates.items()
        )
        + f"\nwarm crossover: {crossover}"
    )
    record_result(
        "exec_engine",
        sensor_scalar_draws_per_sec=round(scalar_rate),
        sensor_batch1_draws_per_sec=round(rates[1]),
        sensor_warm_crossover=crossover,
    )
    # The gate: warm batching must win from (near) the first cell.
    # Before the draw cache the crossover sat around 800.
    assert crossover is not None and crossover <= 2


def test_warm_store_speedup(arch, tmp_path):
    plan = _plan(arch)
    store = ResultStore(tmp_path / "store")

    start = time.perf_counter()
    cold = SerialExecutor(Machine(arch), store=store).run(plan)
    cold_elapsed = time.perf_counter() - start

    warm_machine = Machine(arch)

    def forbid(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("machine invoked on warm run")

    warm_machine.run = warm_machine.run_many = warm_machine.run_cells = forbid
    # The warm run is repeatable (the store is unchanged), so time it
    # best-of-3: single-shot timing turns scheduler noise on shared
    # runners into gate flakes.
    warm_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = SerialExecutor(warm_machine, store=store).run(plan)
        warm_elapsed = min(warm_elapsed, time.perf_counter() - start)

    assert warm == cold
    speedup = cold_elapsed / warm_elapsed
    # Record size: one benchmark copy per hardware thread makes every
    # thread's counters one set, written once (4.1 KB/cell when each
    # thread's copy was written out).
    bytes_per_cell = sum(
        path.stat().st_size for path in store.shard_dir.glob("*.jsonl")
    ) / len(store)
    print(
        f"\ncold (measure + persist): {cold_elapsed * 1e3:.0f} ms, "
        f"warm (store only): {warm_elapsed * 1e3:.0f} ms -> "
        f"{speedup:.1f}x speedup, {len(store)} stored cells, "
        f"{bytes_per_cell:,.0f} B/cell"
    )
    record_result(
        "exec_engine",
        warm_store_speedup=round(speedup, 2),
        store_bytes_per_cell=round(bytes_per_cell),
    )
    assert speedup >= 2.0
    assert bytes_per_cell <= 1500


def test_run_registry_overhead(tmp_path):
    """The persistent run registry must stay invisible next to
    measurement cost: flock'd appends in the tens-of-microseconds
    range, full replay of a busy server's history well under a second.
    Loose gates -- this documents the envelope, not a razor's edge."""
    from repro.exec.registry import RunRegistry

    registry = RunRegistry(tmp_path)
    runs = 500
    start = time.perf_counter()
    for index in range(runs):
        run = f"{index:024x}"
        registry.record(run, "running", cells=8, plan="bench plan")
        registry.record(run, "complete", measured=8, warm=0)
    record_elapsed = time.perf_counter() - start
    per_record_us = record_elapsed / (2 * runs) * 1e6

    start = time.perf_counter()
    replayed = RunRegistry(tmp_path)
    replay_elapsed = time.perf_counter() - start
    assert len(replayed) == runs

    start = time.perf_counter()
    dropped = registry.compact()
    compact_elapsed = time.perf_counter() - start
    assert dropped == runs  # two lines per run collapse to one

    print(
        f"\nregistry: {per_record_us:.0f} us/record (append+flock), "
        f"replay of {2 * runs} lines: {replay_elapsed * 1e3:.0f} ms, "
        f"compact: {compact_elapsed * 1e3:.0f} ms"
    )
    record_result(
        "exec_engine",
        registry_record_us=round(per_record_us, 1),
        registry_replay_ms=round(replay_elapsed * 1e3, 1),
    )
    assert per_record_us < 5000  # 5 ms/record is already pathological
    assert replay_elapsed < 2.0


def test_parallel_executor_wall_time(arch):
    plan = _plan(arch)
    start = time.perf_counter()
    serial = SerialExecutor(Machine(arch)).run(plan)
    serial_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    parallel = ParallelExecutor(Machine(arch), workers=4).run(plan)
    parallel_elapsed = time.perf_counter() - start

    assert parallel == serial  # bit-identity at benchmark scale too
    print(
        f"\nserial: {serial_elapsed * 1e3:.0f} ms, "
        f"parallel (4 workers, cold caches): {parallel_elapsed * 1e3:.0f} ms "
        f"({plan.size} cells)"
    )


def _spawn_replica() -> tuple[subprocess.Popen, str]:
    """One ``repro serve`` subprocess on an ephemeral port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=os.environ.copy(),
    )
    banner = process.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", banner)
    if match is None:  # pragma: no cover - startup failure path
        process.kill()
        raise RuntimeError(f"repro serve failed to start: {banner!r}")
    return process, match.group(0)


def test_wire_v2_deserialization(arch):
    """Wire path: pooled plan bodies decoded through a warm intern cache.

    Times what a resident server actually does per request -- parse
    the JSON body and rebuild an :class:`ExperimentPlan` -- in the
    steady campaign-loop regime, where every request names the same
    few workloads and configurations by digest and the cross-request
    intern cache already holds them.  The gate: the warm rounds rebuild
    nothing (zero new intern misses).
    """
    import json as json_mod

    from repro.exec.serialize import (
        WireInternCache,
        plan_from_dict,
        plan_to_dict_v2,
    )

    plan = _plan(arch, kernels=96)
    body = json_mod.dumps(plan_to_dict_v2(plan)).encode()

    def misses(intern) -> int:
        stats = intern.stats()
        return stats["workloads"]["misses"] + stats["configs"]["misses"]

    intern = WireInternCache()
    plan_from_dict(json_mod.loads(body), intern=intern)  # warm it
    cold_misses = misses(intern)
    warm = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        plan_from_dict(json_mod.loads(body), intern=intern)
        warm = min(warm, time.perf_counter() - start)

    warm_us = warm / plan.size * 1e6
    print(
        f"\n=== Wire v2: {plan.size} cells, body {len(body):,} B ===\n"
        f"warm-intern decode: {warm_us:.1f} us/cell"
    )
    record_result(
        "exec_engine",
        remote_deser_us_per_cell=round(warm_us, 2),
        wire_v2_body_bytes=len(body),
    )
    assert misses(intern) == cold_misses  # the warm rounds rebuilt nothing


def test_remote_warm_throughput(arch):
    """Warm-serve ceiling over a real socket: store + sidecar + intern.

    One ``repro serve`` subprocess; the first campaign populates its
    store (and sidecar indexes), the timed re-runs are pure warm
    serves -- wire v2 bodies, interned plan rebuild, store hits seeked
    via the persistent index.  The floor is deliberately conservative
    (CI runners are noisy); the recorded number is the one to watch.
    """
    from repro.exec import RemoteExecutor

    plan = _plan(arch, kernels=96)
    machine = Machine(arch)
    process, url = _spawn_replica()
    try:
        cold = RemoteExecutor(url)
        try:
            start = time.perf_counter()
            first = cold.run(plan)
            cold_elapsed = time.perf_counter() - start
        finally:
            cold.close()
        best = float("inf")
        for _ in range(3):
            executor = RemoteExecutor(url)
            try:
                start = time.perf_counter()
                warm = executor.run(plan)
                best = min(best, time.perf_counter() - start)
            finally:
                executor.close()
        assert warm == first  # warm serves are bit-identical
    finally:
        process.kill()
        process.wait()

    rate = plan.size / best
    print(
        f"\n=== Remote warm serve: {plan.size} cells over one replica ===\n"
        f"cold campaign: {cold_elapsed * 1e3:.0f} ms, "
        f"warm re-serve: {best * 1e3:.0f} ms -> {rate:,.0f} cells/sec"
    )
    record_result(
        "exec_engine",
        remote_warm_cells_per_sec=round(rate),
        remote_cold_campaign_ms=round(cold_elapsed * 1e3, 1),
    )
    assert rate >= 500  # conservative floor; see BENCH_results.json
