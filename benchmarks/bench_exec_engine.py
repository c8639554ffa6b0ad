"""Execution-engine throughput: cells/second and warm-store speedup.

Pins the scaling axis the engine adds on top of the evaluation engine:
how many *measurement cells* (workload x configuration x window) the
plan/executor/store pipeline completes per second, and how much a warm
result store accelerates a re-run of the same campaign.

The headline numbers (recorded in ``BENCH_results.json``):

* serial cells/sec over a Figure-9-shaped plan (stressmark kernels
  across the full 24-configuration sweep), asserted above a floor;
* fused-vs-oracle plan-evaluation throughput on a campaign-scale
  plan: the same cells measured through the measurement plane
  (``sim/vector.py``) and through the per-cell scalar walk kept as the
  test oracle (``tests/oracle``), asserted bit-identical, plus the
  *fused steady-state* rate -- a resident executor replaying the
  plan-cached fused program -- gated at >= 500k cells/sec;
* the same comparison for the sweep's protocol-workload and placement
  cells: the 28 SPEC proxies and the 4 mix placements across the 96
  configuration x p-state points (SPEC gated at >= 5x; placements,
  bounded by their shared contention solves, at >= 1.25x);
* plan building: a 180-kernel x 96-point stressmark cross and a
  campaign-shaped union of three crosses, built as columns and through
  the row builder they replaced (``tests/oracle/plans.py``), microseconds
  per cell (the cross gated at >= 10x);
* the warm sensor-batch crossover: with the draw-constant cache warm,
  the batch size at which ``measure_batch`` beats the scalar
  ``measure`` loop, gated at <= 2 (it was ~800 before the per-seed
  draws were cached);
* cold-vs-warm store speedup on the identical plan (the warm pass
  performs zero machine invocations), asserted >= 2x, and the stored
  record size per cell, asserted <= 1,500 bytes;
* the wire path: plan decode time per cell through a warm intern cache
  (asserted to rebuild nothing) and the pooled body size, plus the
  warm remote-serve rate over a real socket, served from the replica's
  store;
* two concurrent clients on overlapping plans: the pair's median wall,
  store-backed and store-less, at half and full overlap;
* the run ledger's cost per record and its replay time.

Absolute rate floors hold on the nominal host: each is rescaled by the
host-speed reference timed next to its measurement (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time

from benchmarks.conftest import (
    LOOP_SIZE,
    host_floor,
    host_reference,
    record_rate,
    record_result,
)
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
from repro.exec.plan import PlanCell, sweep_configs
from repro.sim import Machine, MachineConfig
from repro.sim.config import standard_configurations
from repro.sim.pstate import standard_pstates
from repro.stressmark.search import build_stressmark, covering_sequences
from repro.workloads import spec_cpu2006
from repro.workloads.mixes import mix_scenarios
from tests.oracle import OracleMachine
from tests.oracle import plans as oracle_plans

_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
_KERNELS = 40
#: Campaign-scale kernel count for the vector-vs-scalar comparison:
#: wide enough that the tensor pass's fixed setup (stacking, the
#: batched MT19937 sensor seeding) amortizes the way a real sweep does.
_PLAN_KERNELS = 192
_DURATION = 1.0


def _plan(arch, kernels: int = _KERNELS, first: int = 0) -> ExperimentPlan:
    sequences = covering_sequences(_CANDIDATES)[first : first + kernels]
    built = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]
    configs = standard_configurations(
        arch.chip.max_cores, arch.chip.smt_modes()
    )
    return ExperimentPlan.cross(built, configs, duration=_DURATION)


def _best_rate(plan, arch, machine_cls=Machine, rounds: int = 3) -> float:
    """Best-of-N cold executor runs, cells/second."""
    best = None
    for _ in range(rounds):
        executor = SerialExecutor(machine_cls(arch))
        start = time.perf_counter()
        executor.run(plan)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return plan.size / best


def _timed(measure):
    """``(result, host reference)``: the reference timed before and
    after ``measure()`` and averaged."""
    before = host_reference()
    result = measure()
    return result, (before + host_reference()) / 2


def test_engine_cells_per_second(benchmark, arch):
    plan = _plan(arch)

    def run_cold() -> int:
        executor = SerialExecutor(Machine(arch))
        executor.run(plan)
        return plan.size

    def timed_run() -> tuple[int, float]:
        start = time.perf_counter()
        cells = benchmark.pedantic(run_cold, rounds=1, iterations=1)
        return cells, time.perf_counter() - start

    (cells, elapsed), reference = _timed(timed_run)
    rate = cells / elapsed
    print(
        f"\n=== Execution engine: {cells} cells "
        f"({_KERNELS} kernels x 24 configurations, loop {LOOP_SIZE}) ===\n"
        f"serial throughput: {rate:,.0f} cells/sec"
    )
    record_rate("exec_engine", "cold_cells_per_sec", rate, reference)
    # The engine veneer must stay thin: the evaluation engine under it
    # manages hundreds of cells/sec, and plan/expansion bookkeeping
    # must not eat that.
    assert rate > host_floor(100, reference)


def test_vector_plan_throughput(arch):
    """Fused plane vs the scalar oracle on a campaign-scale plan.

    Both paths run the identical plan through cold machines; the
    oracle *is* the per-cell scalar walk the plane replaced, so the
    ratio is the plane's like-for-like speedup.  Results must agree
    bit for bit.
    """
    plan = _plan(arch, _PLAN_KERNELS)

    fast = SerialExecutor(Machine(arch)).run(plan)
    reference = SerialExecutor(OracleMachine(arch)).run(plan)
    assert fast == reference  # bit-identical at benchmark scale too

    vector_rate, vector_host = _timed(lambda: _best_rate(plan, arch))
    scalar_rate = _best_rate(plan, arch, OracleMachine)
    speedup = vector_rate / scalar_rate

    # Steady state: a resident executor re-running the plan replays the
    # plan-cached fused program (compilation fully amortized) -- the
    # campaign-loop regime, where the same plan object is re-executed
    # against a warm machine.  Best-of-8 absorbs scheduler noise.
    resident = SerialExecutor(Machine(arch))
    assert resident.run(plan) == reference  # compile + cache the program

    def best_replay() -> float:
        elapsed = float("inf")
        for _ in range(8):
            start = time.perf_counter()
            resident.run(plan)
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed

    fused_elapsed, fused_host = _timed(best_replay)
    fused_rate = plan.size / fused_elapsed

    print(
        f"\n=== Vector plane: {plan.size} cells "
        f"({_PLAN_KERNELS} kernels x 24 configurations, loop {LOOP_SIZE}) ===\n"
        f"fused (cold): {vector_rate:,.0f} cells/sec, "
        f"scalar oracle: {scalar_rate:,.0f} cells/sec -> "
        f"{speedup:.1f}x speedup\n"
        f"fused steady state (plan-cached program): "
        f"{fused_rate:,.0f} cells/sec "
        f"(host reference {fused_host * 1e3:.1f} ms)"
    )
    record_rate("exec_engine", "vector_cells_per_sec", vector_rate, vector_host)
    record_rate("exec_engine", "fused_cells_per_sec", fused_rate, fused_host)
    record_result(
        "exec_engine",
        scalar_cells_per_sec=round(scalar_rate),
        vector_speedup=round(speedup, 2),
    )
    # The pinned perf-smoke floors, on the nominal host (CI runs this
    # on shared runners, so the absolute floors are conservative).
    assert vector_rate > host_floor(30_000, vector_host)
    # Like-for-like: the fused plane must stay well ahead of the
    # scalar walk (typically 5-7x; the floor below absorbs runner
    # noise, the recorded number tracks the real trajectory).
    assert speedup >= 4.0
    # The headline fused-program gate: half a million measurement
    # cells per second once compilation is amortized.
    assert fused_rate >= host_floor(500_000, fused_host)


def _best_cells_rates(plan, arch, machine_classes, rounds: int = 5) -> list:
    """Best-of-N ``run_cells`` passes on cold machines, cells/second,
    one rate per machine class.  The classes take turns within every
    round, so a host phase slows both sides of a ratio alike."""
    best = [float("inf")] * len(machine_classes)
    for _ in range(rounds):
        for position, machine_cls in enumerate(machine_classes):
            machine = machine_cls(arch)
            start = time.perf_counter()
            machine.run_cells(plan.cells)
            best[position] = min(
                best[position], time.perf_counter() - start
            )
    return [plan.size / elapsed for elapsed in best]


def test_protocol_and_placement_throughput(arch):
    """The sweep's SPEC and mix-placement cells, fused vs the oracle.

    ``repro sweep`` measures the 28 SPEC proxies (protocol workloads)
    and the 4 mix placements across every configuration x p-state
    point.  Each plan runs through ``Machine.run_cells`` on cold
    machines, fused and on the scalar oracle in alternating rounds;
    results must agree bit for bit.  Mixed-kernel cores pay their
    contention solve once per cold machine on both paths.
    """
    chip = arch.chip
    swept = sweep_configs(
        standard_configurations(chip.max_cores, chip.smt_modes()),
        standard_pstates(),
    )
    mixes = mix_scenarios()
    plans = {
        "spec": ExperimentPlan.cross(
            spec_cpu2006(), swept, duration=_DURATION
        ),
        "placement": ExperimentPlan(
            PlanCell(mix.placement(config), config, _DURATION)
            for config in swept
            for mix in mixes
        ),
    }
    lines = []
    ratios = {}
    for kind, plan in plans.items():
        fused = Machine(arch).run_cells(plan.cells)
        assert fused == OracleMachine(arch).run_cells(plan.cells)
        fused_rate, oracle_rate = _best_cells_rates(
            plan, arch, (Machine, OracleMachine)
        )
        ratios[kind] = fused_rate / oracle_rate
        lines.append(
            f"{kind:>9} ({plan.size} cells): fused {fused_rate:,.0f} "
            f"cells/sec, oracle {oracle_rate:,.0f} cells/sec -> "
            f"{ratios[kind]:.1f}x (aim 20x)"
        )
        record_result(
            "exec_engine",
            **{
                f"{kind}_fused_cells_per_sec": round(fused_rate),
                f"{kind}_oracle_cells_per_sec": round(oracle_rate),
                f"{kind}_fused_speedup": round(ratios[kind], 2),
            },
        )
    print("\n=== Protocol and placement cells ===\n" + "\n".join(lines))
    assert ratios["spec"] >= 5.0
    # A cold machine solves each distinct mixed-kernel core's
    # contention bisection once, in scalar Python, on both paths (8
    # solves of about 1 ms for this plan); that shared fixed cost caps
    # the placement ratio well below the SPEC one (1.7-2.2x measured).
    assert ratios["placement"] >= 1.25


def test_plan_build_throughput(arch):
    """Columnar plan building vs the row builder it replaced.

    On the same inputs, times building the 180-kernel x 96-point
    stressmark cross (24 configurations x 4 p-states, the perfbench
    sweep's kernel plan) and a campaign-shaped union of three crosses
    (every kernel on the three step configurations, then each half of
    the kernels across the 24 configurations, so the step cells repeat)
    through :class:`ExperimentPlan` and through the row builder kept
    in ``tests/oracle/plans.py``.  The cross must build at least 10x
    faster per cell.
    """
    chip = arch.chip
    kernels = [
        build_stressmark(arch, sequence, LOOP_SIZE)
        for sequence in covering_sequences(_CANDIDATES)[:180]
    ]
    configs = standard_configurations(chip.max_cores, chip.smt_modes())
    swept = sweep_configs(configs, standard_pstates()[:4])
    steps = [MachineConfig(chip.max_cores, smt) for smt in chip.smt_modes()]
    blocks = [(kernels, steps), (kernels[:90], configs), (kernels[90:], configs)]
    builders = {
        "cross": (
            lambda: ExperimentPlan.cross(kernels, swept, duration=_DURATION),
            lambda: oracle_plans.ExperimentPlan.cross(
                kernels, swept, duration=_DURATION
            ),
        ),
        "union": (
            lambda: ExperimentPlan.crosses(blocks, _DURATION),
            lambda: oracle_plans.ExperimentPlan(
                oracle_plans.PlanCell(kernel, config, _DURATION)
                for block_kernels, block_configs in blocks
                for config in block_configs
                for kernel in block_kernels
            ),
        ),
    }

    def best_us_per_cell(build, rounds: int) -> float:
        elapsed = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            plan = build()
            elapsed = min(elapsed, time.perf_counter() - start)
        return elapsed * 1e6 / plan.requested

    lines = []
    ratios = {}
    for kind, (columnar, rows) in builders.items():
        plan, reference = columnar(), rows()
        assert plan.describe() == reference.describe()
        assert plan.expand(range(plan.size)) == reference.expand(
            range(reference.size)
        )
        fast = best_us_per_cell(columnar, 7)
        slow = best_us_per_cell(rows, 3)
        ratios[kind] = slow / fast
        lines.append(
            f"{kind:>5} ({plan.requested} cells, {plan.size} unique): "
            f"{fast:.3f} us/cell, row builder {slow:.3f} us/cell -> "
            f"{ratios[kind]:.1f}x"
        )
        prefix = "plan_build" if kind == "cross" else "plan_union"
        record_result(
            "exec_engine",
            **{
                f"{prefix}_us_per_cell": round(fast, 4),
                f"{prefix}_row_builder_us_per_cell": round(slow, 3),
                f"{prefix}_speedup": round(ratios[kind], 1),
            },
        )
    print("\n=== Plan building ===\n" + "\n".join(lines))
    # ROADMAP item 3's gate: at least 10x per cell on the cross.
    assert ratios["cross"] >= 10.0


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
    """The run ledger must stay invisible next to measurement cost:
    each run writes its manifest, a ``running`` record and a final
    record (flock'd appends in the tens-of-microseconds range), and a
    full replay of a busy store's history stays well under a second.
    Loose gates -- this documents the envelope, not a razor's edge."""
    from repro.exec.journal import RunJournal
    from repro.exec.registry import RunRegistry

    ledger = RunRegistry(tmp_path)
    runs = 500
    keys = [f"{index:032x}" for index in range(8)]
    start = time.perf_counter()
    for index in range(runs):
        journal = RunJournal(ledger, f"{index:024x}")
        journal.start(keys, "bench plan", arch="POWER7", seed=0)
        journal.complete(8, warm=0)
    record_elapsed = time.perf_counter() - start
    per_record_us = record_elapsed / (2 * runs) * 1e6

    start = time.perf_counter()
    replayed = RunRegistry(tmp_path)
    replay_elapsed = time.perf_counter() - start
    assert len(replayed) == runs and replayed.skipped == 0

    start = time.perf_counter()
    dropped = ledger.compact()
    compact_elapsed = time.perf_counter() - start
    assert dropped == runs  # two lines per run collapse to one

    print(
        f"\nledger: {per_record_us:.0f} us/record (manifest, append+flock), "
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


def _spawn_replica(store=None) -> tuple[subprocess.Popen, str]:
    """One ``repro serve`` subprocess on an ephemeral port, over
    ``store`` if given."""
    store_args = ["--store", str(store)] if store is not None else []
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *store_args],
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


def test_remote_warm_throughput(arch, tmp_path):
    """Warm-serve ceiling over a real socket: store + intern.

    One ``repro serve`` subprocess over a store; the first campaign
    populates it, the timed re-runs are pure warm serves -- wire v2
    bodies, interned plan rebuild, store hits -- and ``/stats`` shows
    they measured nothing.  The floor is deliberately conservative (CI
    runners are noisy); the recorded number is the one to watch.
    """
    from repro.exec import RemoteExecutor, ServiceClient

    plan = _plan(arch, kernels=96)
    process, url = _spawn_replica(tmp_path / "store")
    try:
        start = time.perf_counter()
        first = RemoteExecutor(url).run(plan)
        cold_elapsed = time.perf_counter() - start
        client = ServiceClient(url)
        measured = client.stats()["service"]["measured_cells"]
        best = float("inf")
        before = host_reference()
        for _ in range(3):
            executor = RemoteExecutor(url)
            start = time.perf_counter()
            warm = executor.run(plan)
            best = min(best, time.perf_counter() - start)
        reference = (before + host_reference()) / 2
        assert warm == first  # warm serves are bit-identical
        # The timed rounds were served from the store.
        assert client.stats()["service"]["measured_cells"] == measured
    finally:
        process.kill()
        process.wait()

    rate = plan.size / best
    print(
        f"\n=== Remote warm serve: {plan.size} cells over one replica ===\n"
        f"cold campaign: {cold_elapsed * 1e3:.0f} ms, "
        f"warm re-serve: {best * 1e3:.0f} ms -> {rate:,.0f} cells/sec"
    )
    record_rate("exec_engine", "remote_warm_cells_per_sec", rate, reference)
    record_result(
        "exec_engine", remote_cold_campaign_ms=round(cold_elapsed * 1e3, 1)
    )
    # Conservative floor on the nominal host; see BENCH_results.json.
    assert rate >= host_floor(500, reference)


#: Two-client bench: kernels per client plan, timed rounds per case.
_PAIR_KERNELS = 8
_PAIR_ROUNDS = 5


def test_two_clients_on_overlapping_plans(arch, tmp_path):
    """Two concurrent clients on overlapping plans: the pair's wall.

    Each client submits 8 stressmark kernels x the 24 standard
    configurations through its own ``RemoteExecutor``, both at once.
    At half overlap the two plans share 4 kernels, at full overlap all
    8; each case runs against one replica, with a store and without.
    Every round sends kernels no earlier request named, so each round
    starts cold.  Each client must equal a one-shot ``SerialExecutor``
    and, with a store, the service must measure each distinct cell
    once.  Records each case's median wall (no floor).  It drives only
    the public client API, so it times any version of the service.
    """
    from repro.exec import RemoteExecutor, ServiceClient

    first = 0  # the next stressmark sequence no request has named
    walls: dict[str, float] = {}
    for stored in (True, False):
        for overlap, shift in (("half", _PAIR_KERNELS // 2), ("full", 0)):
            case = f"{'store' if stored else 'storeless'}_{overlap}"
            process, url = _spawn_replica(
                tmp_path / case if stored else None
            )
            try:
                client = ServiceClient(url)
                # Engine build and first-request costs stay untimed.
                RemoteExecutor(url).run(_plan(arch, 1, first))
                first += 1
                samples, measured = [], []
                for _ in range(_PAIR_ROUNDS):
                    plans = [
                        _plan(arch, _PAIR_KERNELS, first),
                        _plan(arch, _PAIR_KERNELS, first + shift),
                    ]
                    first += _PAIR_KERNELS + shift
                    results: list = [None, None]

                    def submit(number: int) -> None:
                        results[number] = RemoteExecutor(url).run(
                            plans[number]
                        )

                    threads = [
                        threading.Thread(target=submit, args=(number,))
                        for number in range(2)
                    ]
                    before = client.stats()["service"]["measured_cells"]
                    start = time.perf_counter()
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                    samples.append(time.perf_counter() - start)
                    after = client.stats()["service"]["measured_cells"]
                    measured.append(after - before)
                    for plan, result in zip(plans, results):
                        local = SerialExecutor(Machine(arch)).run(plan)
                        assert result == local
                    if stored:
                        distinct = {c for plan in plans for c in plan.cells}
                        assert measured[-1] == len(distinct)
            finally:
                process.kill()
                process.wait()
            walls[case] = statistics.median(samples)
            print(
                f"\ntwo clients, {case}: median wall "
                f"{walls[case] * 1e3:.0f} ms over {_PAIR_ROUNDS} rounds, "
                f"cells measured per round {measured}"
            )
    record_result(
        "exec_engine",
        **{
            f"two_client_{case}_wall_s": round(wall, 4)
            for case, wall in walls.items()
        },
    )
