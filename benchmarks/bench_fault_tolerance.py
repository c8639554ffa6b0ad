"""Fault-tolerance overhead: what the hardened engine costs when
nothing goes wrong, and what recovery costs when everything does.

Three numbers (recorded in ``BENCH_results.json``):

* **clean-path overhead** -- the watchdog/report plumbing must be
  nearly free when no fault plan is armed: the apply_async+watchdog
  harvest loop replaces the old ``pool.imap`` walk, and this pins its
  cost on a fault-free parallel campaign (asserted bit-identical to
  serial, reported as wall time for trend tracking);
* **crash-recovery wall time** -- the same plan with every chunk's
  first worker attempt crashing (``crash:1``): one pool respawn wave,
  every chunk re-measured, still bit-identical.  The ratio to the
  clean run is the price of a worst-case single respawn wave;
* **degraded-mode throughput** -- cells/second when chunks exhaust
  their retries and fall back to in-process per-cell execution (the
  serial last resort under an unbounded crash fault).
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    LOOP_SIZE,
    host_floor,
    host_reference,
    record_rate,
    record_result,
)
from repro.exec import (
    ExperimentPlan,
    ParallelExecutor,
    SerialExecutor,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.sim import Machine
from repro.sim.config import standard_configurations
from repro.stressmark.search import build_stressmark, covering_sequences

_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
_KERNELS = 12
_DURATION = 1.0


def _plan(arch) -> ExperimentPlan:
    sequences = covering_sequences(_CANDIDATES)[:_KERNELS]
    built = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]
    configs = standard_configurations(
        arch.chip.max_cores, arch.chip.smt_modes()
    )
    return ExperimentPlan.cross(built, configs, duration=_DURATION)


def test_fault_tolerance_overhead_and_recovery(arch):
    plan = _plan(arch)
    serial = SerialExecutor(Machine(arch)).run(plan)

    # Clean path: no fault plan armed, watchdog harvest loop active.
    with ParallelExecutor(Machine(arch), workers=4) as executor:
        start = time.perf_counter()
        clean = executor.execute(plan)
        clean_elapsed = time.perf_counter() - start
    assert clean.ok and not clean.fault_counters
    assert list(clean) == serial

    # Crash wave: every chunk's first worker attempt dies; one respawn
    # wave re-measures everything, bit-identically.
    with faults.injected(FaultPlan(seed=7).arm("crash")):
        with ParallelExecutor(Machine(arch), workers=4) as executor:
            start = time.perf_counter()
            crashed = executor.execute(plan)
            crash_elapsed = time.perf_counter() - start
    assert crashed.ok
    assert list(crashed) == serial
    assert crashed.fault_counters["worker_respawns"] >= 1

    # Degraded mode: workers never succeed, every cell re-executes
    # in-process serially -- the engine's floor, not its normal gait.
    with faults.injected(FaultPlan(seed=7).arm("crash", times=10_000)):
        with ParallelExecutor(
            Machine(arch), workers=4, retries=0
        ) as executor:
            before = host_reference()
            start = time.perf_counter()
            degraded = executor.execute(plan)
            degraded_elapsed = time.perf_counter() - start
            reference = (before + host_reference()) / 2
    assert degraded.ok
    assert list(degraded) == serial
    assert degraded.fault_counters["degraded_cells"] == plan.size
    degraded_rate = plan.size / degraded_elapsed

    recovery_ratio = crash_elapsed / clean_elapsed
    print(
        f"\n=== Fault tolerance: {plan.size} cells "
        f"({_KERNELS} kernels x 24 configurations) ===\n"
        f"clean parallel: {clean_elapsed * 1e3:.0f} ms, "
        f"crash wave + respawn: {crash_elapsed * 1e3:.0f} ms "
        f"({recovery_ratio:.1f}x), "
        f"degraded serial fallback: {degraded_rate:,.0f} cells/sec"
    )
    record_result(
        "fault_tolerance",
        clean_parallel_ms=round(clean_elapsed * 1e3),
        crash_recovery_ms=round(crash_elapsed * 1e3),
        crash_recovery_ratio=round(recovery_ratio, 2),
    )
    record_rate(
        "fault_tolerance", "degraded_cells_per_sec", degraded_rate, reference
    )
    # Recovery is bounded work: one respawn wave must not blow the
    # campaign up by an order of magnitude (deterministic backoff is
    # capped at 2 s; the floor absorbs runner noise).
    assert recovery_ratio < 25.0
    # The degraded path is still a working measurement engine.
    assert degraded_rate > host_floor(20, reference)
