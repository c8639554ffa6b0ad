"""Fault-tolerance overhead: what recovery costs when every batch fails.

Two numbers (recorded in ``BENCH_results.json``):

* **clean wall time** -- a fault-free store-less run of the plan,
  reported for trend tracking;
* **degraded-mode throughput** -- cells/second when a transient
  ``poison`` fails the plan's one batch and every cell re-executes
  in-process on its own, the few poisoned cells retrying once: the
  engine's last resort, asserted bit-identical to the clean run and
  above a host-rescaled floor.
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
from repro.exec import ExperimentPlan, SerialExecutor
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

    # Clean path: no fault plan armed.
    start = time.perf_counter()
    clean = SerialExecutor(Machine(arch)).execute(plan)
    clean_elapsed = time.perf_counter() - start
    assert clean.ok and not clean.fault_counters

    # Degraded mode: four of the 288 cells are poisoned once, which
    # fails the batch, so every cell re-executes in-process on its own
    # -- the engine's floor, not its normal gait.  (Poisoning every
    # cell would time the retry backoff, not the fallback.)
    poison = FaultPlan(seed=7).arm("poison", probability=0.02, times=1)
    with faults.injected(poison):
        executor = SerialExecutor(Machine(arch))
        before = host_reference()
        start = time.perf_counter()
        degraded = executor.execute(plan)
        degraded_elapsed = time.perf_counter() - start
        reference = (before + host_reference()) / 2
    assert degraded.ok
    assert list(degraded) == list(clean)
    assert degraded.fault_counters["degraded_cells"] == plan.size
    degraded_rate = plan.size / degraded_elapsed

    print(
        f"\n=== Fault tolerance: {plan.size} cells "
        f"({_KERNELS} kernels x 24 configurations) ===\n"
        f"clean: {clean_elapsed * 1e3:.0f} ms, "
        f"degraded cell-by-cell fallback: {degraded_rate:,.0f} cells/sec"
    )
    record_result("fault_tolerance", clean_ms=round(clean_elapsed * 1e3))
    record_rate(
        "fault_tolerance", "degraded_cells_per_sec", degraded_rate, reference
    )
    # The degraded path is still a working measurement engine.
    assert degraded_rate > host_floor(20, reference)
