"""Heterogeneous-plan throughput: big.LITTLE cells/second.

The perf-gate companion to ``bench_exec_engine``: the same
campaign-scale kernel set swept across a big:little topology *ladder*
(plus per-cluster-DVFS shapes) instead of the homogeneous CMP-SMT
grid.  Asserts

* fused-vs-oracle **bit-identity** on the heterogeneous plan -- every
  topology cell's per-cluster tensor pass must reproduce the scalar
  topology walk of the test oracle (``tests/oracle``) exactly:
  counters, powers and noise draws;
* a heterogeneous cells/second floor on the nominal host (rescaled by
  the host-speed reference timed next to it), and a like-for-like
  speedup over the oracle;

and records the headline ``biglittle`` numbers in
``BENCH_results.json``.
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
from repro.sim import Machine, parse_topology, topology_ladder
from repro.stressmark.search import build_stressmark, covering_sequences
from tests.oracle import OracleMachine

_CANDIDATES = ("mulldo", "lxvw4x", "xvnmsubmdp")
#: Campaign-scale kernel count (matches the homogeneous vector bench).
_PLAN_KERNELS = 96
_DURATION = 1.0

#: The topology axis: the full ratio ladder at SMT-1 and SMT-2 plus
#: per-cluster-DVFS shapes, 14 heterogeneous chips per kernel.
_TOPOLOGIES = (
    *topology_ladder(8, step=2),
    *topology_ladder(8, step=2, smt=2),
    parse_topology("4big-2@p2+4little-2"),
    parse_topology("4big-4@turbo+4little-2@p3"),
    parse_topology("6big@p2+2little@p2"),
    parse_topology("2big-4+6little-2@p2"),
)


def _plan(arch, kernels: int = _PLAN_KERNELS) -> ExperimentPlan:
    sequences = covering_sequences(_CANDIDATES)[:kernels]
    built = [
        build_stressmark(arch, sequence, LOOP_SIZE) for sequence in sequences
    ]
    return ExperimentPlan.cross(built, _TOPOLOGIES, duration=_DURATION)


def _best_rate(plan, arch, machine_cls, rounds: int = 3) -> float:
    """Best-of-N cold executor runs, cells/second."""
    best = None
    for _ in range(rounds):
        executor = SerialExecutor(machine_cls(arch))
        start = time.perf_counter()
        executor.run(plan)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return plan.size / best


def test_heterogeneous_plan_throughput(arch):
    """Fused plane vs the oracle on a big.LITTLE topology-ladder plan."""
    plan = _plan(arch)

    fast = SerialExecutor(Machine(arch)).run(plan)
    reference = SerialExecutor(OracleMachine(arch)).run(plan)
    # The acceptance bar: per-cluster tensor passes reproduce the
    # scalar topology walk bit for bit, heterogeneous shapes included.
    assert fast == reference

    before = host_reference()
    vector_rate = _best_rate(plan, arch, Machine)
    host = (before + host_reference()) / 2
    scalar_rate = _best_rate(plan, arch, OracleMachine)
    speedup = vector_rate / scalar_rate
    print(
        f"\n=== big.LITTLE plane: {plan.size} cells "
        f"({_PLAN_KERNELS} kernels x {len(_TOPOLOGIES)} topologies, "
        f"loop {LOOP_SIZE}) ===\n"
        f"fused: {vector_rate:,.0f} cells/sec, "
        f"scalar oracle: {scalar_rate:,.0f} cells/sec -> "
        f"{speedup:.1f}x speedup"
    )
    record_rate("biglittle", "vector_cells_per_sec", vector_rate, host)
    record_result(
        "biglittle",
        scalar_cells_per_sec=round(scalar_rate),
        vector_speedup=round(speedup, 2),
        topologies=len(_TOPOLOGIES),
    )
    # Conservative shared-runner floors; local hardware measures far
    # higher (the recorded numbers track the real trajectory).
    assert vector_rate > host_floor(10_000, host)
    assert speedup >= 2.5
