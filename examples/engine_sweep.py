"""Execution-engine walkthrough: a store-backed SPEC sweep.

Demonstrates the plan -> executor -> store dataflow behind every
campaign: declare the cross product once, execute it, persist every
cell, then re-run the identical plan on a fresh machine and watch the
store serve it with zero machine invocations.

Run:  python examples/engine_sweep.py   (takes a few seconds)
"""

import logging
import tempfile
import time

from repro.exec import ExperimentPlan, ResultStore, RunRegistry, SerialExecutor
from repro.march import get_architecture
from repro.sim import Machine
from repro.sim.config import standard_configurations
from repro.workloads import spec_cpu2006

logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

arch = get_architecture("POWER7")
machine = Machine(arch)

# 1. Declare: the full SPEC proxy suite across the paper's 24-config
#    CMP/SMT sweep, one 2-second window each -- 672 measurement cells.
plan = ExperimentPlan.cross(
    spec_cpu2006(),
    standard_configurations(arch.chip.max_cores, arch.chip.smt_modes()),
    duration=2.0,
)
print(f"plan: {plan.describe()}")

with tempfile.TemporaryDirectory() as store_dir:
    store = ResultStore(store_dir)

    # 2. Execute: batched per configuration, persisted as it goes.
    start = time.perf_counter()
    cold = SerialExecutor(machine, store=store).run(plan)
    print(
        f"cold run: {len(cold)} measurements in "
        f"{time.perf_counter() - start:.2f}s ({len(store)} cells persisted)"
    )

    # 3. Re-run on a fresh machine: every cell is warm -- the machine
    #    is never touched, and the results are bit-identical.
    start = time.perf_counter()
    warm = SerialExecutor(Machine(arch), store=store).run(plan)
    print(
        f"warm run: {len(warm)} measurements in "
        f"{time.perf_counter() - start:.2f}s "
        f"({store.hits} served from the store)"
    )
    assert warm == cold, "store round trip must be bit-identical"

    # 4. The store's run ledger recorded both executions as one run id
    #    (the plan's content address): cold, then warm.
    (run,) = RunRegistry(store_dir).runs()
    print(f"ledger: run {run['run']} {run['state']}, {run['warm']} warm")

    hottest = max(cold, key=lambda measurement: measurement.mean_power)
    print(
        f"hottest cell: {hottest.workload_name} on "
        f"{hottest.config.label} at {hottest.mean_power:.1f} W"
    )
