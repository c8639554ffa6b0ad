"""Big-vs-little energy-per-instruction crossover sweep.

Sweeps one compute-bound and one memory-bound stream across the
big:little ratio ladder of an 8-core budget and reports chip
energy-per-instruction (sensor power x window / committed
instructions -- counter-only arithmetic, the quantity cross-
architecture campaigns such as freqbench ladder over).

The crossover this prints is the heterogeneity story in one table:

* the *compute* stream commits ~5x more work per thread on the wide
  3 GHz big core, so big shapes amortize the chip's static power and
  win EPI decisively;
* the *memory* stream is DRAM-latency-bound -- equally fast on either
  core class (the little class's hierarchy costs the same
  nanoseconds) -- so every big core it occupies burns energy for no
  throughput and the all-little shape wins.

A second table re-runs the ladder with the big cluster down-volted to
``p2``: per-cluster DVFS narrows the gap from both sides.

Run:  python examples/biglittle_sweep.py
"""

from repro.march import get_architecture
from repro.measure.measurement import energy_per_instruction_nj
from repro.sim import Machine, topology_ladder
from repro.sim.pstate import get_pstate
from repro.workloads.mixes import hi_ilp_kernel, memory_bound_kernel

machine = Machine(get_architecture("POWER7"))

DURATION_S = 1.0
LADDER = topology_ladder(8, step=2)
WORKLOADS = {
    "compute (hi-ILP int)": hi_ilp_kernel(256),
    "memory (DRAM loads)": memory_bound_kernel(256),
}


def epi_table(title, topologies):
    print(f"\n=== {title} ===")
    print(f"{'topology':>20s}" + "".join(f"{name:>24s}" for name in WORKLOADS))
    for topology in topologies:
        cells = []
        for kernel in WORKLOADS.values():
            measurement = machine.run(kernel, topology, DURATION_S)
            cells.append(energy_per_instruction_nj(measurement))
        row = "".join(f"{epi:21.2f} nJ" for epi in cells)
        print(f"{topology.label:>20s}{row}")


epi_table("chip EPI across the big:little ladder", LADDER)

# Per-cluster DVFS: only the big cluster moves to p2; the little
# cluster's clock, counters and noise are untouched.
p2 = get_pstate("p2")
DOWNVOLTED = [
    topology.with_cluster_p_states(
        [p2 if cluster.core_class is None else cluster.p_state
         for cluster in topology.clusters]
    )
    for topology in LADDER
]
epi_table("same ladder, big cluster down-volted to p2", DOWNVOLTED)

best = {}
for name, kernel in WORKLOADS.items():
    scored = [
        (
            energy_per_instruction_nj(
                machine.run(kernel, topology, DURATION_S)
            ),
            topology.label,
        )
        for topology in LADDER
    ]
    best[name] = min(scored)
print("\nmost energy-efficient shape per workload:")
for name, (epi, label) in best.items():
    print(f"  {name:22s} -> {label:>12s} ({epi:.2f} nJ/instruction)")
