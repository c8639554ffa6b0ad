"""Named heterogeneous co-run scenarios (mixes).

The paper deploys one micro-benchmark per hardware thread; real
consolidation workloads co-schedule *dissimilar* work on one core's
SMT resources.  Each :class:`MixScenario` here names a co-run pattern
with a known contention story, built from single-activity kernels the
steady-state engine summarizes in O(1) (every kernel declares period
1):

* ``ilp-vs-memory`` -- a high-ILP integer stream sharing a core with a
  main-memory-bound load stream: the classic SMT win, the compute
  thread soaks up the issue slots the stalled thread cannot use;
* ``vector-vs-scalar`` -- a VSU floating-point stream next to a scalar
  FXU multiply stream: little unit overlap, so both run near solo
  speed while heating different components;
* ``antagonist-lsu`` -- a load stream against a store stream, both
  hammering the LSU: maximal same-unit interference at equal demand;
* ``chain-vs-throughput`` -- a latency-bound dependency chain next to
  a dispatch-hungry stream: the chain is immune to SMT capacity
  sharing, the co-runner claims everything the chain leaves idle.

``scenario.placement(config)`` lays the mix out round-robin so every
enabled core co-schedules the same pattern; run it through
``Machine.run``/``run_many`` like any workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel, KernelInstruction
from repro.sim.placement import Placement

#: L1-resident address region for cache-friendly memory streams.
_L1_REGION_BASE = 0x2000_0000
_L1_REGION_BYTES = 4096
#: Stride for main-memory streams: far beyond any cache's reach.
_MEM_STRIDE = 1 << 16

#: Default loop-body length of the mix kernels.
DEFAULT_MIX_LOOP = 256


def _stream_kernel(
    name: str,
    mnemonic: str,
    loop_size: int,
    dep: int | None = None,
    level: str | None = None,
    entropy: float = 1.0,
) -> Kernel:
    """A single-activity endless loop with a period-1 fingerprint."""
    if level is None:
        addresses = [None] * loop_size
    elif level == "MEM":
        addresses = [
            _L1_REGION_BASE + index * _MEM_STRIDE for index in range(loop_size)
        ]
    else:
        addresses = [
            _L1_REGION_BASE + (index * 128) % _L1_REGION_BYTES
            for index in range(loop_size)
        ]
    return Kernel(
        name=name,
        instructions=tuple(
            KernelInstruction(
                mnemonic,
                dep_distance=dep,
                source_level=level,
                address=address,
            )
            for address in addresses
        ),
        operand_entropy=entropy,
        period=1,
    )


@dataclass(frozen=True)
class MixScenario:
    """One named co-run scenario.

    Attributes:
        name: Scenario identifier (becomes the placement name).
        description: The contention story being exercised.
        workloads: The co-runners, cycled across each core's SMT slots.
    """

    name: str
    description: str
    workloads: tuple[Kernel, ...]

    def placement(self, config: MachineConfig) -> Placement:
        """Lay the mix out round-robin over ``config``'s threads."""
        return Placement.round_robin(self.workloads, config, name=self.name)


def hi_ilp_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """Dependency-free integer stream: dispatch/unit hungry, high IPC."""
    return _stream_kernel(f"hi-ilp-{loop_size}", "addic", loop_size)


def memory_bound_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """Main-memory load stream: MSHR-bound, near-zero IPC."""
    return _stream_kernel(
        f"mem-bound-{loop_size}", "ld", loop_size, level="MEM"
    )


def vector_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """VSU fused-multiply-add stream (the Table 3 vector workhorse)."""
    return _stream_kernel(f"vector-{loop_size}", "xvmaddadp", loop_size)


def scalar_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """Scalar FXU multiply stream."""
    return _stream_kernel(f"scalar-{loop_size}", "mullw", loop_size)


def load_antagonist_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """L1-resident load stream: LSU pressure without misses."""
    return _stream_kernel(
        f"load-antagonist-{loop_size}", "lwz", loop_size, level="L1"
    )


def store_antagonist_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """L1-resident store stream: the load stream's LSU antagonist."""
    return _stream_kernel(
        f"store-antagonist-{loop_size}", "stfd", loop_size, level="L1"
    )


def latency_chain_kernel(loop_size: int = DEFAULT_MIX_LOOP) -> Kernel:
    """Serial floating-point dependency chain: latency-bound, SMT-immune."""
    return _stream_kernel(
        f"latency-chain-{loop_size}", "fadd", loop_size, dep=1
    )


def mix_scenarios(loop_size: int = DEFAULT_MIX_LOOP) -> tuple[MixScenario, ...]:
    """The named co-run scenarios, stable order."""
    return (
        MixScenario(
            name="ilp-vs-memory",
            description=(
                "high-ILP integer stream co-scheduled with a "
                "main-memory-bound load stream"
            ),
            workloads=(hi_ilp_kernel(loop_size), memory_bound_kernel(loop_size)),
        ),
        MixScenario(
            name="vector-vs-scalar",
            description=(
                "VSU floating-point stream co-scheduled with a scalar "
                "FXU multiply stream"
            ),
            workloads=(vector_kernel(loop_size), scalar_kernel(loop_size)),
        ),
        MixScenario(
            name="antagonist-lsu",
            description=(
                "L1-resident load and store streams contending for the "
                "same LSU pipes"
            ),
            workloads=(
                load_antagonist_kernel(loop_size),
                store_antagonist_kernel(loop_size),
            ),
        ),
        MixScenario(
            name="chain-vs-throughput",
            description=(
                "latency-bound dependency chain co-scheduled with a "
                "dispatch-hungry integer stream"
            ),
            workloads=(
                latency_chain_kernel(loop_size),
                hi_ilp_kernel(loop_size),
            ),
        ),
    )


def get_mix(name: str, loop_size: int = DEFAULT_MIX_LOOP) -> MixScenario:
    """Look up one scenario by name."""
    scenarios = {
        scenario.name: scenario for scenario in mix_scenarios(loop_size)
    }
    try:
        return scenarios[name]
    except KeyError:
        raise KeyError(
            f"unknown mix {name!r}; known: {', '.join(scenarios)}"
        ) from None
