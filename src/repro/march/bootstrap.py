"""Automatic micro-architecture bootstrap (paper section 2.1.2).

Given (a) the functional units and their counters, (b) the IPC counter
formula, and (c) the ISA, the bootstrap derives per-instruction dynamic
properties *by measurement*, with no human intervention:

* a 4K endless loop of the instruction with a dependency chain between
  consecutive instances yields the **latency** (IPC of a serialized
  chain is ``1 / latency``);
* the same loop without dependencies yields the sustained
  **throughput** and, from the per-unit counters, the **functional
  units stressed**;
* reading the power sensors during the no-dependency run yields the
  **EPI** and **average sustained power**.

EPI is referenced against a nop-loop run on the same configuration,
which cancels the workload-independent, uncore, and CMP-static power.
The reference loop's own dispatch energy biases the estimate down by
``rate_nop / rate_ins`` times the (very small) per-nop energy; on this
substrate that is within sensor noise, and it affects every
instruction's estimate in the same direction -- taxonomy *orderings*
are unaffected, matching how the paper's measured EPIs should be read.

Register, immediate and memory values are randomized, minimizing data
switching effects so instructions compare fairly; memory instructions
run L1-resident (paper section 5 measures EPI at full locality).

The benchmarks build through the kernel memo of the executor's store
(:meth:`~repro.core.synthesizer.Synthesizer.kernel`): they depend on
the architecture, loop size and synthesis seed, not on the machine, so
a warm store serves a re-run -- or a run on another machine seed --
without synthesizing any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.passes.distribution import InstructionDistribution
from repro.core.passes.ilp import DependencyDistance
from repro.core.passes.init_values import InitImmediates, InitRegisters
from repro.core.passes.memory import MemoryModel
from repro.core.passes.skeleton import EndlessLoopSkeleton
from repro.core.synthesizer import Synthesizer, build_kernels, kernel_memo
from repro.errors import MicroProbeError
from repro.march.definition import MicroArchitecture
from repro.measure.measurement import Measurement
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel

#: Fraction of per-instruction unit ops below which a unit does not
#: count as "stressed" (filters counter noise).
UNIT_STRESS_THRESHOLD = 0.05


@dataclass(frozen=True)
class BootstrapRecord:
    """Measured dynamic properties of one instruction."""

    mnemonic: str
    latency: float
    throughput_ipc: float
    units: tuple[str, ...]
    epi_nj: float
    avg_power_w: float


class Bootstrapper:
    """Runs the automatic bootstrap against a machine."""

    def __init__(
        self,
        arch: MicroArchitecture,
        machine,
        loop_size: int = 4096,
        config: MachineConfig | None = None,
        duration: float = 10.0,
        seed: int = 0,
        executor=None,
    ) -> None:
        self.arch = arch
        self.machine = machine
        self.loop_size = loop_size
        # The paper's taxonomy configuration: 8 cores, 1-way SMT.
        self.config = config or MachineConfig(
            cores=arch.chip.max_cores, smt=1
        )
        self.duration = duration
        self.seed = seed
        # Every measurement routes through the execution engine, and
        # every build through its store's kernel memo, so a store-backed
        # executor serves a warm re-run of the whole-ISA bootstrap from
        # disk.  None resolves the environment's executor
        # (``REPRO_STORE``) before the first build: ``_build`` alone
        # needs no machine.
        self.executor = executor
        self._reference_power: float | None = None

    # -- micro-benchmark construction ---------------------------------------

    def _synthesizer(self, prefix: str) -> Synthesizer:
        return Synthesizer(
            self.arch, seed=self.seed, name_prefix=prefix, validate=True
        )

    def _build(self, mnemonic: str, chained: bool) -> Synthesizer:
        """The synthesizer of one of ``mnemonic``'s two benchmarks."""
        synth = self._synthesizer(
            f"boot-{mnemonic}-{'chain' if chained else 'free'}"
        )
        synth.add_pass(EndlessLoopSkeleton(self.loop_size))
        synth.add_pass(InstructionDistribution([mnemonic]))
        definition = self.arch.isa.instruction(mnemonic)
        if definition.is_memory and not definition.is_prefetch:
            synth.add_pass(MemoryModel({self.arch.caches[0].name: 1.0}))
        synth.add_pass(InitRegisters("random"))
        synth.add_pass(InitImmediates("random"))
        synth.add_pass(
            DependencyDistance("chain" if chained else "none")
        )
        return synth

    def _executor(self):
        """The measuring executor, resolved on first use."""
        if self.executor is None:
            from repro.exec.executors import default_executor

            self.executor = default_executor(self.machine)
        return self.executor

    def _kernels(self, specs: list[tuple[str, bool]]) -> list[Kernel]:
        """``(mnemonic, chained)`` benchmarks, through the store's memo."""
        store = getattr(self._executor(), "store", None)
        with kernel_memo(store, self.arch) as memo:
            return build_kernels([self._build(*spec) for spec in specs], memo)

    def _measure_batch(self, kernels) -> list[Measurement]:
        """Measure bootstrap kernels on the taxonomy configuration."""
        from repro.exec.plan import ExperimentPlan

        plan = ExperimentPlan.cross(
            kernels, [self.config], duration=self.duration
        )
        return self._executor().run(plan)

    def _reference(self) -> float:
        """Mean power of the nop reference loop (cancels statics)."""
        if self._reference_power is None:
            kernels = self._kernels([("nop", False)])
            self._reference_power = self._measure_batch(kernels)[0].mean_power
        return self._reference_power

    # -- derivations ----------------------------------------------------------

    def _ipc(self, measurement: Measurement) -> float:
        return self.arch.ipc(measurement.thread_counters[0])

    def _units_stressed(self, measurement: Measurement) -> tuple[str, ...]:
        counters = measurement.thread_counters[0]
        instructions = counters.get("PM_RUN_INST_CMPL", 0.0)
        if instructions <= 0:
            return ()
        stressed = []
        for unit in self.arch.units.values():
            ops = counters.get(unit.counter, 0.0)
            if ops / instructions >= UNIT_STRESS_THRESHOLD:
                stressed.append(unit.name)
        return tuple(stressed)

    def _require_probeable(self, mnemonic: str) -> None:
        """Raise for instructions the bootstrap cannot probe."""
        definition = self.arch.isa.instruction(mnemonic)
        if definition.is_branch or definition.is_nop:
            raise MicroProbeError(
                f"bootstrap cannot probe {mnemonic!r} "
                "(control-flow/reference instruction)"
            )

    def bootstrap_instruction(self, mnemonic: str) -> BootstrapRecord:
        """Derive the dynamic properties of one instruction.

        Raises:
            MicroProbeError: For instructions the bootstrap cannot probe
                (branches would destroy the loop structure; nop is the
                reference itself).
        """
        self._require_probeable(mnemonic)
        chained, free = self._kernels([(mnemonic, True), (mnemonic, False)])
        return self._derive(
            mnemonic,
            self._measure_batch([chained])[0],
            self._measure_batch([free])[0],
        )

    def _derive(
        self, mnemonic: str, chained: Measurement, free: Measurement
    ) -> BootstrapRecord:
        """Reduce the two bootstrap measurements to a record."""
        chain_ipc = self._ipc(chained)
        throughput = self._ipc(free)
        latency = 1.0 / chain_ipc if chain_ipc > 0 else float("inf")

        instruction_rate = (
            free.total_counters().get("PM_RUN_INST_CMPL", 0.0)
            / free.duration
        )
        dynamic_power = free.mean_power - self._reference()
        epi = (
            dynamic_power / instruction_rate * 1e9
            if instruction_rate > 0
            else 0.0
        )
        return BootstrapRecord(
            mnemonic=mnemonic,
            latency=latency,
            throughput_ipc=throughput,
            units=self._units_stressed(free),
            epi_nj=epi,
            avg_power_w=dynamic_power,
        )

    def run(
        self, mnemonics: list[str] | None = None, write_back: bool = True
    ) -> dict[str, BootstrapRecord]:
        """Bootstrap a set of instructions (default: every probeable one).

        With ``write_back``, measured EPI and average power are stored
        into the architecture's property database, completing the
        partial text-file definition automatically.

        The two benchmarks of every instruction are built (or loaded)
        up front and measured as one plan per benchmark kind, so the
        whole-ISA bootstrap drives the machine's evaluation engine
        instead of several hundred independent ``run`` round-trips.
        """
        if mnemonics is None:
            mnemonics = [
                ins.mnemonic for ins in self.arch.isa
                if not ins.is_branch and not ins.is_nop
            ]
        for mnemonic in mnemonics:
            self._require_probeable(mnemonic)
        kernels = self._kernels(
            [(m, True) for m in mnemonics] + [(m, False) for m in mnemonics]
        )
        chained_batch = self._measure_batch(kernels[: len(mnemonics)])
        free_batch = self._measure_batch(kernels[len(mnemonics) :])
        records = {}
        for mnemonic, chained, free in zip(
            mnemonics, chained_batch, free_batch
        ):
            record = self._derive(mnemonic, chained, free)
            records[mnemonic] = record
            if write_back:
                props = self.arch.props(mnemonic)
                self.arch.properties.update(
                    props.with_bootstrap(
                        epi=record.epi_nj, avg_power=record.avg_power_w
                    )
                )
        return records
