"""Measurement and modeling campaign orchestration (paper section 4).

One object gathers everything the section-4 experiments need: the
Table 2 training measurements in the configurations each modeling step
requires, the SPEC proxy validation measurements across the full
CMP-SMT sweep, and the four fitted models (BU, TD_Micro, TD_Random,
TD_SPEC).  The benchmark harnesses and the integration tests all
consume this single entry point so the experiments stay consistent.

All data gathering is expressed as
:class:`~repro.exec.plan.ExperimentPlan` cross products and executed
through the campaign's executor: the default (environment-resolved)
executor measures in-process, and a store-backed one serves the
hundreds of suite x configuration cells of a warm re-run from disk.
Either way, the suite's kernel cells evaluate through the
machine's vectorized measurement plane (:mod:`repro.sim.vector`) --
whole sweeps as single tensor passes, bit-identical to the scalar
walk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exec.executors import default_executor
from repro.exec.plan import ExperimentPlan
from repro.measure.measurement import Measurement
from repro.power_model.bottom_up import BottomUpModel, BottomUpTrainer
from repro.power_model.top_down import TopDownModel, TopDownTrainer
from repro.power_model.training import (
    TrainingBenchmark,
    generate_micro_suite,
    generate_random_suite,
)
from repro.sim.config import MachineConfig, standard_configurations
from repro.sim.machine import Machine
from repro.sim.pstate import NOMINAL, PState
from repro.workloads.spec import spec_cpu2006

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executors import SerialExecutor

logger = logging.getLogger("repro.campaign")


@dataclass
class CampaignResult:
    """Everything the section-4 experiments consume."""

    bottom_up: BottomUpModel
    top_down: dict[str, TopDownModel]
    configs: tuple[MachineConfig, ...]
    spec_by_config: dict[MachineConfig, list[Measurement]] = field(
        default_factory=dict
    )
    idle: Measurement | None = None


class ModelingCampaign:
    """Runs the full section-4 data gathering and model fitting."""

    def __init__(
        self,
        machine: Machine | None = None,
        scale: float = 1.0,
        loop_size: int = 4096,
        duration: float = 10.0,
        seed: int = 0,
        p_states: tuple[PState, ...] = (NOMINAL,),
        executor: "SerialExecutor | None" = None,
    ) -> None:
        self.machine = machine if machine is not None else Machine()
        self.scale = scale
        self.loop_size = loop_size
        self.duration = duration
        self.seed = seed
        self.p_states = p_states
        self.executor = (
            executor if executor is not None else default_executor(self.machine)
        )
        arch = self.machine.arch
        # The validation sweep crosses the paper's CMP-SMT grid with the
        # requested operating points (24 -> 24 x |p_states| scenarios);
        # the nominal-only default reproduces the paper's sweep exactly.
        self.configs = standard_configurations(
            arch.chip.max_cores, arch.chip.smt_modes(), p_states
        )

    # -- data gathering -------------------------------------------------------

    def gather(self) -> dict:
        """Generate the suite and run every measurement the steps need."""
        arch = self.machine.arch
        # A store-backed executor's store doubles as the kernel memo:
        # a warm re-run loads the suite instead of synthesizing it.
        store = getattr(self.executor, "store", None)
        micro = generate_micro_suite(
            arch, self.loop_size, self.scale, self.seed, store
        )
        randoms = generate_random_suite(
            arch, self.loop_size, self.scale, self.seed, store
        )
        suite = micro + randoms
        logger.info(
            "training suite: %d micro + %d random benchmarks (scale %g, "
            "loop %d)",
            len(micro),
            len(randoms),
            self.scale,
            self.loop_size,
        )

        # Step 1/2 measurements run with one benchmark copy per thread
        # on all cores: per-event weights are configuration-independent
        # (threads are homogeneous) and the 8x dynamic activity lifts
        # the unit-power signal well above sensor noise.  The SMT steps
        # follow the chip's supported modes -- (1, 2, 4) on POWER7,
        # (1, 2) on the SMT-2 eco class -- so per-cluster campaigns on
        # narrower core classes stay feasible (the SMT-effect fit
        # degrades gracefully with fewer SMT-on points).
        cores = arch.chip.max_cores
        smt_modes = arch.chip.smt_modes()
        step_configs = [MachineConfig(cores, smt) for smt in smt_modes]

        # One plan for every gathering stage, requested stage by stage
        # (the step configurations, then the Random and micro sweeps),
        # each configuration-major.  The step configurations are also
        # sweep configurations; the plan measures, or serves from a
        # store, each shared cell once.  The executor batches the plan
        # through the machine's measurement plane.
        stages = (
            ([bench.kernel for bench in suite], step_configs),
            ([bench.kernel for bench in randoms], self.configs),
            ([bench.kernel for bench in micro], self.configs),
        )
        plan = ExperimentPlan.crosses(stages, self.duration)
        logger.info(
            "gathering step-1/2 and sweep measurements: %s", plan.describe()
        )
        measured = iter(self.executor.run(plan))
        # Per stage, one row of measurements per configuration.
        by_smt, random_grid, micro_grid = [
            [[next(measured) for _ in kernels] for _ in configs]
            for kernels, configs in stages
        ]
        by_mode = dict(zip(smt_modes, by_smt))
        return {
            "suite": suite,
            "suite_smt1": list(
                zip([bench.family for bench in suite], by_mode.get(1, []))
            ),
            "suite_smt2": by_mode.get(2, []),
            "suite_smt4": by_mode.get(4, []),
            # The sweeps kernel-major: each kernel's configurations in turn.
            "random_all": [m for row in zip(*random_grid) for m in row],
            "micro_all": [m for row in zip(*micro_grid) for m in row],
            "idle": self.machine.run_idle(duration=self.duration),
        }

    def gather_spec(self) -> dict[MachineConfig, list[Measurement]]:
        """SPEC proxy measurements across the full sweep."""
        suite = spec_cpu2006()
        logger.info(
            "gathering SPEC validation: %d proxies x %d configurations",
            len(suite),
            len(self.configs),
        )
        measurements = self.executor.run(
            ExperimentPlan.cross(suite, self.configs, duration=self.duration)
        )
        count = len(suite)
        return {
            config: measurements[index * count : (index + 1) * count]
            for index, config in enumerate(self.configs)
        }

    # -- model fitting ------------------------------------------------------------

    def run(self, sequential: bool = True) -> CampaignResult:
        """Gather data, fit all four models, measure SPEC validation."""
        data = self.gather()
        spec_by_config = self.gather_spec()

        logger.info("fitting bottom-up model")
        bottom_up = BottomUpTrainer(sequential=sequential).train(
            suite_smt1=data["suite_smt1"],
            suite_smt2=data["suite_smt2"],
            suite_smt4=data["suite_smt4"],
            random_all_configs=data["random_all"],
            idle=data["idle"],
        )

        td_trainer = TopDownTrainer()
        spec_flat = [
            measurement
            for measurements in spec_by_config.values()
            for measurement in measurements
        ]
        logger.info("fitting top-down models")
        top_down = {
            "TD_Micro": td_trainer.train("TD_Micro", data["micro_all"]),
            "TD_Random": td_trainer.train("TD_Random", data["random_all"]),
            "TD_SPEC": td_trainer.train("TD_SPEC", spec_flat),
        }
        return CampaignResult(
            bottom_up=bottom_up,
            top_down=top_down,
            configs=self.configs,
            spec_by_config=spec_by_config,
            idle=data["idle"],
        )
