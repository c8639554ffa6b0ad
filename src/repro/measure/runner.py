"""Measurement campaign runner (paper section 3).

The runner mirrors the paper's experimental procedure: every workload
is deployed as one copy per hardware thread of the configuration
(pinning is implicit in the machine model -- threads never migrate),
runs for a fixed 10-second window, and yields a
:class:`~repro.measure.measurement.Measurement`.  Campaign helpers
sweep workload sets across configuration lists, which is how the
training and validation datasets of Section 4 are gathered.

Since the execution-engine refactor the runner is a thin veneer over
:mod:`repro.exec`: every entry point emits an
:class:`~repro.exec.plan.ExperimentPlan` and hands it to an executor,
so each campaign measures as one ``Machine.run_cells`` pass, sweeps
deduplicate repeated cells, and attaching a store-backed executor
accelerates any caller's warm re-runs without further changes here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.measure.measurement import DEFAULT_DURATION_S, Measurement
from repro.sim.config import MachineConfig, standard_configurations
from repro.sim.pstate import PState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.executors import SerialExecutor
    from repro.sim.machine import Machine


class MeasurementRunner:
    """Runs measurement campaigns on one machine.

    ``executor`` defaults to the environment-resolved executor
    (``REPRO_STORE``; a plain store-less
    :class:`~repro.exec.executors.SerialExecutor` when it is not set);
    pass a store-backed executor explicitly to persist every campaign
    this runner drives.  A service URL string (or a
    :class:`~repro.exec.client.RemoteExecutor`) routes every campaign
    to a running ``python -m repro serve`` instead -- bit-identical
    results, resident caches and cross-client dedup on the server.
    """

    def __init__(
        self,
        machine: "Machine",
        duration: float = DEFAULT_DURATION_S,
        executor: "SerialExecutor | str | None" = None,
    ) -> None:
        # Imported here, not at module level: repro.exec consumes
        # Measurement (and therefore this package), so the runner binds
        # to the engine lazily to keep the import graph acyclic.
        from repro.exec.executors import default_executor

        self.machine = machine
        self.duration = duration
        if isinstance(executor, str):
            from repro.exec.client import RemoteExecutor

            executor = RemoteExecutor(
                executor, arch=machine.arch.name, seed=machine.seed
            )
        self.executor = (
            executor if executor is not None else default_executor(machine)
        )
        # Idle power is workload-independent: one measurement per
        # (configuration, window) serves every baseline request.
        self._baselines: dict[tuple[MachineConfig, float], Measurement] = {}

    @property
    def last_report(self):
        """The executor's :class:`~repro.exec.report.ExecutionReport`
        for the most recent campaign (fault counters, quarantined
        cells), or ``None`` before the first run.  Runner entry points
        raise :class:`~repro.errors.ExecutionError` on quarantined
        cells -- the raised error carries the same report."""
        return self.executor.last_report

    def run(self, workload, config: MachineConfig) -> Measurement:
        """Measure one workload on one configuration."""
        from repro.exec.plan import ExperimentPlan

        return self.executor.run(
            ExperimentPlan.single(workload, config, self.duration)
        )[0]

    def run_suite(
        self, workloads: Iterable, config: MachineConfig
    ) -> list[Measurement]:
        """Measure a workload set on one configuration (one batch)."""
        from repro.exec.plan import ExperimentPlan

        return self.executor.run(
            ExperimentPlan.cross(list(workloads), [config], duration=self.duration)
        )

    def run_sweep(
        self,
        workloads: Sequence,
        configs: Sequence | None = None,
        p_states: Sequence[PState] | None = None,
    ) -> dict:
        """Measure a workload set across a configuration sweep.

        Defaults to the paper's 24-configuration CMP-SMT sweep.
        Explicit ``configs`` are measured exactly as given -- including
        any operating points they carry -- and may mix
        :class:`~repro.sim.config.MachineConfig` entries with
        heterogeneous :class:`~repro.sim.topology.ChipTopology` chips
        (e.g. a :func:`~repro.sim.topology.topology_ladder` big:little
        ratio ladder), so one sweep spans homogeneous and
        cross-architecture scenarios.  Passing ``p_states`` crosses
        the configuration list's CMP-SMT modes with that DVFS ladder
        instead, p-state-major (a topology moves *all* its clusters to
        each swept point): the scenario space grows to ``configs x
        p_states`` (and workloads may be placements, so mixes sweep the
        same way).  Duplicate swept configurations are measured once
        (the plan deduplicates their cells); infeasible configurations
        raise :class:`~repro.errors.PlanValidationError` before
        anything is measured.
        """
        from repro.exec.plan import ExperimentPlan, sweep_configs

        if configs is None:
            configs = standard_configurations(
                self.machine.arch.chip.max_cores,
                self.machine.arch.chip.smt_modes(),
            )
        # First-wins dedup *before* planning: the returned dict is
        # keyed by configuration, whose equality ignores the p-state
        # name, so a same-scale differently-named duplicate could
        # neither be represented in the result nor usefully measured
        # (exactly the pre-engine behaviour, without wasted cells).
        swept: list = []
        seen: set = set()
        for config in sweep_configs(configs, p_states):
            if config not in seen:
                seen.add(config)
                swept.append(config)
        workloads = list(workloads)
        plan = ExperimentPlan.cross(workloads, swept, duration=self.duration)
        measurements = self.executor.run(plan)
        width = len(workloads)
        return {
            config: measurements[index * width : (index + 1) * width]
            for index, config in enumerate(swept)
        }

    def baseline(self, config=None) -> Measurement:
        """Measure workload-independent (idle) power.

        Memoized per (configuration, window): idle power does not
        depend on any workload, so repeated baseline requests -- every
        model-fitting step asks for one -- reuse the first measurement.
        ``config`` may be a :class:`~repro.sim.topology.ChipTopology`.
        """
        resolved = config if config is not None else MachineConfig(1, 1)
        # The label joins the key: config equality ignores the p-state
        # name, but the label seeds the idle run's noise draws.
        key = (resolved, resolved.label, self.duration)
        found = self._baselines.get(key)
        if found is None:
            found = self.machine.run_idle(resolved, self.duration)
            self._baselines[key] = found
        return found
