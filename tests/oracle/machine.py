"""The per-cell scalar measurement walk, kept as the plane's oracle.

:class:`OracleMachine` is a :class:`~repro.sim.machine.Machine` whose
entry points measure one cell at a time through Python dicts and
floats: resolve each thread's activity, re-clock it to the operating
point, synthesize its counters, evaluate chip power over the threads
in canonical order and draw the sensor noise from the cell's
``stable_seed``.  It shares the substrate (architectures, pipeline
models, activity and mixed-core caches) with the production machine
but none of the fused plane's code, so comparing the two bit for bit
checks the plane.  Executors accept it anywhere a machine goes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import MeasurementError
from repro.measure.measurement import DEFAULT_DURATION_S, Measurement
from repro.sim.activity import ThreadActivity
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine, Workload
from repro.sim.pipeline import CorePipelineModel
from repro.sim.placement import Placement, strict_workload_key, workload_key
from repro.sim.sensors import stable_seed
from repro.sim.topology import ChipTopology, CoreCluster

from .scalar import (
    at_frequency_scale,
    chip_power,
    counters_from_activity,
    topology_power,
)


class OracleMachine(Machine):
    """A machine that measures every cell through the scalar walk."""

    # -- entry points ------------------------------------------------------------

    def run(
        self,
        workload: Kernel | Workload | Placement,
        config: MachineConfig | ChipTopology,
        duration: float = DEFAULT_DURATION_S,
    ) -> Measurement:
        config = self._canonical(config)
        self._validate(config)
        return self._measure(workload, config, duration)

    def run_many(
        self,
        workloads: Iterable[Kernel | Workload | Placement],
        config: MachineConfig | ChipTopology,
        duration: float = DEFAULT_DURATION_S,
    ) -> list[Measurement]:
        config = self._canonical(config)
        self._validate(config)
        return [
            self._measure(workload, config, duration)
            for workload in workloads
        ]

    def run_cells(self, cells, plan=None) -> list[Measurement]:
        distinct = {
            id(cell.config): self._canonical(cell.config) for cell in cells
        }
        for config in distinct.values():
            self._validate(config)
        return [
            self._measure(cell.workload, distinct[id(cell.config)], cell.duration)
            for cell in cells
        ]

    def run_plan(self, plan) -> list[Measurement]:
        return plan.expand(self.run_cells(plan.cells))

    # -- homogeneous chips ---------------------------------------------------------

    def _measure(
        self,
        workload: Kernel | Workload | Placement,
        config: MachineConfig | ChipTopology,
        duration: float,
    ) -> Measurement:
        if isinstance(config, ChipTopology):
            return self._measure_topology(workload, config, duration)
        if isinstance(workload, Placement):
            return self._measure_placement(workload, config, duration)
        activity = self._run_activity(workload, config)
        counters = counters_from_activity(
            self.arch, activity, duration, frequency=self._run_frequency(config)
        )
        true_power = chip_power(
            self._power, [activity] * config.threads, config
        )
        salt = workload.digest() if isinstance(workload, Kernel) else 0
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(workload.name, config.label, duration, self.seed, salt),
        )
        return Measurement(
            workload_name=workload.name,
            config=config,
            duration=duration,
            thread_counters=tuple([counters] * config.threads),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    def _measure_placement(
        self,
        placement: Placement,
        config: MachineConfig,
        duration: float,
    ) -> Measurement:
        """Measure an explicit per-thread workload assignment.

        Per-thread counters keep the placement's declaration order;
        chip power and the sensor noise salt are evaluated over the
        placement's canonical ordering, so permuting co-runners within
        a core (or whole cores) reproduces the measurement exactly.
        """
        try:
            placement.validate_against(config)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None
        group_memo: dict[tuple, list[ThreadActivity]] = {}
        core_activities = []
        for group in placement.core_groups:
            group_key = tuple(
                strict_workload_key(workload) for workload in group
            )
            activities = group_memo.get(group_key)
            if activities is None:
                activities = self._core_activities(group, config)
                group_memo[group_key] = activities
            core_activities.append(activities)
        frequency = self._run_frequency(config)
        counter_memo: dict[int, dict[str, float]] = {}

        def counters_for(activity: ThreadActivity) -> dict[str, float]:
            found = counter_memo.get(id(activity))
            if found is None:
                found = counters_from_activity(
                    self.arch, activity, duration, frequency=frequency
                )
                counter_memo[id(activity)] = found
            return found

        counters = tuple(
            counters_for(activity)
            for activities in core_activities
            for activity in activities
        )
        true_power = chip_power(
            self._power,
            [
                core_activities[core][slot]
                for core, slot in placement.canonical_order()
            ],
            config,
        )
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                placement.name,
                config.label,
                duration,
                self.seed,
                placement.canonical_salt(),
            ),
        )
        return Measurement(
            workload_name=placement.name,
            config=config,
            duration=duration,
            thread_counters=counters,
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
            thread_workloads=placement.thread_names,
        )

    def _run_frequency(self, config: MachineConfig) -> float:
        """Effective clock under the configuration's p-state."""
        return self.frequency * config.p_state.freq_scale

    def _run_activity(
        self, workload: Kernel | Workload, config: MachineConfig
    ) -> ThreadActivity:
        """Steady-state activity re-clocked to the config's p-state."""
        activity = self._resolve_activity_on(
            workload, config.smt, None, self.pipeline, self
        )
        return at_frequency_scale(activity, config.p_state.freq_scale)

    def _core_activities(
        self, group: Sequence[Kernel | Workload], config: MachineConfig
    ) -> list[ThreadActivity]:
        """Per-slot activities of one core of a placement.

        A homogeneous core degenerates to the single-workload path; a
        core mixing distinct kernels goes through the pipeline's
        mixed-core contention solver in canonical workload order; cores
        mixing profiled workloads take each workload's own SMT-way
        activity.
        """
        strict_keys = {
            strict_workload_key(workload) for workload in group
        }
        freq_scale = config.p_state.freq_scale
        if len(strict_keys) == 1:
            activity = self._run_activity(group[0], config)
            return [activity] * config.smt
        if all(isinstance(workload, Kernel) for workload in group):
            order = sorted(
                range(len(group)),
                key=lambda slot: workload_key(group[slot]),
            )
            cache_key = (
                None,
                tuple(workload_key(group[slot]) for slot in order),
                config.smt,
            )
            solved = self._mixed_cache.get(cache_key)
            if solved is None:
                summaries = [
                    self.pipeline.summarize(group[slot]) for slot in order
                ]
                solved = self.pipeline.mixed_core_activities(
                    summaries, config.smt
                )
                self._mixed_cache.put(cache_key, solved)
            activities: list[ThreadActivity | None] = [None] * len(group)
            for slot, activity in zip(order, solved):
                activities[slot] = at_frequency_scale(activity, freq_scale)
            return activities
        return [
            self._run_activity(workload, config) for workload in group
        ]

    def _resolve_activity_on(
        self,
        workload: Kernel | Workload,
        smt: int,
        class_key: str | None,
        pipeline: CorePipelineModel,
        view,
    ) -> ThreadActivity:
        """Steady-state activity of one thread on one core class."""
        if isinstance(workload, Kernel):
            key = (class_key, workload.digest(), smt)
            cached = self._activity_cache.get(key)
            if cached is None:
                cached = pipeline.activity(workload, smt)
                self._activity_cache.put(key, cached)
            return cached
        if isinstance(workload, Workload):
            return workload.thread_activity(view, smt)
        raise MeasurementError(
            f"cannot deploy {type(workload).__name__}: not a Kernel and "
            "does not implement the workload protocol"
        )

    # -- heterogeneous topologies ----------------------------------------------------

    def _cluster_activity(
        self, workload: Kernel | Workload, cluster: CoreCluster
    ) -> ThreadActivity:
        """One thread's activity on a cluster, re-clocked to its p-state."""
        _, pipeline, _, view = self._parts(cluster.core_class)
        activity = self._resolve_activity_on(
            workload,
            cluster.smt,
            self._class_key(cluster.core_class),
            pipeline,
            view,
        )
        return at_frequency_scale(activity, cluster.p_state.freq_scale)

    def _measure_topology(
        self,
        workload: Kernel | Workload | Placement,
        topology: ChipTopology,
        duration: float,
    ) -> Measurement:
        """Measure a workload replicated across every cluster thread."""
        if isinstance(workload, Placement):
            return self._measure_topology_placement(
                workload, topology, duration
            )
        parts = []
        thread_counters: list[dict] = []
        for cluster in topology.clusters:
            arch, _, power, _ = self._parts(cluster.core_class)
            activity = self._cluster_activity(workload, cluster)
            counters = counters_from_activity(
                arch,
                activity,
                duration,
                frequency=arch.chip.cycles_per_second
                * cluster.p_state.freq_scale,
            )
            thread_counters.extend([counters] * cluster.threads)
            parts.append((cluster, power, [activity] * cluster.threads))
        true_power = topology_power(parts, topology.cores)
        salt = workload.digest() if isinstance(workload, Kernel) else 0
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                workload.name, topology.label, duration, self.seed, salt
            ),
        )
        return Measurement(
            workload_name=workload.name,
            config=topology,
            duration=duration,
            thread_counters=tuple(thread_counters),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    def _measure_topology_placement(
        self,
        placement: Placement,
        topology: ChipTopology,
        duration: float,
    ) -> Measurement:
        """Measure an explicit per-thread assignment across clusters.

        Core groups are cluster-major.  Chip power and the noise salt
        are evaluated over each cluster segment's canonical ordering.
        """
        try:
            placement.validate_against(topology)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None
        group_memo: dict[tuple, list[ThreadActivity]] = {}
        counter_memo: dict[tuple, dict[str, float]] = {}
        core_activities: list[list[ThreadActivity]] = []
        thread_counters: list[dict] = []
        core_index = 0
        for cluster in topology.clusters:
            arch = self._parts(cluster.core_class)[0]
            frequency = (
                arch.chip.cycles_per_second * cluster.p_state.freq_scale
            )
            class_key = self._class_key(cluster.core_class)
            for _ in range(cluster.cores):
                group = placement.core_groups[core_index]
                group_key = (
                    class_key,
                    cluster.smt,
                    cluster.p_state.freq_scale,
                    tuple(strict_workload_key(w) for w in group),
                )
                activities = group_memo.get(group_key)
                if activities is None:
                    activities = self._cluster_core_activities(
                        group, cluster
                    )
                    group_memo[group_key] = activities
                core_activities.append(activities)
                for activity in activities:
                    memo_key = (id(activity), frequency)
                    counters = counter_memo.get(memo_key)
                    if counters is None:
                        counters = counters_from_activity(
                            arch, activity, duration, frequency=frequency
                        )
                        counter_memo[memo_key] = counters
                    thread_counters.append(counters)
                core_index += 1
        parts = []
        offset = 0
        for cluster in topology.clusters:
            power = self._parts(cluster.core_class)[2]
            order = placement.segment_order(offset, offset + cluster.cores)
            parts.append(
                (
                    cluster,
                    power,
                    [core_activities[core][slot] for core, slot in order],
                )
            )
            offset += cluster.cores
        true_power = topology_power(parts, topology.cores)
        summary = self._sensor.measure(
            true_power,
            duration,
            stable_seed(
                placement.name,
                topology.label,
                duration,
                self.seed,
                placement.canonical_salt_for(topology),
            ),
        )
        return Measurement(
            workload_name=placement.name,
            config=topology,
            duration=duration,
            thread_counters=tuple(thread_counters),
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
            thread_workloads=placement.thread_names,
        )

    def _cluster_core_activities(
        self, group: Sequence[Kernel | Workload], cluster: CoreCluster
    ) -> list[ThreadActivity]:
        """Per-slot activities of one core of a cluster placement."""
        _, pipeline, _, view = self._parts(cluster.core_class)
        class_key = self._class_key(cluster.core_class)
        freq_scale = cluster.p_state.freq_scale
        strict_keys = {
            strict_workload_key(workload) for workload in group
        }
        if len(strict_keys) == 1:
            activity = at_frequency_scale(
                self._resolve_activity_on(
                    group[0], cluster.smt, class_key, pipeline, view
                ),
                freq_scale,
            )
            return [activity] * cluster.smt
        if all(isinstance(workload, Kernel) for workload in group):
            order = sorted(
                range(len(group)),
                key=lambda slot: workload_key(group[slot]),
            )
            cache_key = (
                class_key,
                tuple(workload_key(group[slot]) for slot in order),
                cluster.smt,
            )
            solved = self._mixed_cache.get(cache_key)
            if solved is None:
                summaries = [
                    pipeline.summarize(group[slot]) for slot in order
                ]
                solved = pipeline.mixed_core_activities(
                    summaries, cluster.smt
                )
                self._mixed_cache.put(cache_key, solved)
            activities: list[ThreadActivity | None] = [None] * len(group)
            for slot, activity in zip(order, solved):
                activities[slot] = at_frequency_scale(activity, freq_scale)
            return activities
        return [
            at_frequency_scale(
                self._resolve_activity_on(
                    workload, cluster.smt, class_key, pipeline, view
                ),
                freq_scale,
            )
            for workload in group
        ]
