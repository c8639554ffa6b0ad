"""The Machine facade: run a workload, get a Measurement back.

``Machine.run`` is the substitute for "deploy one copy per hardware
thread, pin the copies, run for 10 seconds, read TPMD power sensors
and PCL performance counters".  Workloads are
:class:`~repro.sim.kernel.Kernel` objects (generated micro-benchmarks),
:class:`~repro.sim.placement.Placement` per-thread assignments, or any
object implementing the small workload protocol used by the SPEC
proxies::

    workload.name                              -> str
    workload.thread_activity(machine, smt)     -> ThreadActivity

Every entry point -- ``run``, ``run_many``, ``run_cells`` and
``run_plan`` -- measures through one plane, the fused tensor programs
of :mod:`repro.sim.vector`.  The machine owns the substrate those
programs compile against: per-core-class architectures, pipeline and
power models, the kernel activity cache and the mixed-core contention
solves.  The per-cell scalar walk the plane replaced lives on as the
differential test oracle under ``tests/oracle/``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Protocol, runtime_checkable

from repro.caching import LRUCache
from repro.errors import MeasurementError, MicroProbeError
from repro.march.definition import MicroArchitecture, get_architecture
from repro.measure.measurement import DEFAULT_DURATION_S, Measurement
from repro.sim.activity import ThreadActivity
from repro.sim.cells import CellColumns
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.placement import Placement, strict_workload_key, workload_key
from repro.sim.pipeline import CorePipelineModel
from repro.sim.power import GroundTruthPowerModel
from repro.sim.sensors import PowerSensor, stable_seed
from repro.sim.topology import ChipTopology, canonical_config
from repro.sim.vector import VectorPlane

#: Activity vectors retained per machine (LRU eviction past this);
#: one-shot sweeps over huge design spaces never revisit a kernel.
ACTIVITY_CACHE_LIMIT = 65_536


class ClusterView:
    """What a cluster hands a profiled workload as "the machine".

    Protocol workloads compute their activity from machine-level facts
    (today: the clock).  On a heterogeneous chip each cluster *is* a
    different machine -- its own core class at its own nominal clock --
    so profiled workloads placed on a cluster resolve against this
    narrow view instead of the whole-machine facade.
    """

    __slots__ = ("arch", "pipeline", "seed")

    def __init__(self, arch, pipeline, seed: int) -> None:
        self.arch = arch
        self.pipeline = pipeline
        self.seed = seed

    @property
    def frequency(self) -> float:
        """The cluster core class's nominal clock, cycles per second."""
        return self.arch.chip.cycles_per_second


@runtime_checkable
class Workload(Protocol):
    """Anything the machine can deploy across its hardware threads."""

    name: str

    def thread_activity(
        self, machine: "Machine", smt: int
    ) -> ThreadActivity:  # pragma: no cover - protocol signature
        ...


class Machine:
    """A POWER7-like CMP/SMT machine with sensors and counters."""

    def __init__(
        self,
        arch: MicroArchitecture | None = None,
        seed: int = 0,
    ) -> None:
        self.arch = arch if arch is not None else get_architecture("POWER7")
        self.pipeline = CorePipelineModel(self.arch)
        self.seed = seed
        self._power = GroundTruthPowerModel(self.arch)
        self._sensor = PowerSensor()
        # Keyed on the kernel's analytic digest: kernels with identical
        # loop-body content share one steady-state analysis regardless
        # of how many Kernel objects carry it; distinct kernels that
        # happen to share a name never alias.
        self._activity_cache: LRUCache[
            tuple[int, int], ThreadActivity
        ] = LRUCache(ACTIVITY_CACHE_LIMIT, "machine.activity")
        # Mixed-core contention solves, keyed on the canonical workload
        # keys of the co-runners plus the SMT way: a placement sweep
        # re-deploying the same mix across cores, configurations and
        # p-states runs the bisection once (solutions are stored at
        # nominal frequency; the p-state re-clock applies on top).
        self._mixed_cache: LRUCache[tuple, list[ThreadActivity]] = LRUCache(
            ACTIVITY_CACHE_LIMIT, "machine.mixed_core"
        )
        # Per-core-class substrate of heterogeneous topologies: each
        # cluster class resolves to its own architecture, pipeline
        # model and hidden power model.  The base class (``None`` or
        # the machine's own architecture name) aliases this machine's
        # objects, so bootstrap write-backs and cache warmth are shared
        # with the homogeneous paths.
        self._cluster_parts: dict[str | None, tuple] = {}
        # The measurement plane (sim/vector.py): every batch compiles
        # into a fused tensor program.
        self._vector = VectorPlane(self)

    @property
    def frequency(self) -> float:
        """Clock frequency in cycles per second."""
        return self.arch.chip.cycles_per_second

    # -- running workloads ---------------------------------------------------

    def run(
        self,
        workload: Kernel | Workload | Placement,
        config: MachineConfig | ChipTopology,
        duration: float = DEFAULT_DURATION_S,
    ) -> Measurement:
        """Deploy ``workload`` and measure one window.

        A plain workload is replicated once per hardware thread (the
        paper's deployment); a :class:`~repro.sim.placement.Placement`
        assigns its explicit per-thread workloads instead.  The
        configuration's p-state re-clocks the run and scales dynamic
        power by ``V^2 f``.

        ``config`` may be a heterogeneous
        :class:`~repro.sim.topology.ChipTopology`: the workload is
        deployed across every cluster, each cluster evaluating on its
        own core class at its own operating point.  A degenerate
        single-cluster topology collapses to its
        :class:`~repro.sim.config.MachineConfig` and reproduces the
        homogeneous run bit for bit.

        Raises:
            MeasurementError: If the configuration does not fit the
                chip, the placement does not fit the configuration, or
                the workload does not follow the protocol.
        """
        config = self._canonical(config)
        self._validate(config)
        return self._vector.try_measure_cells(
            CellColumns([workload], [config], [duration], [0], [0], [0])
        )[0]

    def run_many(
        self,
        workloads: Iterable[Kernel | Workload | Placement],
        config: MachineConfig,
        duration: float = DEFAULT_DURATION_S,
    ) -> list[Measurement]:
        """Measure a batch of workloads or placements on one configuration.

        Semantically identical to ``[run(w, config, duration) for w in
        workloads]`` -- same measurements, same sensor noise draws --
        but validates the configuration once and measures the whole
        batch as one fused program.  Plans run through
        :meth:`run_cells` instead, whose batches may span
        configurations and windows; this is the single-configuration
        spelling for direct callers.
        Placements and protocol workloads batch the same way: every
        distinct kernel appearing in the batch is summarized once
        regardless of how many placements (or threads) carry it, and
        every protocol workload resolves its activity once per SMT way.

        Raises:
            MeasurementError: If the configuration does not fit the chip
                or some workload does not follow the protocol.
        """
        config = self._canonical(config)
        self._validate(config)
        workloads = list(workloads)
        count = len(workloads)
        return self._vector.try_measure_cells(
            CellColumns(
                workloads,
                [config],
                [duration],
                range(count),
                [0] * count,
                [0] * count,
            )
        )

    def run_cells(self, cells, plan=None) -> list[Measurement]:
        """Measure a heterogeneous batch of plan cells in one pass.

        ``cells`` is a :class:`~repro.sim.cells.CellColumns` (a plan's
        ``columns``, or a ``take`` of them) or any sequence of objects
        with ``workload``, ``config`` and ``duration`` attributes (e.g.
        :class:`~repro.exec.plan.PlanCell`).  Unlike :meth:`run_many`,
        the batch may span many configurations and windows: the
        measurement plane evaluates every cell of the whole batch as
        *one* fused program, which is what lets a
        full 24-configuration sweep amortize its per-batch setup (and
        its sensor seeding) across all cells.  Results are returned in
        cell order, bit-identical to per-cell :meth:`run` calls.

        With ``plan`` given (the immutable
        :class:`~repro.exec.plan.ExperimentPlan` whose unique cells
        ``cells`` are), the vector plane compiles the batch into a
        fused tensor program cached weakly under the plan: the first
        run pays canonicalization, validation and compilation once,
        and every re-execution of the same plan object (resident
        service engines, steady-state benches) jumps
        straight to the fused pass.

        Raises:
            MeasurementError: If some configuration does not fit the
                chip or some workload does not follow the protocol.
        """
        if plan is not None:
            # Plans are immutable and content-addressed: the compiled
            # program already embeds the canonicalized, validated
            # batch, so a cache hit skips straight to execution.
            program = self._vector.cached_program(plan)
            if program is not None:
                return program.execute()
        if not isinstance(cells, CellColumns):
            cells = CellColumns.from_rows(cells)
        # Each configuration table entry is validated once.  Degenerate
        # topologies collapse to their MachineConfig spelling here
        # (plans already hold them collapsed; this covers hand-built
        # cells), so the whole downstream batch machinery sees
        # canonical configs.
        configs = [self._canonical(config) for config in cells.configs]
        for config in configs:
            self._validate(config)
        cells = CellColumns(
            cells.workloads,
            configs,
            cells.durations,
            cells.workload_index,
            cells.config_index,
            cells.duration_index,
        )
        return self._vector.try_measure_cells(cells, plan=plan)

    def run_plan(self, plan) -> list[Measurement]:
        """Execute a whole :class:`~repro.exec.plan.ExperimentPlan`.

        The plan's unique cells evaluate through :meth:`run_cells`
        (one tensor pass across every configuration), and results fan
        back out to the plan's requested order.  This is the
        in-process fast path; executors add stores and fault recovery
        on top.
        """
        return plan.expand(self.run_cells(plan.columns, plan=plan))

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of every memo cache in the substrate.

        Covers the machine's activity and mixed-core solve caches, the
        pipeline's kernel-digest summary cache, and the measurement
        plane's packed-kernel and stacked-batch caches.
        All of them are size-capped LRUs, so week-long campaigns hold
        memory flat; these counters show whether they are earning
        their keep.
        """
        stats = {
            "activity": self._activity_cache.stats(),
            "mixed_core": self._mixed_cache.stats(),
            "summaries": self.pipeline.cache_stats(),
        }
        stats.update(self._vector.cache_stats())
        return stats

    def run_idle(
        self,
        config: MachineConfig | ChipTopology | None = None,
        duration: float = DEFAULT_DURATION_S,
    ) -> Measurement:
        """Measure the machine with no workload (workload-independent power)."""
        config = self._canonical(config or MachineConfig(cores=1, smt=1))
        if isinstance(config, ChipTopology):
            per_thread = []
            for cluster in config.clusters:
                arch = self.cluster_arch(cluster.core_class)
                zeros = {name: 0.0 for name in arch.counters}
                per_thread.extend([zeros] * cluster.threads)
            thread_counters = tuple(per_thread)
        else:
            zero_counters = {name: 0.0 for name in self.arch.counters}
            thread_counters = tuple([zero_counters] * config.threads)
        summary = self._sensor.measure(
            self._power.idle_power(),
            duration,
            stable_seed("<idle>", config.label, duration, self.seed),
        )
        return Measurement(
            workload_name="<idle>",
            config=config,
            duration=duration,
            thread_counters=thread_counters,
            mean_power=summary.mean_power,
            power_std=summary.power_std,
            sample_count=summary.sample_count,
        )

    # -- heterogeneous cluster substrate --------------------------------------

    def cluster_arch(self, core_class: str | None) -> MicroArchitecture:
        """The architecture implementing one cluster core class.

        ``None`` (and the machine's own architecture name) is the base
        class -- this machine's architecture object itself, so bootstrap
        write-backs apply to base-class clusters.  Other names resolve
        through the architecture registry once and are cached.

        Raises:
            MeasurementError: If the class is not a registered
                architecture.
        """
        return self._parts(core_class)[0]

    def _parts(self, core_class: str | None) -> tuple:
        """``(arch, pipeline, power model, cluster view)`` of a class."""
        if core_class == self.arch.name:
            core_class = None
        parts = self._cluster_parts.get(core_class)
        if parts is None:
            if core_class is None:
                arch, pipeline, power = self.arch, self.pipeline, self._power
            else:
                try:
                    arch = get_architecture(core_class)
                except MicroProbeError as exc:
                    raise MeasurementError(
                        f"unknown cluster core class {core_class!r}: {exc}"
                    ) from None
                pipeline = CorePipelineModel(arch)
                power = GroundTruthPowerModel(arch)
            parts = (arch, pipeline, power, ClusterView(arch, pipeline, self.seed))
            self._cluster_parts[core_class] = parts
        return parts

    # -- internals -------------------------------------------------------------

    _canonical = staticmethod(canonical_config)

    def _validate(self, config: MachineConfig | ChipTopology) -> None:
        if isinstance(config, ChipTopology):
            for cluster in config.clusters:
                chip = self._parts(cluster.core_class)[0].chip
                if cluster.cores > chip.max_cores:
                    raise MeasurementError(
                        f"topology {config.label}: cluster "
                        f"{cluster.label!r} needs {cluster.cores} cores, "
                        f"core class has {chip.max_cores}"
                    )
                if cluster.smt > chip.max_smt:
                    raise MeasurementError(
                        f"topology {config.label}: cluster "
                        f"{cluster.label!r} needs SMT-{cluster.smt}, "
                        f"core class supports SMT-{chip.max_smt}"
                    )
            return
        try:
            config.validate_against(self.arch.chip)
        except ValueError as exc:
            raise MeasurementError(str(exc)) from None

    def validate_config(self, config: MachineConfig | ChipTopology) -> None:
        """Public fit check used by plan-build validation.

        Raises:
            MeasurementError: If this machine cannot run ``config``.
        """
        self._validate(self._canonical(config))

    def _class_key(self, core_class: str | None) -> str | None:
        """Cache-key normalization: the base class is always ``None``."""
        return None if core_class == self.arch.name else core_class

    # -- activity substrate of the measurement plane ---------------------------

    def _nominal_activity(
        self,
        workload: Kernel | Workload,
        smt: int,
        class_key: str | None,
        view,
    ) -> ThreadActivity:
        """One thread's steady-state activity at its class's nominal clock.

        Kernels resolve through the machine's activity cache; protocol
        workloads see ``view`` as the machine -- this facade on a
        homogeneous chip, a :class:`ClusterView` on a topology cluster.

        Raises:
            MeasurementError: If ``workload`` is neither a kernel nor a
                protocol workload.
        """
        if isinstance(workload, Kernel):
            key = (class_key, workload.digest(), smt)
            cached = self._activity_cache.get(key)
            if cached is None:
                cached = self._parts(class_key)[1].activity(workload, smt)
                self._activity_cache.put(key, cached)
            return cached
        if isinstance(workload, Workload):
            return workload.thread_activity(view, smt)
        raise MeasurementError(
            f"cannot deploy {type(workload).__name__}: not a Kernel and "
            "does not implement the workload protocol"
        )

    def _nominal_core_activities(
        self,
        group: Sequence[Kernel | Workload],
        smt: int,
        class_key: str | None,
        view,
        resolve: Callable,
    ) -> list[ThreadActivity]:
        """Per-slot nominal activities of one placed core.

        A homogeneous core (one workload by content or identity) runs
        that workload's SMT-way activity on every slot.  A core mixing
        distinct kernels goes through the class pipeline's contention
        solver, in canonical (workload-identity) order so permuting
        co-runners permutes the solved activities exactly; solves are
        memoized at nominal frequency.  Cores mixing profiled workloads
        (whose SMT behaviour is a published scaling curve, not an
        occupancy model) take each workload's own SMT-way activity.
        ``resolve(workload, smt, class_key, view)`` resolves one
        workload.
        """
        strict_keys = {strict_workload_key(workload) for workload in group}
        if len(strict_keys) == 1:
            return [resolve(group[0], smt, class_key, view)] * smt
        if not all(isinstance(workload, Kernel) for workload in group):
            return [
                resolve(workload, smt, class_key, view) for workload in group
            ]
        order = sorted(
            range(len(group)), key=lambda slot: workload_key(group[slot])
        )
        cache_key = (
            class_key,
            tuple(workload_key(group[slot]) for slot in order),
            smt,
        )
        solved = self._mixed_cache.get(cache_key)
        if solved is None:
            pipeline = self._parts(class_key)[1]
            solved = pipeline.mixed_core_activities(
                [pipeline.summarize(group[slot]) for slot in order], smt
            )
            self._mixed_cache.put(cache_key, solved)
        activities: list[ThreadActivity | None] = [None] * len(group)
        for slot, activity in zip(order, solved):
            activities[slot] = activity
        return activities  # type: ignore[return-value]
