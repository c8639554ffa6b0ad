"""Topology design spaces: the chip itself as the search variable.

The paper's DSE searches pick *instructions*; a heterogeneous chip
opens a second axis: how many big vs little cores, and which operating
point each cluster runs at.  This module expresses that axis in the
standard :class:`~repro.dse.space.DesignSpace` vocabulary so the
existing drivers (exhaustive, genetic, guided) explore chip shapes
with no changes:

* :func:`topology_space` -- cluster *ratio* (big:little core split at a
  fixed core budget) and per-cluster p-states as categorical
  dimensions;
* :func:`topology_from_point` -- design point -> runnable
  :class:`~repro.sim.topology.ChipTopology`;
* :class:`TopologyEvaluator` -- measures one fixed workload on the
  point's topology and scores it with a big-vs-little
  energy-efficiency objective (all counter-only, preserving the
  modeling code's post-silicon blindness).
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.dse.space import DesignPoint, DesignSpace, Dimension
from repro.errors import SearchError
from repro.exec.executors import default_executor
from repro.exec.plan import ExperimentPlan, workload_fingerprint
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine
from repro.sim.topology import (
    DEFAULT_CORE_CLASSES,
    ChipTopology,
    CoreCluster,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executors import SerialExecutor

logger = logging.getLogger("repro.dse")

#: Reduces a topology measurement to the score being maximized.
TopologyObjective = Callable[[Measurement], float]


# -- counter-only objectives -----------------------------------------------------


def chip_instructions(measurement: Measurement) -> float:
    """Committed instructions across every hardware thread."""
    return sum(
        counters.get("PM_RUN_INST_CMPL", 0.0)
        for counters in measurement.thread_counters
    )


def energy_per_instruction_nj(measurement: Measurement) -> float:
    """Chip energy per committed instruction, nanojoules.

    The sensor-level EPI a cross-architecture campaign compares big
    and little shapes on: window energy over total committed work.
    Returns ``inf`` for a window that committed nothing.
    """
    instructions = chip_instructions(measurement)
    if not instructions:
        return float("inf")
    return (
        measurement.mean_power * measurement.duration / instructions * 1e9
    )


def efficiency_objective(measurement: Measurement) -> float:
    """Score = committed instructions per joule (maximize)."""
    energy = measurement.mean_power * measurement.duration
    if not energy:
        return 0.0
    return chip_instructions(measurement) / energy


def epi_objective(measurement: Measurement) -> float:
    """Score = negated chip EPI in nJ (maximizing minimizes EPI)."""
    return -energy_per_instruction_nj(measurement)


def throughput_objective(measurement: Measurement) -> float:
    """Score = committed instructions per second (ignore energy)."""
    return chip_instructions(measurement) / measurement.duration


# -- the space -------------------------------------------------------------------


def ratio_values(
    core_budget: int = 8, step: int = 2
) -> tuple[tuple[int, int], ...]:
    """``(big, little)`` splits of a core budget, big-first."""
    if core_budget < 1 or step < 1:
        raise SearchError("core budget and step must be >= 1")
    return tuple(
        (big, core_budget - big)
        for big in range(core_budget, -1, -step)
    )


def topology_space(
    core_budget: int = 8,
    step: int = 2,
    p_states: Sequence[str] = ("nominal", "p2"),
    smt_modes: Sequence[int] = (1,),
) -> DesignSpace:
    """Cluster count/ratio and per-cluster DVFS as search dimensions.

    Dimensions: ``ratio`` (the big:little core split, one dimension so
    the all-zero chip never arises), ``big_pstate`` / ``little_pstate``
    (each cluster's DVFS domain) and ``smt`` (chip-wide SMT way of
    both clusters).  The cross product is the space the exhaustive and
    genetic drivers walk.
    """
    return DesignSpace(
        [
            Dimension("ratio", ratio_values(core_budget, step)),
            Dimension("big_pstate", tuple(p_states)),
            Dimension("little_pstate", tuple(p_states)),
            Dimension("smt", tuple(smt_modes)),
        ]
    )


def topology_from_point(
    point: DesignPoint,
    core_classes: Mapping[str, str | None] | None = None,
) -> ChipTopology:
    """Build the design point's :class:`ChipTopology`.

    Empty clusters are dropped (an ``(8, 0)`` ratio is a pure-big
    chip); their p-state dimension is simply inert for such points.
    """
    from repro.sim.pstate import get_pstate

    if core_classes is None:
        core_classes = DEFAULT_CORE_CLASSES
    big, little = point["ratio"]
    smt = int(point.get("smt", 1))
    clusters = []
    if big:
        clusters.append(
            CoreCluster(
                name="big",
                cores=big,
                smt=smt,
                p_state=get_pstate(point["big_pstate"]),
                core_class=core_classes.get("big"),
            )
        )
    if little:
        clusters.append(
            CoreCluster(
                name="little",
                cores=little,
                smt=smt,
                p_state=get_pstate(point["little_pstate"]),
                core_class=core_classes.get("little"),
            )
        )
    if not clusters:
        raise SearchError(f"design point {point!r} enables no cores")
    return ChipTopology(clusters=tuple(clusters))


class TopologyEvaluator:
    """Measure one fixed workload across candidate chip shapes.

    The dual of :class:`~repro.dse.evaluator.MeasurementEvaluator`:
    there the configuration is fixed and the point picks the kernel;
    here the workload is fixed and the point picks the topology.
    Batches evaluate as one multi-topology experiment plan, so the
    vectorized measurement plane sees the whole population in one
    pass and a store-backed executor serves revisited shapes from
    disk.
    """

    def __init__(
        self,
        workload,
        machine: Machine,
        objective: TopologyObjective = efficiency_objective,
        duration: float = 10.0,
        executor: "SerialExecutor | None" = None,
        core_classes: Mapping[str, str | None] | None = None,
    ) -> None:
        self.workload = workload
        self.machine = machine
        self.objective = objective
        self.duration = duration
        self.executor = (
            executor if executor is not None else default_executor(machine)
        )
        self.core_classes = core_classes
        self.measurements = 0

    @property
    def cache_context(self) -> tuple:
        """Identity a score depends on besides the point itself."""
        return (workload_fingerprint(self.workload), self.duration)

    def __call__(self, point: DesignPoint) -> float:
        return self.evaluate_many([point])[0]

    def evaluate_many(self, points: Sequence[DesignPoint]) -> list[float]:
        """Score a population of chip shapes through the engine."""
        topologies = [
            topology_from_point(point, self.core_classes)
            for point in points
        ]
        plan = ExperimentPlan.cross(
            [self.workload], topologies, duration=self.duration
        )
        logger.debug(
            "evaluating %d topology points (%d unique cells)",
            len(points),
            plan.size,
        )
        measurements = self.executor.run(plan)
        self.measurements += len(points)
        return [self.objective(measurement) for measurement in measurements]
