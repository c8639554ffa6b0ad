"""Evaluators: map design points to scalar scores.

The standard evaluator builds a micro-benchmark from the point with a
user-supplied builder (a pass-pipeline closure), runs it on the machine
substrate, and reduces the measurement to a score -- mean power for
max-power searches, negated |IPC - target| for IPC-targeting searches,
and so on.  Builders may return a single kernel (deployed one copy per
hardware thread) or a :class:`~repro.sim.placement.Placement`
co-scheduling dissimilar kernels, and the mix objectives below score
the per-thread contrasts such placements produce.  A caching wrapper
avoids re-measuring identical points, which matters for GA populations
that revisit genotypes; its keys carry the evaluator's measurement
context (configuration, p-state, window), so one wrapper reused across
sweep configurations never serves stale scores.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.dse.space import DesignPoint, DesignSpace
from repro.exec.executors import default_executor
from repro.exec.plan import ExperimentPlan
from repro.measure.measurement import Measurement
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine
from repro.sim.placement import Placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executors import SerialExecutor

logger = logging.getLogger("repro.dse")

#: Builds a runnable workload from a design point: one kernel deployed
#: everywhere, or an explicit per-thread placement.
KernelBuilder = Callable[[DesignPoint], "Kernel | Placement"]
#: Reduces a measurement to the score being maximized.
Objective = Callable[[Measurement], float]


def mean_power_objective(measurement: Measurement) -> float:
    """Score = mean sensor power (max-power searches)."""
    return measurement.mean_power


def ipc_target_objective(target: float) -> Objective:
    """Score = -|IPC - target| (IPC-tracking searches, Table 2)."""

    def objective(measurement: Measurement) -> float:
        return -abs(measurement.thread_ipc(0) - target)

    return objective


def ipc_spread_objective(measurement: Measurement) -> float:
    """Score = max - min per-thread IPC (co-runner imbalance searches).

    Homogeneous deployments score ~0 (all threads behave alike); mixed
    placements score the throughput asymmetry their SMT contention
    produces -- e.g. a hi-ILP kernel racing past the memory-bound
    co-runner it shares a core with.
    """
    ipcs = measurement.thread_ipcs()
    return max(ipcs) - min(ipcs)


def thread_epi_estimates(measurement: Measurement) -> tuple[float, ...]:
    """Per-thread energy-per-instruction estimates, nanojoules.

    Chip power cannot be attributed per thread from sensors alone, so
    the estimate splits the window's energy equally across hardware
    threads and divides by each thread's committed instructions -- a
    deliberately counter-only heuristic (modeling code never sees the
    hidden power model).  Threads committing nothing report 0.
    """
    energy_share = (
        measurement.mean_power * measurement.duration / measurement.threads
    )
    estimates = []
    for thread in range(measurement.threads):
        instructions = measurement.thread_counters[thread].get(
            "PM_RUN_INST_CMPL", 0.0
        )
        estimates.append(
            energy_share / instructions * 1e9 if instructions else 0.0
        )
    return tuple(estimates)


def epi_spread_objective(measurement: Measurement) -> float:
    """Score = max - min estimated per-thread EPI (nJ).

    The mix-search analogue of the taxonomy's EPI contrasts: maximized
    by placements whose co-runners convert the same energy share into
    very different instruction counts (e.g. antagonist pairs).
    """
    estimates = [
        value for value in thread_epi_estimates(measurement) if value > 0.0
    ]
    if not estimates:
        return 0.0
    return max(estimates) - min(estimates)


class MeasurementEvaluator:
    """Build-measure-score evaluator over the machine substrate."""

    def __init__(
        self,
        builder: KernelBuilder,
        machine: Machine,
        config: MachineConfig,
        objective: Objective = mean_power_objective,
        duration: float = 10.0,
        executor: "SerialExecutor | None" = None,
    ) -> None:
        self.builder = builder
        self.machine = machine
        self.config = config
        self.objective = objective
        self.duration = duration
        # Environment-resolved default: REPRO_STORE persists every
        # search this evaluator drives.
        self.executor = (
            executor if executor is not None else default_executor(machine)
        )
        self.measurements = 0

    @property
    def cache_context(self) -> tuple:
        """Measurement identity a score depends on besides the point.

        The configuration (which carries the p-state) and the window
        length: :class:`CachingEvaluator` folds this into its keys so
        reusing one evaluator across a sweep -- reassigning ``config``
        between configurations -- invalidates naturally instead of
        serving another configuration's scores.
        """
        return (self.config, self.duration)

    def __call__(self, point: DesignPoint) -> float:
        return self.evaluate_many([point])[0]

    def evaluate_many(self, points: Sequence[DesignPoint]) -> list[float]:
        """Score a batch of points through the execution engine.

        The batch becomes one single-configuration experiment plan:
        duplicate genotypes deduplicate into one cell, the executor
        drives the misses through the machine's vectorized measurement
        plane (``Machine.run_cells`` -- one tensor pass per batch), and
        a store-backed executor serves revisited points from disk
        across processes.
        """
        workloads = [self.builder(point) for point in points]
        plan = ExperimentPlan.cross(
            workloads, [self.config], duration=self.duration
        )
        logger.debug(
            "evaluating %d points on %s (%d unique cells)",
            len(points),
            self.config.label,
            plan.size,
        )
        report = self.executor.execute(plan)
        self.measurements += len(points)
        if report.failures:
            # Quarantine-aware scoring: a point whose cell could not be
            # measured after retries and the degraded fallback scores
            # -inf -- searches maximize, so the point simply loses and
            # the campaign (GA generations, sweeps) carries on instead
            # of aborting on one bad cell.
            logger.warning(
                "scoring %d quarantined point(s) at -inf: %s",
                len(report.failures),
                report.describe(),
            )
        return [
            self.objective(measurement)
            if measurement is not None
            else float("-inf")
            for measurement in report
        ]


class CachingEvaluator:
    """Memoizing wrapper keyed on the canonical point form.

    Keys additionally carry the wrapped evaluator's ``cache_context``
    (falling back to its ``config`` attribute, if any): a measurement
    evaluator reused across sweep configurations or p-states re-scores
    each point per context instead of serving the first context's
    stale score.
    """

    def __init__(
        self,
        evaluator: Callable[[DesignPoint], float],
        space: DesignSpace,
    ) -> None:
        self.evaluator = evaluator
        self.space = space
        self._cache: dict[tuple, float] = {}

    def _context(self) -> object:
        context = getattr(self.evaluator, "cache_context", None)
        if context is None:
            context = getattr(self.evaluator, "config", None)
        return context

    def _key(self, point: DesignPoint, context: object) -> tuple:
        return (context, self.space.key(point))

    def __call__(self, point: DesignPoint) -> float:
        key = self._key(point, self._context())
        if key not in self._cache:
            self._cache[key] = self.evaluator(point)
        return self._cache[key]

    def evaluate_many(self, points: Sequence[DesignPoint]) -> list[float]:
        """Batch evaluation: misses go to the backend in one batch."""
        context = self._context()
        keys = [self._key(point, context) for point in points]
        fresh: dict[tuple, DesignPoint] = {}
        for key, point in zip(keys, points):
            if key not in self._cache and key not in fresh:
                fresh[key] = point
        if fresh:
            scores = evaluate_batch(self.evaluator, list(fresh.values()))
            for key, score in zip(fresh, scores):
                self._cache[key] = score
        return [self._cache[key] for key in keys]

    @property
    def unique_evaluations(self) -> int:
        return len(self._cache)


def evaluate_batch(
    evaluator: Callable[[DesignPoint], float],
    points: Sequence[DesignPoint],
) -> list[float]:
    """Score ``points``, batching when the evaluator supports it.

    Search drivers call this instead of a per-point loop, so any
    evaluator exposing ``evaluate_many`` (the measurement evaluators
    above, user-supplied batched objectives) gets the whole population
    at once and can measure it as one plan.
    """
    batch = getattr(evaluator, "evaluate_many", None)
    if batch is not None:
        return list(batch(points))
    return [evaluator(point) for point in points]
