"""Plan execution: one in-process executor with fault recovery.

:class:`SerialExecutor` takes an :class:`~repro.exec.plan.ExperimentPlan`
and returns measurements in the plan's requested order, batched per
(configuration, window) through :meth:`Machine.run_many` so every
distinct kernel is summarized once.  Every measurement is a
deterministic pure function of the architecture definition, the
machine seed and the cell content (sensor noise is seeded from content
digests, never from run order or wall clock), so a retried or degraded
cell reproduces the fault-free bytes: recovery never perturbs results.

With a :class:`~repro.exec.store.ResultStore` attached, warm cells are
served from disk and only the misses are measured; a fully warm plan
never touches ``Machine.run``.  Store-backed executions are recorded in
the store's run ledger (:class:`~repro.exec.journal.RunJournal`), so a
campaign killed mid-batch (``kill -9``) is visible as such, and
re-running it measures only the cells the store lacks.

Fault tolerance: a batch that raises re-executes *in-process, cell by
cell* (degraded mode); each cell retries with bounded, deterministic
exponential backoff (``REPRO_RETRIES``, default 2), and only a cell
that still fails is quarantined into a
:class:`~repro.exec.report.CellFailure` instead of aborting the
campaign.  Store appends retry the same way; an abandoned append costs
a warm cell next run, never a result this run.

:meth:`~SerialExecutor.execute` returns the full
:class:`~repro.exec.report.ExecutionReport`; :meth:`~SerialExecutor.run`
is the list-returning convenience, raising
:class:`~repro.errors.ExecutionError` if anything was quarantined.
Every recovery path is exercised deterministically via
:mod:`repro.exec.faults` (the ``REPRO_FAULTS`` knob).
"""

from __future__ import annotations

import logging
import os
import time
from collections.abc import Sequence

from repro.exec import faults
from repro.exec.journal import RunJournal, run_id
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.exec.registry import RunRegistry
from repro.exec.report import ExecutionReport, ReportBuilder
from repro.exec.store import ResultStore
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine
from repro.sim.topology import ChipTopology

logger = logging.getLogger("repro.exec")

#: Default bounded-retry budget per cell and store append (``REPRO_RETRIES``).
DEFAULT_RETRIES = 2

#: Deterministic exponential backoff: base * 2**attempt, capped.  No
#: jitter -- retried runs must stay reproducible, and nothing here
#: contends on a shared remote resource that jitter would protect.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _backoff_sleep(attempt: int) -> None:
    time.sleep(min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0 ** attempt)))


def _measure_on(
    machine: Machine,
    cells: Sequence[PlanCell],
    persist=None,
    plan: ExperimentPlan | None = None,
    out: list | None = None,
) -> list[Measurement]:
    """Measure ``cells`` on ``machine``; the output is in ``cells`` order.

    Without a ``persist`` callback the cells evaluate as one
    :meth:`Machine.run_cells` batch, a single tensor pass; with
    ``plan`` given (the whole plan measured cold, in plan-cell order),
    the plane also caches its fused program under the plan.  With
    ``persist(cells, measurements)`` -- called after each group so
    progress stays durable mid-campaign -- the cells evaluate group by
    group through ``run_many``, and each group's measurements land in
    ``out`` (``None`` per cell until then) once ``persist`` has taken
    them, so a caller whose later group raises knows which cells
    landed.  Groups are keyed by label as well as configuration:
    configuration equality ignores the p-state *name*, but the label
    seeds sensor noise.
    """
    fault_plan = faults.active()
    if fault_plan is not None and fault_plan.wants("poison"):
        for cell in cells:
            fault_plan.maybe_poison(faults.cell_key(cell))
    if persist is None:
        return machine.run_cells(cells, plan=plan)
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(
            (cell.config, cell.config.label, cell.duration), []
        ).append(index)
    if out is None:
        out = [None] * len(cells)
    for (config, label, duration), indices in groups.items():
        if fault_plan is not None and fault_plan.wants("slow"):
            fault_plan.maybe_slow(f"batch:{label}:{duration}")
        measurements = machine.run_many(
            [cells[index].workload for index in indices], config, duration
        )
        persist([cells[index] for index in indices], measurements)
        for index, measurement in zip(indices, measurements):
            out[index] = measurement
    return out


class SerialExecutor:
    """In-process plan execution, batched per configuration."""

    def __init__(
        self,
        machine: Machine,
        store: ResultStore | None = None,
        retries: int | None = None,
    ) -> None:
        self.machine = machine
        self.store = store
        #: Bounded retry budget (degraded cells, store appends).
        self.retries = (
            retries
            if retries is not None
            else _env_int("REPRO_RETRIES", DEFAULT_RETRIES)
        )
        #: The last execution's report (also returned by execute()).
        self.last_report: ExecutionReport | None = None
        # The store's run ledger, replayed by the first store-backed run.
        self._ledger: RunRegistry | None = None
        # (arch object, digest) memo: rendering the digest costs
        # ~1.5 ms, which would dominate warm single-cell plans
        # (per-point DSE loops) if recomputed per run.  The memo holds
        # the architecture object itself (identity via ``is``, never a
        # bare ``id()`` that a recycled allocation could collide with).
        # Swapping in a different architecture object re-digests;
        # mutating one *in place* while reusing an executor does not --
        # build a fresh architecture (``get_architecture`` always
        # returns one) for definition edits, as the bootstrap's epi
        # write-backs (excluded from the digest by design) are the only
        # sanctioned in-place mutation.
        self._arch_digest_memo = None
        self._arch_digest = 0
        # Cluster-class definition digests (topology cell keys), by
        # class name.  Cluster classes resolve through the registry --
        # freshly parsed, never mutated in place -- so one digest per
        # class per executor lifetime is sound; the *base* class rides
        # the per-object memo above instead.
        self._cluster_digest_memo: dict[str, int] = {}

    def _refresh_arch_digest(self) -> None:
        arch = self.machine.arch
        memo = self._arch_digest_memo
        if memo is None or memo[0] is not arch:
            self._arch_digest_memo = (arch, arch.content_digest())
        self._arch_digest = self._arch_digest_memo[1]

    def _cluster_digests(self, topology) -> dict:
        """Per-class definition digests a topology cell's key folds in."""
        digests: dict = {}
        for cluster in topology.clusters:
            core_class = cluster.core_class
            if self.machine._class_key(core_class) is None:
                digests[core_class] = self._arch_digest
                continue
            found = self._cluster_digest_memo.get(core_class)
            if found is None:
                found = self.machine.cluster_arch(
                    core_class
                ).content_digest()
                self._cluster_digest_memo[core_class] = found
            digests[core_class] = found
        return digests

    def _key(self, cell: PlanCell) -> str:
        cluster_digests = (
            self._cluster_digests(cell.config)
            if isinstance(cell.config, ChipTopology)
            else None
        )
        return cell.key(
            self.machine.arch.name,
            self.machine.seed,
            self._arch_digest,
            cluster_digests,
        )

    def key_of(self, cell: PlanCell) -> str:
        """The content-addressed store key of ``cell`` on this machine.

        The public spelling of the key the executor persists and the
        store serves -- the campaign service probes the store and names
        streamed cells and run ids with it, so service-side identity
        can never drift from store identity.
        """
        self._refresh_arch_digest()
        return self._key(cell)

    def run(self, plan: ExperimentPlan) -> list[Measurement]:
        """Execute the plan; measurements in requested order.

        The historical list-returning contract: raises
        :class:`~repro.errors.ExecutionError` (carrying the full
        :class:`~repro.exec.report.ExecutionReport`) if any cell was
        quarantined after retries and the degraded fallback.  Callers
        that want partial results use :meth:`execute` directly.
        """
        return self.execute(plan).require_complete()

    def execute(
        self,
        plan: ExperimentPlan,
        progress=None,
        journal: RunJournal | None = None,
    ) -> ExecutionReport:
        """Execute the plan; the full structured outcome.

        The plan's configurations are validated against the machine
        up front (:meth:`ExperimentPlan.validate_against`), so an
        infeasible sweep raises ``PlanValidationError`` before any
        cell is measured or served from the store.  With a store
        attached, the execution is a run of its own in the store's
        ledger -- or, given ``journal``, part of that run, whose owner
        writes its records (the campaign service passes each request's
        run).  Either way the run's final record carries this
        execution's fault counters and quarantined cells.

        ``progress``, if given, is called as ``progress(cells,
        measurements, warm)`` whenever a batch of unique cells lands:
        once with ``warm=True`` for the store-served cells (if any),
        then per measured batch with ``warm=False`` as results arrive
        -- the streaming hook the campaign service fans results out on.
        Quarantined cells never reach ``progress``.  A ``progress``
        callback forces per-batch evaluation on store-less plans.
        """
        plan.validate_against(self.machine)
        cells = plan.cells
        builder = ReportBuilder()
        results: list[Measurement | None] = [None] * len(cells)
        own_journal: RunJournal | None = None
        persist = None
        store_faults_before: dict[str, int] = {}
        if self.store is None:
            misses = list(range(len(cells)))
        else:
            store_faults_before = dict(self.store.fault_stats())
            # Cell keys must reflect the architecture definition *as
            # measured*; the digest is memoized per architecture object
            # (see __init__) so warm single-cell runs stay cheap.
            self._refresh_arch_digest()
            keys = [self._key(cell) for cell in cells]
            if journal is None:
                if self._ledger is None:
                    self._ledger = RunRegistry(self.store.root)
                journal = own_journal = RunJournal(self._ledger, run_id(keys))
                own_journal.start(
                    keys,
                    plan.describe(),
                    arch=self.machine.arch.name,
                    seed=self.machine.seed,
                )
            misses = []
            for index, key in enumerate(keys):
                found = self.store.get(key)
                if found is None:
                    misses.append(index)
                else:
                    results[index] = found
            logger.info(
                "plan %s: %d warm from %s, %d to measure",
                plan.describe(),
                len(cells) - len(misses),
                self.store,
                len(misses),
            )

            def persist(batch_cells, batch_measurements):
                self._persist(batch_cells, batch_measurements, builder)

        if progress is not None:
            missed = set(misses)
            warm_indices = [
                index for index in range(len(cells)) if index not in missed
            ]
            if warm_indices:
                progress(
                    [cells[index] for index in warm_indices],
                    [results[index] for index in warm_indices],
                    True,
                )
            store_persist = persist

            def persist(batch_cells, batch_measurements):
                if store_persist is not None:
                    store_persist(batch_cells, batch_measurements)
                progress(batch_cells, batch_measurements, False)

        if misses:
            # Persistence happens per batch, so an interrupted campaign
            # keeps everything measured so far.  Without a callback the
            # whole miss set is one tensor pass, and a fully cold
            # store-less run passes the plan along as the vector
            # plane's program-cache key, so re-executions of the same
            # plan object skip compilation.
            plan_hint = (
                plan if persist is None and len(misses) == len(cells) else None
            )
            measured = self._measure(
                [cells[index] for index in misses], persist, builder,
                plan=plan_hint,
            )
            for index, measurement in zip(misses, measured):
                results[index] = measurement
        if self.store is not None:
            for name, value in self.store.fault_stats().items():
                delta = value - store_faults_before.get(name, 0)
                builder.count(f"store_{name}", delta)
        report = builder.build(plan.expand(results))
        if journal is not None:
            journal.absorb(report)
        if own_journal is not None:
            own_journal.complete(
                sum(1 for index in misses if results[index] is not None),
                warm=len(cells) - len(misses),
            )
        self.last_report = report
        if not report.ok:
            logger.error("plan finished degraded: %s", report.describe())
        elif report.fault_counters:
            logger.warning(
                "plan finished after recovery: %s", report.describe()
            )
        return report

    def _persist(
        self,
        cells: Sequence[PlanCell],
        measurements: Sequence[Measurement],
        builder: ReportBuilder,
    ) -> None:
        """Persist one measured batch, one locked write per touched shard.

        Each shard group carries its own bounded ``OSError`` retry
        budget, so already-appended groups are never re-written by a
        later group's retry.  A group abandoned after the budget is
        logged and counted, never raised -- the measurements are
        already in memory and at worst re-measure next run.
        """
        by_shard: dict[str, list[tuple[str, Measurement]]] = {}
        for cell, measurement in zip(cells, measurements):
            key = self._key(cell)
            by_shard.setdefault(key[:2], []).append((key, measurement))
        for name, entries in by_shard.items():
            attempt = 0
            while True:
                try:
                    self.store.put_many(entries)
                    break
                except OSError as exc:
                    if attempt >= self.retries:
                        builder.count("store_put_failures")
                        logger.warning(
                            "abandoning store append of %d cell(s) to "
                            "shard %s after %d attempts (%s); results "
                            "kept in memory, cells will re-measure "
                            "next run",
                            len(entries),
                            name,
                            attempt + 1,
                            exc,
                        )
                        break
                    builder.count("store_put_retries")
                    _backoff_sleep(attempt)
                    attempt += 1

    def _measure(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        """Measure ``cells``; a failing batch degrades to cell by cell.

        Only the cells that have not landed degrade: groups ``persist``
        already took keep their measurements, so no cell is persisted
        or reported to ``progress`` twice.
        """
        logger.info("measuring %d cells", len(cells))
        out: list[Measurement | None] = [None] * len(cells)
        try:
            return _measure_on(
                self.machine, cells, persist, plan=plan, out=out
            )
        except Exception as exc:
            builder.count("batch_failures")
            pending = [index for index, m in enumerate(out) if m is None]
            logger.warning(
                "batch of %d cells failed in-process (%s: %s); "
                "re-executing %d cell by cell",
                len(cells),
                type(exc).__name__,
                exc,
                len(pending),
            )
            redone = self._degraded(
                [cells[index] for index in pending], persist, builder
            )
            for index, measurement in zip(pending, redone):
                out[index] = measurement
            return out

    def _degraded(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
    ) -> list[Measurement | None]:
        """Last-resort re-execution, one cell at a time.

        Each cell gets its own bounded retry budget; a cell that still
        fails is quarantined into a CellFailure (``None`` in the result
        slot) instead of poisoning its whole batch.  Measurement is
        pure, so cells that *do* succeed here are bit-identical to a
        fault-free run.
        """
        builder.count("degraded_cells", len(cells))
        out: list[Measurement | None] = []
        for cell in cells:
            measurement: Measurement | None = None
            attempt = 0
            while True:
                try:
                    measurement = _measure_on(self.machine, [cell])[0]
                    break
                except Exception as exc:
                    if attempt >= self.retries:
                        failure = builder.quarantine(
                            cell,
                            attempt + 1,
                            exc,
                            self._key(cell) if self.store is not None else None,
                        )
                        logger.error(
                            "quarantining cell %s on %s after %d attempts: "
                            "%s: %s",
                            failure.workload_name,
                            failure.config_label,
                            failure.attempts,
                            failure.kind,
                            failure.message,
                        )
                        break
                    builder.count("retries")
                    _backoff_sleep(attempt)
                    attempt += 1
            if measurement is not None and persist is not None:
                persist([cell], [measurement])
            out.append(measurement)
        return out


def default_executor(
    machine: Machine,
    store: ResultStore | str | None = None,
) -> SerialExecutor:
    """The executor the environment asks for.

    ``REPRO_STORE`` (a directory path) attaches a persistent
    :class:`ResultStore`, and ``REPRO_RETRIES`` tunes the
    fault-tolerance envelope; an explicit ``store`` wins over the
    environment.  With neither, this is a plain store-less
    :class:`SerialExecutor`.
    """
    if store is None:
        store_dir = os.environ.get("REPRO_STORE")
        store = ResultStore(store_dir) if store_dir else None
    elif isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)
    return SerialExecutor(machine, store=store)
