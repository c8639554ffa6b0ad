"""Plan execution: one in-process executor with fault recovery.

:class:`SerialExecutor` takes an :class:`~repro.exec.plan.ExperimentPlan`
and returns measurements in the plan's requested order.  The cells an
execution has to measure run as one :meth:`Machine.run_cells` pass --
a single fused tensor program across every configuration and window --
so every distinct kernel is summarized once.  The pass reads the plan's
columns; :class:`~repro.exec.plan.PlanCell` rows are built only for a
``progress`` callback, the degraded fallback and fault hooks.  Every
measurement is a deterministic pure function of the architecture
definition, the machine seed and the cell content (sensor noise is
seeded from content digests, never from run order or wall clock), so a
retried or degraded cell reproduces the fault-free bytes: recovery
never perturbs results.

With a :class:`~repro.exec.store.ResultStore` attached, warm cells are
served from disk and only the misses are measured; a fully warm plan
never touches ``Machine.run``.  The measured cells land after the pass,
one locked append per touched shard.  Store-backed executions are
recorded in the store's run ledger
(:class:`~repro.exec.journal.RunJournal`), so a campaign killed before
its appends finish (``kill -9``) is visible as such -- one that raises
records itself ``interrupted`` -- and re-running it measures only the
cells the store lacks.

Fault tolerance: a pass that raises re-executes *in-process, cell by
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


def _poison(cells) -> None:
    """Fire the armed ``poison`` fault at the plan cells it targets."""
    fault_plan = faults.active()
    if fault_plan is not None and fault_plan.wants("poison"):
        for cell in cells:
            fault_plan.maybe_poison(faults.cell_key(cell))


class SerialExecutor:
    """In-process plan execution, one measurement pass per execution."""

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
        # ~1.5 ms, which would dominate warm single-cell plans if
        # recomputed per run.  The memo holds
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

    def key_of(self, cell: PlanCell) -> str:
        """The content-addressed store key of ``cell`` on this machine.

        The public spelling of the key the executor persists and the
        store serves, so service-side identity can never drift from
        store identity.
        """
        self._refresh_arch_digest()
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

    def keys_of(self, plan: ExperimentPlan) -> list[str]:
        """The store keys of ``plan``'s unique cells on this machine, in
        plan order (:meth:`ExperimentPlan.keys`).

        The campaign service probes the store and names streamed cells
        and run ids with them.
        """
        self._refresh_arch_digest()
        return plan.keys(
            self.machine.arch.name,
            self.machine.seed,
            self._arch_digest,
            self._cluster_digests,
        )

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
        execution's fault counters and quarantined cells.  A run of its
        own probes the store before it starts, and writes its key
        manifest only if some cell is cold.

        ``progress``, if given, is called as ``progress(cells,
        measurements, warm)`` at most twice, ``cells`` being rows of
        :attr:`ExperimentPlan.cells`: with ``warm=True`` for the
        store-served cells (if any), then with ``warm=False`` for the
        measured ones once the store holds them -- the streaming hook
        the campaign service fans results out on.  Quarantined cells
        never reach ``progress``; an exception it raises ends the
        execution, and a run the execution owns is then recorded
        ``interrupted`` with that error.
        """
        plan.validate_against(self.machine)
        size = plan.size
        builder = ReportBuilder()
        results: list[Measurement | None] | None = None
        misses: Sequence[int] = range(size)
        keys: list[str] | None = None
        own_journal: RunJournal | None = None
        store_faults_before: dict[str, int] = {}
        if self.store is not None:
            store_faults_before = dict(self.store.fault_stats())
            # Cell keys must reflect the architecture definition *as
            # measured*; the digest is memoized per architecture object
            # (see __init__) so warm single-cell runs stay cheap.
            keys = self.keys_of(plan)
            # The probe comes first, as one batch read: a run that owes
            # no cells writes no key manifest.
            results = self.store.get_many(keys)
            misses = [
                index for index, found in enumerate(results) if found is None
            ]
            if journal is None:
                if self._ledger is None:
                    self._ledger = RunRegistry(self.store.root)
                journal = own_journal = RunJournal(self._ledger, run_id(keys))
                own_journal.start(
                    keys,
                    plan.describe(),
                    owes=bool(misses),
                    arch=self.machine.arch.name,
                    seed=self.machine.seed,
                )
        try:
            if self.store is not None:
                logger.info(
                    "plan %s: %d warm from %s, %d to measure",
                    plan.describe(),
                    size - len(misses),
                    self.store,
                    len(misses),
                )
                if progress is not None and len(misses) < size:
                    warm = [
                        index
                        for index, found in enumerate(results)
                        if found is not None
                    ]
                    progress(
                        [plan.cells[index] for index in warm],
                        [results[index] for index in warm],
                        True,
                    )

            measured: list[Measurement | None] = []
            if misses:
                measured = self._measure(plan, misses, keys, builder)
            if results is None:
                results = measured
            else:
                for index, measurement in zip(misses, measured):
                    results[index] = measurement
            landed: list[int] = []
            if misses and (self.store is not None or progress is not None):
                landed = [
                    index for index in misses if results[index] is not None
                ]
                if self.store is not None:
                    self._persist(
                        [(keys[index], results[index]) for index in landed],
                        builder,
                    )
                if progress is not None and landed:
                    progress(
                        [plan.cells[index] for index in landed],
                        [results[index] for index in landed],
                        False,
                    )
            if self.store is not None:
                for name, value in self.store.fault_stats().items():
                    delta = value - store_faults_before.get(name, 0)
                    builder.count(f"store_{name}", delta)
            report = builder.build(plan.expand(results))
            if journal is not None:
                journal.absorb(report)
            if own_journal is not None:
                own_journal.complete(len(landed), warm=size - len(misses))
        except BaseException as exc:
            # A run this execution owns must not keep saying "running":
            # the store holds whatever landed, so a re-run resumes warm.
            if own_journal is not None:
                own_journal.interrupt(exc)
            raise
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
        entries: Sequence[tuple[str, Measurement]],
        builder: ReportBuilder,
    ) -> None:
        """Persist measured ``(key, measurement)`` pairs, one locked
        append per touched shard.

        Each shard's append carries its own bounded ``OSError`` retry
        budget, so shards already appended are never re-written by a
        later shard's retry.  An append abandoned after the budget is
        logged and counted, never raised -- the measurements are
        already in memory and at worst re-measure next run.  The
        ``slow`` fault paces each shard's append.
        """
        by_shard: dict[str, list[tuple[str, Measurement]]] = {}
        for entry in entries:
            by_shard.setdefault(entry[0][:2], []).append(entry)
        fault_plan = faults.active()
        for name, shard_entries in by_shard.items():
            if fault_plan is not None:
                fault_plan.maybe_slow(f"append:{name}")
            attempt = 0
            while True:
                try:
                    self.store.put_many(shard_entries)
                    break
                except OSError as exc:
                    if attempt >= self.retries:
                        builder.count("store_put_failures")
                        logger.warning(
                            "abandoning store append of %d cell(s) to "
                            "shard %s after %d attempts (%s); results "
                            "kept in memory, cells will re-measure "
                            "next run",
                            len(shard_entries),
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
        plan: ExperimentPlan,
        positions: Sequence[int],
        keys: list[str] | None,
        builder: ReportBuilder,
    ) -> list[Measurement | None]:
        """Measure the plan cells at ``positions`` in one pass; a failing
        pass degrades to cell by cell.

        A whole-plan pass hands the plan to the plane as its
        program-cache key, so re-executions of the same plan object
        skip compilation.
        """
        logger.info("measuring %d cells", len(positions))
        whole = len(positions) == plan.size
        try:
            _poison(plan.cells[index] for index in positions)
            return self.machine.run_cells(
                plan.columns if whole else plan.columns.take(positions),
                plan=plan if whole else None,
            )
        except Exception as exc:
            builder.count("batch_failures")
            logger.warning(
                "pass of %d cells failed in-process (%s: %s); "
                "re-executing cell by cell",
                len(positions),
                type(exc).__name__,
                exc,
            )
            return self._degraded(plan, positions, keys, builder)

    def _degraded(
        self,
        plan: ExperimentPlan,
        positions: Sequence[int],
        keys: list[str] | None,
        builder: ReportBuilder,
    ) -> list[Measurement | None]:
        """Last-resort re-execution, one cell at a time.

        Each cell gets its own bounded retry budget; a cell that still
        fails is quarantined into a CellFailure (``None`` in the result
        slot) instead of poisoning the whole pass.  Measurement is
        pure, so cells that *do* succeed here are bit-identical to a
        fault-free run.
        """
        builder.count("degraded_cells", len(positions))
        out: list[Measurement | None] = []
        for index in positions:
            cell = plan.cells[index]
            measurement: Measurement | None = None
            attempt = 0
            while True:
                try:
                    _poison([cell])
                    measurement = self.machine.run_cells([cell])[0]
                    break
                except Exception as exc:
                    if attempt >= self.retries:
                        failure = builder.quarantine(
                            cell,
                            attempt + 1,
                            exc,
                            keys[index] if keys is not None else None,
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
