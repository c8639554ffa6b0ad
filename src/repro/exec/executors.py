"""Plan executors: serial, and sharded across worker processes.

Both executors take an :class:`~repro.exec.plan.ExperimentPlan` and
return measurements in the plan's requested order.  The contract that
makes them interchangeable is *bit-identity*: every measurement is a
deterministic pure function of the architecture definition, the
machine seed and the cell content (sensor noise is seeded from stable
content digests, never from run order or wall clock), so sharding
cells across processes and reassembling in plan order reproduces the
serial byte stream exactly.  That same purity is what makes the fault
tolerance below sound: a retried, re-sharded or degraded-to-serial
cell reproduces the fault-free bytes, so recovery never perturbs
results.

Batching: within a shard, cells are grouped by (configuration, window)
and driven through :meth:`Machine.run_many`, so every distinct kernel
is summarized once per worker regardless of how many cells carry it.

With a :class:`~repro.exec.store.ResultStore` attached, warm cells are
served from disk and only the misses are measured; a fully warm plan
never touches ``Machine.run`` at all.  Store-backed executions also
write a per-run :class:`~repro.exec.journal.RunJournal` next to the
store, so an interrupted campaign (``kill -9`` mid-batch) is visible
as such and resumes measuring only its unfinished cells.

Fault tolerance (long unattended campaigns treat partial failure as
the normal case):

* every parallel chunk has a deadline (``REPRO_TIMEOUT`` seconds); a
  watchdog polls for expired chunks *and* dead worker processes, and
  either condition tears down and respawns the pool, then resubmits
  the lost chunks;
* failures retry with bounded, deterministic exponential backoff
  (``REPRO_RETRIES``, default 2);
* a chunk that exhausts its retries re-executes *in-process, cell by
  cell* (degraded mode) -- and only a cell that still fails there is
  quarantined into a :class:`~repro.exec.report.CellFailure` instead
  of aborting the campaign;
* store appends retry the same way; an abandoned append costs a warm
  cell next run, never a result this run.

:meth:`~_ExecutorBase.execute` returns the full
:class:`~repro.exec.report.ExecutionReport` (measurements + failures +
fault counters); :meth:`~_ExecutorBase.run` is the historical
list-returning convenience, raising
:class:`~repro.errors.ExecutionError` if anything was quarantined.
Every recovery path is exercised deterministically in the test suite
via :mod:`repro.exec.faults` (the ``REPRO_FAULTS`` knob).
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import signal
import time
import weakref
from collections.abc import Sequence

from repro.errors import MicroProbeError, UnknownArchitectureError
from repro.exec import faults
from repro.exec.journal import RunJournal, run_id
from repro.exec.plan import ExperimentPlan, PlanCell
from repro.exec.report import ExecutionReport, ReportBuilder
from repro.exec.store import ResultStore
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine
from repro.sim.topology import ChipTopology

logger = logging.getLogger("repro.exec")

#: Shards per worker: small enough to amortize per-chunk dispatch,
#: large enough that an uneven chunk doesn't idle the pool tail.
_CHUNKS_PER_WORKER = 4

#: Default bounded-retry budget per chunk/cell (``REPRO_RETRIES``).
DEFAULT_RETRIES = 2
#: Default per-chunk watchdog deadline, seconds (``REPRO_TIMEOUT``).
DEFAULT_TIMEOUT_S = 300.0

#: Deterministic exponential backoff: base * 2**attempt, capped.  No
#: jitter -- retried runs must stay reproducible, and nothing here
#: contends on a shared remote resource that jitter would protect.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0
#: Watchdog poll cadence while chunks are in flight.
_POLL_INTERVAL_S = 0.02


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, ""))
    except ValueError:
        return default


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, ""))
    except ValueError:
        return default


def _backoff_sleep(attempt: int) -> None:
    time.sleep(min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0 ** attempt)))


def _group_cells(cells: Sequence[PlanCell]) -> dict[tuple, list[int]]:
    """Indices of ``cells`` grouped per measurement batch, first-seen order.

    Keyed by label as well as configuration: configuration equality
    ignores the p-state *name*, but the label seeds sensor noise, so
    same-scale differently-named operating points must run as separate
    batches.  One definition shared by the serial path and the parallel
    shard ordering, so the two executors can never batch differently.
    """
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(
            (cell.config, cell.config.label, cell.duration), []
        ).append(index)
    return groups


def _measure_on(
    machine: Machine,
    cells: Sequence[PlanCell],
    persist=None,
    plan: ExperimentPlan | None = None,
) -> list[Measurement]:
    """Measure ``cells`` on ``machine``, grouped by configuration.

    Without a ``persist`` callback the whole shard evaluates as one
    :meth:`Machine.run_cells` batch, so the vectorized measurement
    plane sees every configuration of the shard in a single tensor
    pass; with ``plan`` given (the whole plan is being measured cold,
    in plan-cell order), the plane additionally compiles and caches a
    fused tensor program under the plan, so re-executions skip
    compilation entirely.  With ``persist(cells, measurements)`` --
    called after each configuration group so progress stays durable
    mid-campaign -- the shard evaluates group by group through
    ``run_many``; grouping preserves first-seen configuration order
    either way, and the output list is in ``cells`` order.
    """
    fault_plan = faults.active()
    if fault_plan is not None and fault_plan.wants("poison"):
        for cell in cells:
            fault_plan.maybe_poison(faults.cell_key(cell))
    if persist is None:
        return machine.run_cells(cells, plan=plan)
    out: list[Measurement | None] = [None] * len(cells)
    for (config, label, duration), indices in _group_cells(cells).items():
        if fault_plan is not None and fault_plan.wants("slow"):
            fault_plan.maybe_slow(f"batch:{label}:{duration}")
        measurements = machine.run_many(
            [cells[index].workload for index in indices], config, duration
        )
        for index, measurement in zip(indices, measurements):
            out[index] = measurement
        persist(
            [cells[index] for index in indices], measurements
        )
    return out  # type: ignore[return-value]


def _degraded_cells(
    machine: Machine,
    cells: Sequence[PlanCell],
    persist,
    builder: ReportBuilder,
    retries: int,
    key_of=None,
) -> list[Measurement | None]:
    """Last-resort serial re-execution, one cell at a time.

    Each cell gets its own bounded retry budget; a cell that still
    fails is quarantined into a CellFailure (``None`` in the result
    slot) instead of poisoning its whole batch.  Measurement is pure,
    so cells that *do* succeed here are bit-identical to a fault-free
    run.
    """
    builder.count("degraded_cells", len(cells))
    out: list[Measurement | None] = []
    for cell in cells:
        measurement: Measurement | None = None
        attempt = 0
        while True:
            try:
                measurement = _measure_on(machine, [cell], None)[0]
                break
            except Exception as exc:
                if attempt >= retries:
                    failure = builder.quarantine(
                        cell,
                        attempt + 1,
                        exc,
                        key_of(cell) if key_of is not None else None,
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


class _ExecutorBase:
    """Shared store/plan/fault-handling plumbing of the executors."""

    def __init__(
        self,
        machine: Machine,
        store: ResultStore | None = None,
        retries: int | None = None,
        timeout: float | None = None,
    ) -> None:
        self.machine = machine
        self.store = store
        #: Bounded retry budget (chunks, degraded cells, store appends).
        self.retries = (
            retries
            if retries is not None
            else _env_int("REPRO_RETRIES", DEFAULT_RETRIES)
        )
        #: Per-chunk watchdog deadline, seconds.
        self.timeout = (
            timeout
            if timeout is not None
            else _env_float("REPRO_TIMEOUT", DEFAULT_TIMEOUT_S)
        )
        #: The last execution's report (also returned by execute()).
        self.last_report: ExecutionReport | None = None
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
        store serves -- the campaign service uses it for its
        single-flight dedup registry, so service-side identity can
        never drift from store identity.
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

    def execute(self, plan: ExperimentPlan, progress=None) -> ExecutionReport:
        """Execute the plan; the full structured outcome.

        The plan's configurations are validated against the machine
        up front (:meth:`ExperimentPlan.validate_against`), so an
        infeasible sweep raises ``PlanValidationError`` before any
        cell is measured or served from the store.  With a store
        attached, a per-run journal is written next to it; re-running
        an interrupted campaign resumes measuring only the cells the
        store does not already hold.

        ``progress``, if given, is called as ``progress(cells,
        measurements, warm)`` whenever a batch of unique cells lands:
        once with ``warm=True`` for the store-served cells (if any),
        then per measured batch with ``warm=False`` as results arrive
        -- the streaming hook the campaign service fans results out on.
        Quarantined cells never reach ``progress``; they surface in the
        returned report's failures.  Note that a ``progress`` callback
        forces per-batch evaluation on store-less plans (the same
        granularity a store's persistence cadence imposes anyway).
        """
        plan.validate_against(self.machine)
        cells = plan.cells
        builder = ReportBuilder()
        results: list[Measurement | None] = [None] * len(cells)
        journal: RunJournal | None = None
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
            journal = RunJournal(self.store.root, run_id(keys))
            journal.start(len(cells), plan.describe())
            misses = []
            for index, cell in enumerate(cells):
                found = self.store.get(keys[index])
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
                self._persist(batch_cells, batch_measurements, journal, builder)

        if progress is not None:
            warm_indices = [
                index for index in range(len(cells)) if index not in set(misses)
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
            # Persistence happens inside _measure_cells (per batch /
            # per chunk), so an interrupted campaign keeps everything
            # measured so far; re-runs resume from the store.  Without
            # a store there is nothing to persist, and passing no
            # callback lets the measurement plane evaluate the whole
            # miss set as one tensor pass.  A fully cold store-less
            # run measures the plan's own cell list verbatim, so the
            # plan rides along as the vector plane's program-cache
            # key: repeated executions of the same plan object jump
            # straight to the compiled fused program.
            plan_hint = (
                plan if persist is None and len(misses) == len(cells) else None
            )
            measured = self._measure_cells(
                [cells[index] for index in misses], persist, builder,
                plan=plan_hint,
            )
            for index, measurement in zip(misses, measured):
                results[index] = measurement
        if self.store is not None:
            for name, value in self.store.fault_stats().items():
                delta = value - store_faults_before.get(name, 0)
                builder.count(f"store_{name}", delta)
        if journal is not None:
            journal.mark_quarantined(builder.failures)
            journal.complete(
                sum(1 for index in misses if results[index] is not None),
                builder.counters,
            )
        report = builder.build(plan.expand(results))
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
        journal: RunJournal | None = None,
        builder: ReportBuilder | None = None,
    ) -> None:
        """Persist one measured batch, one locked write per touched shard.

        Each shard group carries its own bounded ``OSError`` retry
        budget (a transient fault on one shard must not starve the
        others), and already-appended groups are never re-written by a
        later group's retry.  A group abandoned after the budget is
        logged and counted, never raised -- the measurements are
        already in memory and at worst re-measure next run.
        """
        if self.store is None:
            return
        by_shard: dict[str, list[tuple[str, Measurement]]] = {}
        for cell, measurement in zip(cells, measurements):
            key = self._key(cell)
            by_shard.setdefault(key[:2], []).append((key, measurement))
        landed: list[str] = []
        for name, entries in by_shard.items():
            attempt = 0
            while True:
                try:
                    self.store.put_many(entries)
                    landed.extend(key for key, _ in entries)
                    break
                except OSError as exc:
                    if attempt >= self.retries:
                        if builder is not None:
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
                    if builder is not None:
                        builder.count("store_put_retries")
                    _backoff_sleep(attempt)
                    attempt += 1
        if journal is not None and landed:
            journal.mark_done(landed)

    def _key_of(self):
        """Per-cell store-key function for failure records (or None)."""
        return self._key if self.store is not None else None

    def _measure_inprocess(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        """In-process measurement with per-cell degraded fallback."""
        try:
            return _measure_on(self.machine, cells, persist, plan=plan)
        except Exception as exc:
            builder.count("batch_failures")
            logger.warning(
                "batch of %d cells failed in-process (%s: %s); "
                "re-executing cell by cell",
                len(cells),
                type(exc).__name__,
                exc,
            )
            return _degraded_cells(
                self.machine,
                cells,
                persist,
                builder,
                self.retries,
                self._key_of(),
            )

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        raise NotImplementedError


class SerialExecutor(_ExecutorBase):
    """In-process execution, batched per configuration."""

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        logger.info("serial: measuring %d cells", len(cells))
        return self._measure_inprocess(cells, persist, builder, plan=plan)


# -- worker-process plumbing ---------------------------------------------------

_WORKER_MACHINE: Machine | None = None


def _init_worker(arch_name: str, seed: int) -> None:
    """Build this worker's machine from the architecture registry.

    Measurements depend only on the (deterministically parsed)
    architecture definition and the seed, so a registry rebuild is
    substrate-identical to the parent's machine; worker caches start
    cold and warm up over the shard.

    SIGINT is ignored: Ctrl-C on a parallel campaign is delivered to
    the whole foreground process *group*, and workers that die on it
    spew per-worker tracebacks and can deadlock pool shutdown.  The
    parent alone handles the interrupt and tears the pool down
    cleanly (pool terminate sends SIGTERM, which workers still honor).
    """
    global _WORKER_MACHINE
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.march.definition import get_architecture

    _WORKER_MACHINE = Machine(get_architecture(arch_name), seed)


def _run_chunk(payload) -> list[Measurement]:
    """Worker entry: measure one chunk (shipped with its attempt number).

    The attempt number exists purely for deterministic fault injection
    -- transient faults fire on early attempts and stop, so retried
    chunks succeed reproducibly.
    """
    cells, attempt = payload
    assert _WORKER_MACHINE is not None, "worker initializer did not run"
    fault_plan = faults.active()
    if fault_plan is not None:
        key = faults.chunk_key(cells)
        fault_plan.maybe_crash(key, attempt)
        fault_plan.maybe_hang(key, attempt)
        fault_plan.maybe_slow(key)
    return _measure_on(_WORKER_MACHINE, cells)


def _shutdown_pool(pool) -> None:
    """Finalizer target: release a worker pool's processes."""
    pool.terminate()
    pool.join()


class ParallelExecutor(_ExecutorBase):
    """Multiprocessing execution: plan cells sharded across workers.

    Bit-identical to :class:`SerialExecutor` -- same counters, same
    powers, same noise draws -- because nothing in a measurement
    depends on *where* or *in what order* it ran.  Cells are ordered
    configuration-major before sharding so chunks batch well, shipped
    to a worker pool, and reassembled in plan order.

    Fault tolerance: every chunk carries a deadline
    (``timeout``/``REPRO_TIMEOUT``), and a watchdog polls in-flight
    chunks for expiry and the pool for dead worker processes.  Either
    signal tears the pool down, respawns it, and resubmits every chunk
    whose result had not landed (their attempt counts advance; an
    innocent chunk caught in a respawn re-measures to bit-identical
    results, so collateral retries cost time, never correctness).
    After ``retries`` failed attempts a chunk drops to degraded
    in-process execution, where only individually failing cells are
    quarantined.

    Workers rebuild their machines from the architecture registry by
    name, which is only sound if the registry's definition content
    matches this machine's architecture -- verified by comparing
    :meth:`~repro.march.definition.MicroArchitecture.content_digest`.
    Execution falls back in-process when the digests differ (a
    customized architecture), when the architecture is not registered
    at all, when only one worker is requested, or when the shard would
    be trivial.

    The worker pool persists across ``run()`` calls, so repeated plans
    (GA generations, DSE batches) reuse warm worker-side summary
    caches; call :meth:`close` (or use the executor as a context
    manager) to release the processes early.
    """

    def __init__(
        self,
        machine: Machine,
        workers: int | None = None,
        store: ResultStore | None = None,
        chunk_size: int | None = None,
        start_method: str | None = None,
        retries: int | None = None,
        timeout: float | None = None,
    ) -> None:
        super().__init__(machine, store, retries=retries, timeout=timeout)
        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.start_method = start_method
        self._pool = None
        self._pool_finalizer = None
        self._worker_pids: set[int] = set()
        # (parent arch digest, verdict) of the last rebuild probe.
        self._rebuild_probe: tuple[int, bool] | None = None
        # Per-cluster-class rebuild verdicts (topology plans).
        self._cluster_probe: dict[str, bool] = {}

    def _resolve_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"

    def _workers_can_rebuild(self) -> bool:
        """Whether a registry rebuild reproduces this machine's arch.

        Probed by content digest -- through the base class's
        per-architecture-object memo, so steady-state parallel runs pay
        no digest rendering -- and memoized against the digest value,
        so swapping in an edited architecture re-probes the registry.
        """
        from repro.march.definition import get_architecture

        self._refresh_arch_digest()
        mine = self._arch_digest
        if self._rebuild_probe is not None and self._rebuild_probe[0] == mine:
            return self._rebuild_probe[1]
        try:
            registry = get_architecture(self.machine.arch.name)
            sound = registry.content_digest() == mine
        except UnknownArchitectureError:
            sound = False
        self._rebuild_probe = (mine, sound)
        return sound

    def _workers_can_rebuild_clusters(self, cells: Sequence[PlanCell]) -> bool:
        """Whether workers can rebuild every cluster class ``cells`` use.

        Workers resolve topology cluster classes lazily through the
        architecture registry, so a user-supplied class the registry
        cannot reproduce -- unregistered, or resolved then mutated in
        place on this machine -- would only surface *inside* a worker,
        as chunk failures degrading to in-process retries.  Probing the
        digests up front turns that silent degradation into one clear
        fallback decision (and a log line naming the class).  Verdicts
        memoize per class name: cluster classes resolve through the
        registry and are never sanctioned for in-place mutation, so one
        probe per executor lifetime is sound.
        """
        from repro.march.definition import get_architecture

        for cell in cells:
            if not isinstance(cell.config, ChipTopology):
                continue
            for cluster in cell.config.clusters:
                core_class = cluster.core_class
                if self.machine._class_key(core_class) is None:
                    continue  # the base class rides _workers_can_rebuild
                sound = self._cluster_probe.get(core_class)
                if sound is None:
                    try:
                        sound = (
                            get_architecture(core_class).content_digest()
                            == self.machine.cluster_arch(
                                core_class
                            ).content_digest()
                        )
                    except MicroProbeError:
                        sound = False
                    self._cluster_probe[core_class] = sound
                if not sound:
                    logger.warning(
                        "cluster core class %r cannot be rebuilt from "
                        "the registry (unregistered, or customized away "
                        "from the bundled definition); falling back to "
                        "in-process execution to preserve bit-identity",
                        core_class,
                    )
                    return False
        return True

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context(self._resolve_start_method())
            self._pool = context.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.machine.arch.name, self.machine.seed),
            )
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
            self._worker_pids = {
                process.pid
                for process in getattr(self._pool, "_pool", ())
                if process.pid is not None
            }
        return self._pool

    def close(self) -> None:
        """Release the worker pool (recreated lazily on the next run)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
        self._pool = None
        self._worker_pids = set()

    def _dead_workers(self) -> int:
        """Dead worker processes detected in the current pool.

        Counts workers with an exit code *and* PID drift against the
        pool's creation-time set: ``multiprocessing.Pool`` quietly
        repopulates dead workers (losing their in-flight task forever),
        so a replaced PID is the footprint of a death the exit-code
        check can miss.
        """
        processes = list(getattr(self._pool, "_pool", ()))
        if not processes:
            return 0
        exited = sum(
            1 for process in processes if process.exitcode is not None
        )
        if exited:
            return exited
        current = {
            process.pid for process in processes if process.pid is not None
        }
        return len(current - self._worker_pids)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def _measure_cells(
        self,
        cells: Sequence[PlanCell],
        persist,
        builder: ReportBuilder,
        plan: ExperimentPlan | None = None,
    ) -> list[Measurement | None]:
        workers = min(self.workers, len(cells))
        if workers <= 1:
            logger.info(
                "parallel: shard too small, measuring %d cells in-process",
                len(cells),
            )
            return self._measure_inprocess(cells, persist, builder, plan=plan)
        if not self._workers_can_rebuild():
            logger.warning(
                "architecture %r cannot be rebuilt from the registry "
                "(unregistered, or customized away from the bundled "
                "definition); falling back to in-process execution to "
                "preserve bit-identity",
                self.machine.arch.name,
            )
            return self._measure_inprocess(cells, persist, builder, plan=plan)
        if not self._workers_can_rebuild_clusters(cells):
            # _workers_can_rebuild_clusters already logged which class.
            return self._measure_inprocess(cells, persist, builder, plan=plan)

        # Configuration-major ordering keeps each chunk's run_many
        # batches large; the index map restores cell order afterwards.
        ordered_indices = [
            index
            for indices in _group_cells(cells).values()
            for index in indices
        ]
        ordered_cells = [cells[index] for index in ordered_indices]

        chunk_size = self.chunk_size or max(
            1, math.ceil(len(ordered_cells) / (workers * _CHUNKS_PER_WORKER))
        )
        chunks = [
            ordered_cells[start : start + chunk_size]
            for start in range(0, len(ordered_cells), chunk_size)
        ]
        logger.info(
            "parallel: %d cells in %d chunks across %d workers (%s), "
            "%.0fs chunk deadline, %d retries",
            len(cells),
            len(chunks),
            workers,
            self._resolve_start_method(),
            self.timeout,
            self.retries,
        )
        completed = self._drive_chunks(chunks, persist, builder)
        flat = [
            measurement
            for number in range(len(chunks))
            for measurement in completed[number]
        ]
        out: list[Measurement | None] = [None] * len(cells)
        for index, measurement in zip(ordered_indices, flat):
            out[index] = measurement
        return out

    def _drive_chunks(
        self, chunks: list, persist, builder: ReportBuilder
    ) -> dict[int, list]:
        """Submit every chunk; harvest with watchdog-guarded deadlines.

        Returns chunk-index -> measurement list (``None`` entries for
        quarantined cells).  Chunks whose retry budget is exhausted are
        re-executed in degraded in-process mode at the end.
        """
        pool = self._ensure_pool()
        attempts = [0] * len(chunks)
        inflight: dict[int, tuple] = {}
        completed: dict[int, list] = {}
        degraded: list[int] = []

        def submit(number: int) -> None:
            inflight[number] = (
                pool.apply_async(
                    _run_chunk, ((chunks[number], attempts[number]),)
                ),
                time.monotonic(),
            )

        def note_failure(number: int) -> bool:
            """Advance a chunk's attempt count; True if it may retry."""
            attempts[number] += 1
            if attempts[number] > self.retries:
                degraded.append(number)
                return False
            builder.count("retries")
            return True

        for number in range(len(chunks)):
            submit(number)
        while inflight:
            progressed = False
            for number in list(inflight):
                result, _submitted = inflight[number]
                if not result.ready():
                    continue
                del inflight[number]
                progressed = True
                try:
                    measurements = result.get()
                except Exception as exc:
                    # The worker survived but the chunk raised (e.g. a
                    # poisoned cell): retry the chunk alone -- no pool
                    # respawn -- then degrade it so the failure narrows
                    # to its cell.
                    builder.count("worker_errors")
                    logger.warning(
                        "parallel: chunk %d/%d raised in worker (%s: %s)",
                        number + 1,
                        len(chunks),
                        type(exc).__name__,
                        exc,
                    )
                    if note_failure(number):
                        _backoff_sleep(attempts[number] - 1)
                        submit(number)
                else:
                    if persist is not None:
                        # Per-chunk persistence: an interrupted campaign
                        # resumes from everything already returned, and
                        # each chunk lands as one batched store write.
                        persist(chunks[number], measurements)
                    completed[number] = measurements
                    logger.info(
                        "parallel: chunk %d/%d done (%d/%d chunks)",
                        number + 1,
                        len(chunks),
                        len(completed),
                        len(chunks),
                    )
            if not inflight or progressed:
                continue
            now = time.monotonic()
            dead = self._dead_workers()
            expired = [
                number
                for number, (result, submitted) in inflight.items()
                if now - submitted > self.timeout
            ]
            if not dead and not expired:
                time.sleep(_POLL_INTERVAL_S)
                continue
            # A dead or wedged worker poisons the whole pool: its
            # in-flight task is lost forever, and we cannot know which
            # chunk it held.  Tear everything down, respawn, and
            # resubmit every unharvested chunk with an advanced attempt
            # count (collateral retries of innocent chunks re-measure
            # to bit-identical results).
            builder.count("worker_deaths", dead)
            builder.count("chunk_timeouts", len(expired))
            builder.count("worker_respawns")
            logger.warning(
                "parallel: %s; respawning pool and resubmitting %d "
                "in-flight chunk(s)",
                " and ".join(
                    part
                    for part in (
                        f"{dead} dead worker(s)" if dead else "",
                        f"{len(expired)} chunk(s) past the {self.timeout:.0f}s "
                        "deadline"
                        if expired
                        else "",
                    )
                    if part
                ),
                len(inflight),
            )
            stale = sorted(inflight)
            inflight.clear()
            self.close()
            pool = self._ensure_pool()
            retryable = [number for number in stale if note_failure(number)]
            if retryable:
                _backoff_sleep(max(attempts[number] for number in retryable) - 1)
                for number in retryable:
                    submit(number)
        if degraded:
            logger.warning(
                "parallel: %d chunk(s) exhausted their %d retries; "
                "re-executing in-process (degraded mode)",
                len(degraded),
                self.retries,
            )
            for number in sorted(degraded):
                completed[number] = _degraded_cells(
                    self.machine,
                    chunks[number],
                    persist,
                    builder,
                    self.retries,
                    self._key_of(),
                )
        return completed


def default_executor(
    machine: Machine,
    parallel: int | None = None,
    store: ResultStore | str | None = None,
) -> _ExecutorBase:
    """The executor the environment asks for.

    ``REPRO_STORE`` (a directory path) attaches a persistent
    :class:`ResultStore`; ``REPRO_PARALLEL`` (a worker count > 1)
    selects the :class:`ParallelExecutor`.  ``REPRO_RETRIES`` and
    ``REPRO_TIMEOUT`` tune the fault-tolerance envelope either way.
    Explicit arguments win over the environment.  With neither, this
    is a plain :class:`SerialExecutor` -- the exact historical
    behaviour.
    """
    if store is None:
        store_dir = os.environ.get("REPRO_STORE")
        store = ResultStore(store_dir) if store_dir else None
    elif isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)
    if parallel is None:
        try:
            parallel = int(os.environ.get("REPRO_PARALLEL", "0"))
        except ValueError:
            parallel = 0
    if parallel and parallel > 1:
        return ParallelExecutor(machine, workers=parallel, store=store)
    return SerialExecutor(machine, store=store)
