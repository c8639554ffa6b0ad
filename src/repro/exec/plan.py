"""Declarative experiment plans: what to measure, expressed as data.

Every measurement campaign in the system -- the 24-configuration
CMP/SMT sweep, the section-4 training suites, the Figure-9
stressmark search -- reduces to the same shape: a set of
*cells*, each one workload (or placement) on one configuration for one
window.  An :class:`ExperimentPlan` captures that cross product
declaratively, deduplicates cells that describe the same physical
measurement, and gives every cell a deterministic content-addressed
key derived from the same kernel digests the evaluation engine's
summary memoization uses.  Executors (:mod:`repro.exec.executors`)
consume plans; the :class:`~repro.exec.store.ResultStore` persists
results under the cell keys.

A plan is columnar (:class:`~repro.sim.cells.CellColumns`): a workload
table, a configuration table and a window table, each entry
fingerprinted once, and one int index column per axis over the unique
cells.  :class:`PlanCell` is the row view for callers that iterate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import MeasurementError, PlanValidationError
from repro.hashing import content_hash, content_hex
from repro.measure.measurement import DEFAULT_DURATION_S
from repro.sim.cells import CellColumns, first_seen
from repro.sim.config import MachineConfig
from repro.sim.placement import Placement, workload_key
from repro.sim.pstate import PState
from repro.sim.topology import ChipTopology, canonical_config


def workload_fingerprint(workload: object) -> tuple:
    """Deterministic, process-stable identity of one plan workload.

    Kernels are identified by name plus analytic-content digest (the
    identity :class:`~repro.sim.summary.KernelSummary` memoization
    already keys on); placements by name, canonical salt and the
    recursive fingerprints of their threads in declaration order
    (counter readings keep declaration order, so two placements that
    permute co-runners are *different* cells even though their power
    draws coincide, while a same-named co-runner with different
    content stays distinct); profiled workloads by name plus a digest
    of their profile content; anything else by its protocol name --
    the one place a caller-defined workload type must either keep
    names unique or expose a ``fingerprint()`` method (which overrides
    all of the above) to avoid aliasing.
    """
    custom = getattr(workload, "fingerprint", None)
    if callable(custom):
        return tuple(custom())
    if isinstance(workload, Placement):
        # Placements are frozen; their recursive fingerprint is pure
        # content, so cache it on the instance the same way kernels
        # cache their digest.  Interned wire objects (serialize.py)
        # are fingerprinted once per process instead of once per
        # request.
        cached = workload.__dict__.get("_fingerprint")
        if cached is None:
            threads = workload.thread_workloads
            distinct = {id(thread): thread for thread in threads}
            prints = {
                key: workload_fingerprint(thread)
                for key, thread in distinct.items()
            }
            cached = (
                "placement",
                workload.name,
                workload.canonical_salt(),
                tuple(prints[id(thread)] for thread in threads),
            )
            object.__setattr__(workload, "_fingerprint", cached)
        return cached
    profile = getattr(workload, "profile", None)
    if profile is not None:
        cached = getattr(workload, "_fingerprint", None)
        if cached is None:
            name = getattr(workload, "name", type(workload).__name__)
            cached = ("profile", name, content_hash(repr(profile)))
            try:
                workload._fingerprint = cached  # type: ignore[attr-defined]
            except (AttributeError, TypeError):
                pass  # exotic profile carriers may refuse attributes
        return cached
    # Kernels and bare protocol workloads share the noise-salt identity
    # (delegation, so the store/dedup identity can never drift from the
    # physical noise identity): ("kernel", name, digest) for kernels,
    # ("workload", name, 0) otherwise.
    return workload_key(workload)


def sweep_configs(
    configs: Sequence[MachineConfig],
    p_states: Sequence[PState] | None = None,
) -> list[MachineConfig]:
    """Cross a configuration list with a DVFS ladder, p-state-major.

    The single definition of the sweep order (the whole CMP-SMT list
    repeated per operating point, as a DVFS campaign runs it) shared by
    :meth:`ExperimentPlan.cross` and the measurement runner's
    ``run_sweep``.  ``p_states=None`` returns the list as given.
    """
    swept = list(configs)
    if p_states is not None:
        swept = [
            config.with_p_state(p_state)
            for p_state in p_states
            for config in swept
        ]
    return swept


def _key_parts(
    config,
    duration: float,
    arch_name: str,
    machine_seed: int,
    arch_digest: int,
    cluster_digests: "dict[str | None, int] | None",
) -> tuple[str, str]:
    """The text of a cell key before and after its workload fingerprint
    (see :meth:`PlanCell.key`)."""
    if isinstance(config, ChipTopology):
        digests = cluster_digests or {}
        head = [
            "cell-topo-v1", arch_name, arch_digest, machine_seed, duration
        ]
        tail = [
            (
                cluster.name,
                cluster.core_class or "",
                digests.get(cluster.core_class, 0),
                cluster.cores,
                cluster.smt,
                cluster.p_state.name,
                cluster.p_state.freq_scale,
                cluster.p_state.volt_scale,
            )
            for cluster in config.clusters
        ]
    else:
        p_state: PState = config.p_state
        head = [
            "cell-v1",
            arch_name,
            arch_digest,
            machine_seed,
            config.cores,
            config.smt,
            p_state.name,
            p_state.freq_scale,
            p_state.volt_scale,
            duration,
        ]
        tail = []
    return (
        "".join(f"{part}|" for part in map(str, head)),
        "".join(f"|{part}" for part in map(str, tail)),
    )


@dataclass(frozen=True)
class PlanCell:
    """One measurement: one workload on one configuration for one window.

    ``config`` is a :class:`~repro.sim.config.MachineConfig` or a
    heterogeneous :class:`~repro.sim.topology.ChipTopology`.  A
    degenerate single-cluster topology is collapsed to its
    MachineConfig at construction, so the two spellings of the same
    physical chip share one cell identity -- and therefore one store
    key, one dedup slot and one noise seed.
    """

    workload: object
    config: MachineConfig | ChipTopology
    duration: float = DEFAULT_DURATION_S

    def __post_init__(self) -> None:
        canonical = canonical_config(self.config)
        if canonical is not self.config:
            object.__setattr__(self, "config", canonical)

    def identity(self) -> tuple:
        """Machine-independent identity, used for in-plan deduplication.

        Includes the configuration label alongside the configuration:
        ``PState`` equality deliberately ignores the operating-point
        *name*, but the label (which embeds it) seeds sensor noise, so
        two same-scale points with different names are physically
        distinct measurements and must never dedup into one cell.
        """
        return (
            workload_fingerprint(self.workload),
            self.config,
            self.config.label,
            self.duration,
        )

    def key(
        self,
        arch_name: str,
        machine_seed: int,
        arch_digest: int = 0,
        cluster_digests: "dict[str | None, int] | None" = None,
    ) -> str:
        """Content-addressed store key of this cell on one machine.

        Everything the measurement depends on flows in: the
        architecture -- by name *and* definition-content digest
        (:meth:`~repro.march.definition.MicroArchitecture.content_digest`),
        so editing a bundled ``.isa``/``.march`` file invalidates
        stale store entries rather than silently serving them -- the
        machine seed (which seeds sensor noise), the workload's content
        fingerprint (kernel digests -- two kernels sharing a name never
        collide), the CMP-SMT mode, the operating point (name *and*
        physical scales: the name enters the noise seed through the
        configuration label, the scales enter the physics), and the
        window length.

        Topology cells use a ``cell-topo-v1`` key folding every
        cluster's shape *and* its core class's own definition digest
        (``cluster_digests``, by class name; the base class under
        ``None``), so editing the eco definition invalidates exactly
        the cells whose little clusters measured on it.  Degenerate
        topologies were collapsed at construction and produce the
        historical ``cell-v1`` key bit for bit.
        """
        head, tail = _key_parts(
            self.config,
            self.duration,
            arch_name,
            machine_seed,
            arch_digest,
            cluster_digests,
        )
        return content_hex(
            head + str(workload_fingerprint(self.workload)) + tail
        )


def _classes(identities: Iterable) -> np.ndarray:
    """Identity class of each table entry, numbered in first-seen order."""
    number: dict = {}
    return np.fromiter(
        (number.setdefault(identity, len(number)) for identity in identities),
        dtype=np.intp,
    )


def _compact(table: Sequence, column: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The entries ``column`` references, in first-reference order, and
    ``column`` re-indexed onto them."""
    if len(column):
        running = np.maximum.accumulate(column)
        if (
            column[0] == 0
            and running[-1] == len(table) - 1
            and (np.diff(running) <= 1).all()
        ):
            return tuple(table), column  # already compact, in order
    firsts, ranks = first_seen(column)
    return tuple(table[index] for index in column[firsts].tolist()), ranks


class ExperimentPlan:
    """A deduplicated, ordered collection of measurement cells.

    The plan remembers every *requested* cell but holds each distinct
    physical measurement once: :attr:`columns` holds the unique cells
    an executor measures, and :meth:`expand` fans unique results back
    out to the requested order.  Construction order is preserved, so an
    executor that walks the unique cells front to back reproduces the
    historical serial measurement order.

    ``cells`` is any iterable of :class:`PlanCell` or, as the
    constructors below and the wire decoder build it, a
    :class:`~repro.sim.cells.CellColumns` of the requested cells.  Each
    table entry is fingerprinted once; a unique cell keeps the
    identity of (workload fingerprint, configuration, configuration
    label, window) and the objects of the first requested cell with
    that identity.
    """

    def __init__(self, cells: Iterable[PlanCell] | CellColumns) -> None:
        requested = (
            cells
            if isinstance(cells, CellColumns)
            else CellColumns.from_rows(cells)
        )
        configs = [canonical_config(config) for config in requested.configs]
        tables = (requested.workloads, configs, requested.durations)
        classes = (
            _classes(map(workload_fingerprint, requested.workloads)),
            _classes((config, config.label) for config in configs),
            _classes(requested.durations),
        )
        columns = [
            requested.workload_index,
            requested.config_index,
            requested.duration_index,
        ]
        # One int code per requested cell, equal exactly when the
        # identities are.
        codes = np.zeros(len(columns[0]), dtype=np.int64)
        span = 1
        for table_classes, column in zip(classes, columns):
            count = int(table_classes.max(initial=-1)) + 1
            if span * count >= 2**62:  # re-rank before the codes overflow
                firsts, codes = first_seen(codes)
                span = len(firsts)
            codes = codes * count + table_classes[column]
            span *= count
        self._expansion: np.ndarray | None = None
        # All distinct (a cross of distinct workloads and configurations
        # always is) unless a code repeats.
        if not (
            span <= 8 * len(codes) + 1024
            and np.bincount(codes).max(initial=0) <= 1
        ):
            positions, expansion = first_seen(codes)
            if len(positions) < len(codes):
                self._expansion = expansion
                columns = [column[positions] for column in columns]
        compact = [
            _compact(table, column) for table, column in zip(tables, columns)
        ]
        self.columns = CellColumns(
            *(table for table, _ in compact),
            *(column for _, column in compact),
        )
        #: Distinct physical measurements the plan requires.
        self.size = len(self.columns)
        #: Cells as requested, duplicates included.
        self.requested = len(codes)
        self._cells: tuple[PlanCell, ...] | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def cross(
        cls,
        workloads: Sequence[object],
        configs: Sequence[MachineConfig],
        p_states: Sequence[PState] | None = None,
        duration: float = DEFAULT_DURATION_S,
    ) -> "ExperimentPlan":
        """The cross product ``configs x workloads``, configuration-major.

        Passing ``p_states`` crosses the configuration list with that
        DVFS ladder first (via :func:`sweep_configs`, p-state-major,
        the order a DVFS campaign runs): the scenario count grows to
        ``|p_states| x |configs| x |workloads|``.  Requested order is
        configuration-major with workloads innermost, so the cells of
        configuration ``i`` are the contiguous slice ``[i *
        len(workloads), (i + 1) * len(workloads))`` of the expanded
        results.
        """
        return cls.crosses(
            [(workloads, sweep_configs(configs, p_states))], duration
        )

    @classmethod
    def crosses(
        cls,
        blocks: Iterable[tuple[Sequence[object], Sequence[MachineConfig]]],
        duration: float = DEFAULT_DURATION_S,
    ) -> "ExperimentPlan":
        """The union of ``(workloads, configs)`` crosses, block by block.

        Requested order is each block's :meth:`cross` order in turn; a
        cell two blocks share is measured once.  Built as columns: the
        blocks' workloads and configurations are fingerprinted once
        each, never once per cell.
        """
        workloads: list = []
        configs: list = []
        by_workload = []
        by_config = []
        for block_workloads, block_configs in blocks:
            first_workload, first_config = len(workloads), len(configs)
            workloads.extend(block_workloads)
            configs.extend(block_configs)
            width = len(workloads) - first_workload
            height = len(configs) - first_config
            by_workload.append(
                np.tile(np.arange(first_workload, len(workloads)), height)
            )
            by_config.append(
                np.repeat(np.arange(first_config, len(configs)), width)
            )
        count = sum(map(len, by_workload))
        return cls(
            CellColumns(
                workloads,
                configs,
                [duration],
                np.concatenate(by_workload) if by_workload else (),
                np.concatenate(by_config) if by_config else (),
                np.zeros(count, dtype=np.intp),
            )
        )

    @classmethod
    def single(
        cls,
        workload: object,
        config: MachineConfig,
        duration: float = DEFAULT_DURATION_S,
    ) -> "ExperimentPlan":
        """A one-cell plan."""
        return cls.crosses([([workload], [config])], duration)

    # -- shape -----------------------------------------------------------------

    @property
    def cells(self) -> tuple[PlanCell, ...]:
        """The unique cells as :class:`PlanCell` rows, in plan order.

        Built on first use and cached, so repeated reads return the
        same row objects.
        """
        if self._cells is None:
            self._cells = tuple(PlanCell(*cell) for cell in self.columns)
        return self._cells

    def keys(
        self,
        arch_name: str,
        machine_seed: int,
        arch_digest: int = 0,
        cluster_digests: "Callable[[ChipTopology], dict] | None" = None,
    ) -> list[str]:
        """Every unique cell's :meth:`PlanCell.key`, in plan order.

        The key text is joined from parts computed once: one per
        (configuration, window) pair, one per workload.
        ``cluster_digests(topology)`` gives a topology's per-class
        definition digests.
        """
        columns = self.columns
        windows = len(columns.durations)
        parts = [
            _key_parts(
                config,
                duration,
                arch_name,
                machine_seed,
                arch_digest,
                cluster_digests(config)
                if cluster_digests is not None
                and isinstance(config, ChipTopology)
                else None,
            )
            for config in columns.configs
            for duration in columns.durations
        ]
        prints = [
            str(workload_fingerprint(workload))
            for workload in columns.workloads
        ]
        pairs = columns.config_index * windows + columns.duration_index
        return [
            content_hex(parts[pair][0] + prints[workload] + parts[pair][1])
            for pair, workload in zip(
                pairs.tolist(), columns.workload_index.tolist()
            )
        ]

    def validate_against(self, machine) -> "ExperimentPlan":
        """Fail fast if some cell's configuration cannot run on ``machine``.

        Checks every distinct configuration of the plan -- CMP-SMT
        modes against the chip geometry, topology clusters against
        their core classes' geometries -- *before* anything is
        measured, so a bad sweep ladder surfaces as one clear
        :class:`~repro.errors.PlanValidationError` (a ``ReproError``)
        at plan-build time instead of a deep failure mid-campaign.
        Returns the plan for call chaining.
        """
        for config in self.columns.configs:
            try:
                machine.validate_config(config)
            except MeasurementError as exc:
                raise PlanValidationError(
                    f"plan cell cannot run on {machine.arch.name}: {exc}"
                ) from None
        return self

    def expand(self, unique_results: Sequence) -> list:
        """Fan per-unique-cell results back out to requested order."""
        if len(unique_results) != self.size:
            raise ValueError(
                f"expected {self.size} unique results, "
                f"got {len(unique_results)}"
            )
        if self._expansion is None:
            return list(unique_results)
        return [unique_results[index] for index in self._expansion.tolist()]

    def describe(self) -> str:
        """One-line summary for logs."""
        configs = {config.label for config in self.columns.configs}
        return (
            f"{self.size} unique cells ({self.requested} requested) "
            f"across {len(configs)} configuration(s)"
        )
