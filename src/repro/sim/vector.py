"""The measurement plane: whole cell batches as fused tensor programs.

Every measurement the machine takes runs here.  One batch of
``(workload, configuration, window)`` cells -- any mix of
configurations, heterogeneous :class:`~repro.sim.topology.ChipTopology`
chips, windows and workload kinds -- compiles once into a fused program
(:class:`_FusedProgram`) and executes as whole-array passes.

Every chip is a list of segments (:func:`_chip`, which also gives its
static power): a ``MachineConfig`` is one segment on the base
:class:`_Lane`, a topology one segment per cluster on the lane of that
cluster's core class (its own index spaces, widths, unit mix, cache
latencies, clock and energy scale).  Cells compile into two spans:

* the **kernel span** (:class:`_FusedSpan`): plain kernel cells, one
  row per (cell, segment) in its lane's table, gathered from the lane's
  canonical stack -- :class:`PackedKernel` summaries (LRU by kernel
  digest) stacked into ``(kernels x units)`` / ``(kernels x levels)``
  matrices under a digest-sorted batch key, so permuted compositions
  of one kernel set share one stack;
* the **activity-row span** (:class:`_FusedRowSpan`): every other
  thread runs a resolved nominal activity -- a protocol workload's
  ``thread_activity`` (once per workload object, SMT way and core
  class) or one slot of a placed core (through the machine's mixed-core
  cache).

Compilation also resolves the per-row scalar tables (SMT share,
frequency scale, window, ``V^2`` scale) and the per-cell
``stable_seed`` values with their sensor draw constants (through the
sensor draw cache, :func:`repro.sim.sensors.draw_constants`), bucketed
per window.  Execution computes bounds, counters (one helper,
:func:`_counter_matrix`, fills both spans' matrices) and per-thread
watts once per lane, adds each segment's dynamic power into its chip in
cluster order, runs the sensor stage, and assembles Measurements around
lazy counter views that defer per-cell dict materialization until a
reader asks.  ``Machine.run_plan`` keys compiled programs weakly by
plan object, so a resident campaign (service engines, perf-bench steady
state) re-executes the same plan with zero recompilation.

**Bit-identity contract.**  Measurements are pure functions of cell
content: the same floating-point operations on the same operands in
the same order as the per-cell scalar definition kept as the
differential test oracle (``tests/oracle/``).  IEEE-754 double
arithmetic is deterministic and NumPy elementwise ops round exactly
like Python floats; reductions whose accumulation order matters (the
per-mnemonic and per-unit energy sums, the per-thread dynamic-power
sum in canonical slot order, the per-cluster accumulation) run as
explicit sequential adds rather than ``np.sum``, whose pairwise
blocking would re-associate them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import chain
from typing import NamedTuple
from weakref import WeakKeyDictionary
from zlib import crc32

import numpy as np

from repro.caching import LRUCache
from repro.errors import MeasurementError
from repro.measure.measurement import Measurement
from repro.sim.cells import CellColumns, first_seen
from repro.sim.kernel import Kernel
from repro.sim.pipeline import MSHRS_PER_THREAD, SMT_OVERHEAD
from repro.sim.placement import Placement
from repro.sim.power import (
    CMP_CONCAVE,
    CMP_EXPONENT,
    CMP_LINEAR,
    IDLE_POWER,
    LEVEL_ENERGY_NJ,
    PROFILE_UNIT_ENERGY_NJ,
    SMT_LOGIC,
    UNCORE_ACTIVE,
    cmp_effect,
    data_multiplier,
    order_multiplier,
)
from repro.sim.sensors import (
    QUANTUM_W,
    SAMPLE_INTERVAL_S,
    SAMPLE_NOISE_W,
    draw_constants,
)
from repro.sim.topology import ChipTopology

#: Packed kernels retained per lane (LRU past this).
PACKED_CACHE_LIMIT = 65_536
#: Stacked batch matrices retained per lane (LRU past this); a
#: configuration sweep re-uses one stack across its whole ladder.
STACK_CACHE_LIMIT = 256


class PackedKernel:
    """One kernel's summary, packed into dense index-space arrays."""

    __slots__ = (
        "digest",
        "size",
        "unit_bound",
        "dependency_bound",
        "miss_latency",
        "alternation",
        "entropy",
        "insn_e9",
        "insn_counts",
        "unit_ops",
        "counter_levels",
        "level_e9",
        "level_counts",
    )

    def __init__(self, summary, unit_names, counter_level_names, power_model):
        self.digest = summary.digest
        self.size = summary.size
        self.unit_bound = summary.unit_bound
        self.dependency_bound = summary.dependency_bound
        self.miss_latency = summary.miss_latency
        self.alternation = summary.alternation
        self.entropy = summary.entropy
        # Per-mnemonic energies and counts, in the summary's dict
        # insertion order: the energy sum is defined in that order,
        # and sequential column adds replay it term for term.
        items = list(summary.mnemonic_counts.items())
        self.insn_e9 = np.array(
            [power_model.instruction_energy(m) * 1e-9 for m, _ in items]
        )
        self.insn_counts = np.array([float(c) for _, c in items])
        self.unit_ops = np.array(
            [summary.unit_ops.get(name, 0.0) for name in unit_names]
        )
        self.counter_levels = np.array(
            [summary.level_counts.get(name, 0.0) for name in counter_level_names]
        )
        energy_levels = [
            (LEVEL_ENERGY_NJ[level] * 1e-9, float(count))
            for level, count in summary.level_counts.items()
            if level in LEVEL_ENERGY_NJ
        ]
        self.level_e9 = np.array([e for e, _ in energy_levels])
        self.level_counts = np.array([c for _, c in energy_levels])


class _KernelStack:
    """Matrices of one distinct kernel-set, shared across configurations."""

    __slots__ = (
        "size",
        "unit_bound",
        "dependency_bound",
        "miss_latency",
        "order_mult",
        "data_mult",
        "insn_e9",
        "insn_counts",
        "unit_ops",
        "counter_levels",
        "level_e9",
        "level_counts",
    )

    def __init__(self, packs: Sequence[PackedKernel]) -> None:
        count = len(packs)
        self.size = np.array([float(pack.size) for pack in packs])
        self.unit_bound = np.array([pack.unit_bound for pack in packs])
        self.dependency_bound = np.array(
            [pack.dependency_bound for pack in packs]
        )
        self.miss_latency = np.array([pack.miss_latency for pack in packs])
        # The order/data multipliers only depend on the kernel, so they
        # stack once per batch composition; computed with the exact
        # power model's helpers so each element carries their bits.
        self.order_mult = np.array(
            [order_multiplier(pack.alternation) for pack in packs]
        )
        self.data_mult = np.array(
            [data_multiplier(pack.entropy) for pack in packs]
        )
        # Ragged per-mnemonic/per-level vectors pad with trailing
        # zeros: a zero term adds exactly nothing to a non-negative
        # sequential sum, so padding never perturbs the accumulation.
        mnemonics = max((len(pack.insn_e9) for pack in packs), default=0)
        levels = max((len(pack.level_e9) for pack in packs), default=0)
        self.insn_e9 = np.zeros((count, mnemonics))
        self.insn_counts = np.zeros((count, mnemonics))
        self.level_e9 = np.zeros((count, levels))
        self.level_counts = np.zeros((count, levels))
        for row, pack in enumerate(packs):
            width = len(pack.insn_e9)
            self.insn_e9[row, :width] = pack.insn_e9
            self.insn_counts[row, :width] = pack.insn_counts
            depth = len(pack.level_e9)
            self.level_e9[row, :depth] = pack.level_e9
            self.level_counts[row, :depth] = pack.level_counts
        self.unit_ops = np.vstack([pack.unit_ops for pack in packs])
        self.counter_levels = np.vstack(
            [pack.counter_levels for pack in packs]
        )


def _sequential_row_sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right row sums starting from zero, one rounding per add.

    ``np.sum`` uses pairwise blocking, which re-associates the
    floating-point adds; the energy and thread sums are defined
    strictly left to right, so the plane accumulates column by column.
    """
    total = np.zeros(terms.shape[0])
    for column in range(terms.shape[1]):
        total = total + terms[:, column]
    return total


# -- lazy counter views -------------------------------------------------------
#
# At fused-program throughput the dominant per-cell cost is no longer
# arithmetic but *materializing* each cell's counter dict (16-odd
# float boxings plus a dict build per hardware-thread view).  The
# program instead hands each measurement a lazy, read-only mapping over
# its row of the counters matrix: construction is one tuple allocation
# (matrix reference + row index), and values box to Python floats only
# when a reader actually asks.  The view satisfies the Mapping
# contract -- ``dict(view)``, ``items()``, ``get``, equality with
# plain dicts -- and pickles/deep-copies *as* a plain dict, so copied
# measurements and serialized store records carry plain counter
# dicts.


class _LazyReadings(tuple):
    """Read-only counter mapping over one row of a counters matrix.

    Instances are 2-tuples ``(matrix, row)``; the counter-name schema
    lives on the subclass (one per lane counter layout), so per-cell
    construction is a single C-level tuple allocation.
    """

    __slots__ = ()
    _names: tuple = ()
    _column_of: dict = {}

    def _values(self) -> list:
        matrix = tuple.__getitem__(self, 0)
        return matrix[tuple.__getitem__(self, 1)].tolist()

    def __getitem__(self, key):
        matrix = tuple.__getitem__(self, 0)
        return float(
            matrix[tuple.__getitem__(self, 1), self._column_of[key]]
        )

    def get(self, key, default=None):
        column = self._column_of.get(key)
        if column is None:
            return default
        matrix = tuple.__getitem__(self, 0)
        return float(matrix[tuple.__getitem__(self, 1), column])

    def keys(self):
        return self._names

    def values(self):
        return self._values()

    def items(self):
        return list(zip(self._names, self._values()))

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, key) -> bool:
        return key in self._column_of

    def __eq__(self, other):
        if isinstance(other, _LazyReadings):
            return (
                self._names == other._names
                and self._values() == other._values()
            )
        if isinstance(other, Mapping):
            if len(other) != len(self._names):
                return False
            sentinel = object()
            get = other.get
            for name, value in zip(self._names, self._values()):
                found = get(name, sentinel)
                if found is sentinel or found != value:
                    return False
            return True
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # Mutable-mapping parity with plain counter dicts: unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Pickle and deepcopy materialize to a plain dict.
        return (dict, (list(zip(self._names, self._values())),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(zip(self._names, self._values())))


Mapping.register(_LazyReadings)

_READINGS_CLASSES: dict[tuple, type] = {}


def _readings_class(names: tuple) -> type:
    """The lazy-view subclass carrying one counter-name schema."""
    cls = _READINGS_CLASSES.get(names)
    if cls is None:
        cls = type(
            "_LazyReadingsView",
            (_LazyReadings,),
            {
                "__slots__": (),
                "_names": names,
                "_column_of": {
                    name: column for column, name in enumerate(names)
                },
            },
        )
        _READINGS_CLASSES[names] = cls
    return cls


class _Lane:
    """One core class's index spaces, packs and stacks.

    The homogeneous machine is the single base lane; each additional
    cluster core class of a heterogeneous topology gets its own lane,
    so kernels pack against the right unit mix, cache latencies,
    dispatch width, clock and energy scale.
    """

    __slots__ = (
        "arch",
        "pipeline",
        "power",
        "width",
        "frequency",
        "energy_scale",
        "unit_names",
        "counter_names",
        "counter_level_names",
        "readings_cls",
        "packed",
        "stacks",
    )

    def __init__(self, arch, pipeline, power_model, tag: str) -> None:
        self.arch = arch
        self.pipeline = pipeline
        self.power = power_model
        self.width = arch.chip.dispatch_width
        self.frequency = arch.chip.cycles_per_second
        self.energy_scale = arch.chip.energy_scale
        self.unit_names = tuple(arch.units)
        # Fixed counter layout: cycles, instructions, one counter per
        # unit, L1 loads and stores, then one per deeper level.
        names = ["PM_RUN_CYC", "PM_RUN_INST_CMPL"]
        names.extend(unit.counter for unit in arch.units.values())
        names.extend(["PM_LD_REF_L1", "PM_ST_REF_L1"])
        names.extend(cache.counter for cache in arch.caches[1:])
        names.append(arch.memory.counter)
        self.counter_names = tuple(names)
        self.readings_cls = _readings_class(self.counter_names)
        # The hierarchy levels backing the level-derived counters, in
        # the same column order as the counter tail above.
        self.counter_level_names = (
            "_loads",
            "_stores",
            *(cache.name for cache in arch.caches[1:]),
            arch.memory.name,
        )
        self.packed: LRUCache[int, PackedKernel] = LRUCache(
            PACKED_CACHE_LIMIT, f"vector.packed{tag}"
        )
        self.stacks: LRUCache[tuple, _KernelStack] = LRUCache(
            STACK_CACHE_LIMIT, f"vector.stacks{tag}"
        )

    def pack(self, kernel: Kernel) -> PackedKernel:
        digest = kernel.digest()
        pack = self.packed.get(digest)
        if pack is None:
            pack = PackedKernel(
                self.pipeline.summarize(kernel),
                self.unit_names,
                self.counter_level_names,
                self.power,
            )
            self.packed.put(digest, pack)
        return pack

    def stack(self, kernels: Sequence[Kernel]) -> tuple[_KernelStack, list[int]]:
        """``(stack, remap)`` for a kernel batch, canonically keyed.

        The memo key is the *digest-sorted* composition, so permuted
        batches of the same kernel (multi)set share one stack instead
        of restacking per arrival order; ``remap[i]`` is the canonical
        stack row of input kernel ``i``.  Rows with equal digests are
        interchangeable by construction (packs memoize per digest), so
        the canonical stack is identical whichever order produced it.
        """
        packs = [self.pack(kernel) for kernel in kernels]
        order = sorted(range(len(packs)), key=lambda i: packs[i].digest)
        key = tuple(packs[i].digest for i in order)
        stack = self.stacks.get(key)
        if stack is None:
            stack = _KernelStack([packs[i] for i in order])
            self.stacks.put(key, stack)
        remap = [0] * len(packs)
        for row, index in enumerate(order):
            remap[index] = row
        return stack, remap


def _runs(keys: np.ndarray) -> tuple[np.ndarray | None, list[int], list]:
    """Group positions by key, groups in first-seen order.

    Returns ``(order, bounds, heads)``: ``order`` (``None`` when the
    keys already come in runs, as a configuration-major cross does)
    lists the positions group by group, each group keeping position
    order; group ``g`` is ``order[bounds[g]:bounds[g + 1]]`` and has
    key ``heads[g]``.
    """
    if not len(keys):
        return None, [0], []
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], starts))
    heads = keys[starts]
    order = None
    if len(set(heads.tolist())) < len(heads):
        firsts, groups = first_seen(keys)
        order = np.argsort(groups, kind="stable")
        starts = np.concatenate(([0], np.cumsum(np.bincount(groups))[:-1]))
        heads = keys[firsts]
    return order, [*starts.tolist(), len(keys)], heads.tolist()


def _sensor_buckets(by_duration: dict) -> list[tuple]:
    """Per-window sensor tables: positions, draw constants, sigma.

    Windows can differ across cells; draws are per-cell-seeded, so
    bucketing by duration cannot change them.  Draw constants resolve
    once at compile time through the sensor draw cache (vectorized
    MT19937 seeding for wide fresh batches), leaving the program's
    per-execution sensor stage pure elementwise arithmetic.
    """
    buckets = []
    for duration, (positions, bucket_seeds) in by_duration.items():
        sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
        sigma = SAMPLE_NOISE_W / sample_count ** 0.5
        zo1, z2 = draw_constants(bucket_seeds)
        buckets.append(
            (np.asarray(positions, dtype=np.intp), zo1, z2, sigma)
        )
    return buckets


def _apply_sensor(power, buckets) -> list[float]:
    """The fused sensor stage: cached draws applied elementwise.

    Replays ``PowerSensor.measure_batch``'s arithmetic exactly:
    ``mean = (p + zo1*p) + (0.0 + z2*sigma)``, quantized half-even to
    the sensor quantum (``np.round`` rounds exactly like ``round``).
    """
    means = np.empty(power.shape[0])
    for positions, zo1, z2, sigma in buckets:
        p = power[positions]
        mean = (p + zo1 * p) + (0.0 + z2 * sigma)
        means[positions] = np.round(mean / QUANTUM_W) * QUANTUM_W
    return means.tolist()


class _Segment(NamedTuple):
    """One cluster of a cell's chip (the whole chip when homogeneous)."""

    lane: "_Lane"
    class_key: str | None
    view: object  # what protocol workloads see as the machine
    smt: int
    cores: int
    threads: int
    freq_scale: float
    dyn_scale: float  # V^2 factor, 1.0 at the nominal p-state


def _chip(plane: "VectorPlane", config) -> tuple[float, list[_Segment]]:
    """``(static power, segments)`` of one canonical configuration.

    A ``MachineConfig`` is one segment on the base lane; a topology is
    one segment per cluster, in cluster order, on the lane of the
    cluster's core class.  Static power accumulates in plain floats in
    the ground-truth model's order: idle, active uncore, the CMP effect
    (on a topology, the concave part over the total core count, then
    per cluster the linear part at its class's energy scale), and the
    SMT logic of each SMT-enabled part.
    """
    machine = plane.machine
    static = IDLE_POWER + UNCORE_ACTIVE
    topology = isinstance(config, ChipTopology)
    if topology:
        static += CMP_CONCAVE * config.cores ** CMP_EXPONENT
        parts = config.clusters
    else:
        static += cmp_effect(config.cores)
        parts = (config,)
    segments = []
    for part in parts:
        class_key = machine._class_key(part.core_class) if topology else None
        lane = plane._lane(class_key)
        if topology:
            static += CMP_LINEAR * part.cores * lane.energy_scale
        if part.smt_enabled:
            static += SMT_LOGIC * part.cores
        p_state = part.p_state
        segments.append(
            _Segment(
                lane,
                class_key,
                machine._parts(class_key)[3] if topology else machine,
                part.smt,
                part.cores,
                part.threads,
                p_state.freq_scale,
                1.0 if p_state.is_nominal else p_state.dynamic_scale,
            )
        )
    return static, segments


def _counter_matrix(lane, ipc, units, levels, fs, window) -> np.ndarray:
    """Counter readings of a lane's rows, in its counter column order.

    ``units`` and ``levels`` are nominal per-second rates.  They
    re-clock first, ``(rate * freq_scale) * window``; cycles accrue at
    the effective clock.
    """
    frequency = lane.frequency * fs
    fs = fs[:, None]
    window_col = window[:, None]
    split = 2 + len(lane.unit_names)
    matrix = np.empty((frequency.shape[0], len(lane.counter_names)))
    matrix[:, 0] = frequency * window
    matrix[:, 1] = (ipc * frequency) * window
    matrix[:, 2:split] = (units * fs) * window_col
    matrix[:, split:] = (levels * fs) * window_col
    return matrix


class _KernelTable:
    """One lane's kernel rows: one (cell, segment) pair each.

    Rows arrive one (group, segment) run at a time; :meth:`gather`
    then stacks only the kernels these rows use and gathers the
    canonical stack per row (fancy indexing copies, so LRU eviction of
    the stack cannot alias the table).
    """

    __slots__ = (
        "lane",
        "runs",
        "count",
        "share",
        "fs",
        "window",
        "size",
        "unit_bound",
        "dep_bound",
        "miss_latency",
        "unit_ops",
        "counter_levels",
        "insn_e9",
        "insn_counts",
        "level_e9",
        "level_counts",
        "order_data",
        "data",
    )

    def __init__(self, lane: _Lane) -> None:
        self.lane = lane
        self.runs: list[tuple] = []
        self.count = 0

    def add(self, kernel_rows, segment: _Segment, duration: float) -> int:
        """Append one run of unique-kernel rows; returns its first row."""
        first = self.count
        share = segment.smt / (1.0 - SMT_OVERHEAD[segment.smt])
        self.runs.append((kernel_rows, share, segment.freq_scale, duration))
        self.count += len(kernel_rows)
        return first

    def gather(self, kernels: Sequence[Kernel], every: bool) -> None:
        """``every``: each cell has rows here, so each kernel is used."""
        runs, self.runs = self.runs, []
        lengths = [len(run[0]) for run in runs]
        rows = np.concatenate([run[0] for run in runs])
        if every:
            stack, remap = self.lane.stack(kernels)
        else:
            used = np.zeros(len(kernels), dtype=bool)
            used[rows] = True
            index = np.flatnonzero(used)
            stack, local = self.lane.stack([kernels[i] for i in index.tolist()])
            remap = np.zeros(len(kernels), dtype=np.intp)
            remap[index] = local
        krows = np.asarray(remap, dtype=np.intp)[rows]
        self.share = np.array([run[1] for run in runs]).repeat(lengths)
        self.fs = np.array([run[2] for run in runs]).repeat(lengths)
        self.window = np.array([run[3] for run in runs]).repeat(lengths)
        self.size = stack.size[krows]
        self.unit_bound = stack.unit_bound[krows]
        self.dep_bound = stack.dependency_bound[krows]
        self.miss_latency = stack.miss_latency[krows]
        self.unit_ops = stack.unit_ops[krows]
        self.counter_levels = stack.counter_levels[krows]
        self.insn_e9 = stack.insn_e9[krows]
        self.insn_counts = stack.insn_counts[krows]
        self.level_e9 = stack.level_e9[krows]
        self.level_counts = stack.level_counts[krows]
        self.data = stack.data_mult[krows]
        self.order_data = stack.order_mult[krows] * self.data

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """``(counters, per-thread dynamic watts)`` of every row.

        The bounds keep ``bounds_from_summary``'s operand order and the
        watts the ground-truth model's.
        """
        lane = self.lane
        share = self.share
        size = self.size
        period = np.maximum(
            np.maximum((size / lane.width) * share, self.unit_bound * share),
            np.maximum(
                self.dep_bound,
                (self.miss_latency / MSHRS_PER_THREAD) * share,
            ),
        )
        iterations = (lane.frequency / period)[:, None]
        fs = self.fs
        unit_rates = self.unit_ops * iterations
        level_rates = self.counter_levels * iterations
        counters = _counter_matrix(
            lane, size / period, unit_rates, level_rates, fs, self.window
        )
        fs = fs[:, None]
        core_joules = _sequential_row_sum(
            self.insn_e9 * ((self.insn_counts * iterations) * fs)
        )
        level_joules = _sequential_row_sum(
            self.level_e9 * ((self.level_counts * iterations) * fs)
        )
        watts = self.order_data * core_joules + self.data * level_joules
        # A core class with a dynamic-energy scale (the eco core, as a
        # cluster or as the machine's own base class) scales every
        # thread's power by it.
        if lane.energy_scale != 1.0:
            watts = watts * lane.energy_scale
        return counters, watts


class _FusedSpan:
    """Fused program for the plain kernel cells of a batch.

    Every chip is a list of segments (:func:`_chip`), and each (cell,
    segment) pair is one row of its lane's :class:`_KernelTable`; one
    (configuration, window) group's segment is one contiguous run of
    rows.  Compilation resolves every plan-constant table -- gathers,
    per-run scalars, static chip power, seeds and sensor draw
    constants.  Execution computes bounds, counters and per-thread
    watts once per lane over the rows of all groups, adds each
    segment's dynamic power into its chip in cluster order, then runs
    the sensor stage and assembles the measurements.
    """

    __slots__ = (
        "targets",
        "cell_names",
        "static",
        "tables",
        "groups",
        "sensor_buckets",
    )

    def __init__(self, plane: "VectorPlane", cells, span: np.ndarray) -> None:
        machine_seed = plane.machine.seed
        configs, durations = cells.configs, cells.durations
        # Groups: runs of (configuration, window) index pairs.  Grouping
        # is an evaluation-shape choice only -- every cell's result is a
        # pure function of its own content -- so equal configurations
        # under two table entries just form two identical groups.
        order, bounds, heads = _runs(
            cells.config_index[span] * len(durations)
            + cells.duration_index[span]
        )
        if order is not None:
            span = span[order]
        entries = cells.workload_index[span]

        # Unique kernels by measurement identity (the noise seed folds
        # in the workload *name* and content digest, so two
        # equal-content kernels under different names stay distinct),
        # one lookup per workload table entry the span uses.
        workloads = cells.workloads
        used = np.zeros(len(workloads), dtype=bool)
        used[entries] = True
        row_of = np.zeros(len(workloads), dtype=np.intp)
        unique_of: dict[tuple, int] = {}
        kernels: list[Kernel] = []
        for entry in np.flatnonzero(used).tolist():
            kernel = workloads[entry]
            key = (kernel.name, kernel.digest())
            row = unique_of.get(key)
            if row is None:
                row = unique_of[key] = len(kernels)
                kernels.append(kernel)
            row_of[entry] = row
        span_rows = row_of[entries]
        rows = span_rows.tolist()
        names = [kernel.name for kernel in kernels]
        self.targets = span.tolist()
        self.cell_names = [names[row] for row in rows]
        # Sensor seeds are crc32(name | label | window | seed | digest),
        # continued from each kernel's name crc through the group's
        # middle part and the kernel's digest.
        name_crcs = [crc32(name.encode()) for name in names]
        digest_texts = [str(kernel.digest()).encode() for kernel in kernels]

        tables: list[_KernelTable] = []
        table_of: dict[int, int] = {}
        static: list[float] = []
        by_duration: dict[float, tuple[list, list]] = {}
        self.groups = []
        for group, head in enumerate(heads):
            config = configs[head // len(durations)]
            duration = durations[head % len(durations)]
            start, stop = bounds[group], bounds[group + 1]
            chip_static, segments = _chip(plane, config)
            runs = []
            for segment in segments:
                index = table_of.get(id(segment.lane))
                if index is None:
                    index = table_of[id(segment.lane)] = len(tables)
                    tables.append(_KernelTable(segment.lane))
                first = tables[index].add(
                    span_rows[start:stop], segment, duration
                )
                runs.append((index, first, segment.threads, segment.dyn_scale))
            sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
            self.groups.append(
                (start, stop, config, duration, sample_count, runs)
            )
            static.append(chip_static)
            positions, seeds = by_duration.setdefault(duration, ([], []))
            positions.extend(range(start, stop))
            mid = f"|{config.label}|{duration}|{machine_seed}|".encode()
            seeds.extend(
                [
                    crc32(digest_texts[row], crc32(mid, name_crcs[row]))
                    for row in rows[start:stop]
                ]
            )
        for table in tables:
            table.gather(kernels, every=len(tables) == 1)
        self.tables = tables
        self.static = np.array(static).repeat(np.diff(bounds))
        self.sensor_buckets = _sensor_buckets(by_duration)

    def execute(self, out: list) -> None:
        """One fused pass: physics, chip sums, sensors, assembly."""
        results = [table.evaluate() for table in self.tables]

        # Each segment sums its identical per-thread power once per
        # hardware thread, sequentially, scales it by its V^2 term and
        # adds it into the chip, in cluster order.
        power = self.static.copy()
        for start, stop, _, _, _, runs in self.groups:
            for table, first, threads, dyn_scale in runs:
                watts = results[table][1][first : first + stop - start]
                dynamic = np.zeros(stop - start)
                for _ in range(threads):
                    dynamic = dynamic + watts
                power[start:stop] += dynamic * dyn_scale

        # Fused sensor stage from the compile-time draw constants.
        means = _apply_sensor(power, self.sensor_buckets)

        # Assembly: validation-free Measurement construction (the
        # plane guarantees the invariants) around lazy counter views,
        # built per segment and concatenated only on multi-segment
        # chips.
        new = object.__new__
        measurement_cls = Measurement
        names = self.cell_names
        targets = self.targets
        for start, stop, config, duration, sample_count, runs in self.groups:
            parts = []
            for table, first, threads, _ in runs:
                readings_cls = self.tables[table].lane.readings_cls
                counters = results[table][0]
                parts.append(
                    [
                        (readings_cls((counters, row)),) * threads
                        for row in range(first, first + stop - start)
                    ]
                )
            thread_counters = (
                parts[0]
                if len(parts) == 1
                else [sum(views, ()) for views in zip(*parts)]
            )
            prototype = {
                "workload_name": None,
                "config": config,
                "duration": duration,
                "thread_counters": None,
                "mean_power": 0.0,
                "power_std": SAMPLE_NOISE_W,
                "sample_count": sample_count,
                "thread_workloads": None,
            }
            fresh = prototype.copy
            for position, views in zip(range(start, stop), thread_counters):
                fields = fresh()
                fields["workload_name"] = names[position]
                fields["thread_counters"] = views
                fields["mean_power"] = means[position]
                measurement = new(measurement_cls)
                measurement.__dict__.update(fields)
                out[targets[position]] = measurement


class _ActivityRow(NamedTuple):
    """One nominal thread activity, packed for one lane.

    ``core_terms`` are ``(nJ*1e-9, rate, bias)`` triples in the
    activity's own dict order: per mnemonic when the activity knows its
    mnemonics (bias 1.0, an exact identity multiply), else per unit
    with the generic profile energies (0.5 nJ for a unit the table does
    not know) and the workload's unit-energy bias.  ``level_terms`` are
    ``(nJ*1e-9, rate)`` pairs of the levels with an access energy.
    ``unit_rates`` and ``level_rates`` follow the lane's counter
    columns.
    """

    ipc: float
    unit_rates: list
    level_rates: list
    core_terms: list
    level_terms: list
    order_data: float
    data: float
    instruction_rates: list


_ZERO_ROW = _ActivityRow(0.0, [], [], [], [], 0.0, 0.0, [])


def _pack_activity(activity, lane) -> _ActivityRow:
    """One nominal thread activity as plain per-lane rows."""
    if activity.insn_rates:
        energy = lane.power.instruction_energy
        core = [
            (energy(mnemonic) * 1e-9, rate, 1.0)
            for mnemonic, rate in activity.insn_rates.items()
        ]
        instruction_rates = list(activity.insn_rates.values())
    else:
        bias = activity.unit_energy_bias
        core = [
            (PROFILE_UNIT_ENERGY_NJ.get(unit, 0.5) * 1e-9, rate,
             bias.get(unit, 1.0))
            for unit, rate in activity.unit_op_rates.items()
        ]
        instruction_rates = list(activity.unit_op_rates.values())
    level = [
        (LEVEL_ENERGY_NJ[name] * 1e-9, rate)
        for name, rate in activity.level_rates.items()
        if name in LEVEL_ENERGY_NJ
    ]
    data = data_multiplier(activity.entropy)
    return _ActivityRow(
        activity.ipc,
        [activity.unit_op_rates.get(name, 0.0) for name in lane.unit_names],
        [
            activity.level_rates.get(name, 0.0)
            for name in lane.counter_level_names
        ],
        core,
        level,
        order_multiplier(activity.alternation) * data,
        data,
        instruction_rates,
    )


def _padded(rows: list, fields: int) -> list[np.ndarray]:
    """Ragged term lists as ``fields`` zero-padded ``(rows x terms)``
    matrices (a zero term adds exactly nothing to a sequential sum)."""
    width = max(map(len, rows))
    out = [np.zeros((len(rows), width)) for _ in range(fields)]
    for row, terms in enumerate(rows):
        for field, column in enumerate(zip(*terms)):
            out[field][row, : len(column)] = column
    return out


class _CounterTable:
    """One lane's counter rows: an (instance, window) pair each."""

    __slots__ = ("lane", "ipc", "units", "levels", "fs", "window")

    def __init__(self, lane, rows, scales, keys) -> None:
        self.lane = lane
        self.ipc = np.array([rows[inst].ipc for inst, _ in keys])
        self.units = np.array(
            [rows[inst].unit_rates for inst, _ in keys]
        ).reshape(len(keys), len(lane.unit_names))
        self.levels = np.array(
            [rows[inst].level_rates for inst, _ in keys]
        ).reshape(len(keys), len(lane.counter_level_names))
        self.fs = np.array([scales[inst] for inst, _ in keys])
        self.window = np.array([window for _, window in keys])

    def counters(self) -> np.ndarray:
        return _counter_matrix(
            self.lane, self.ipc, self.units, self.levels, self.fs, self.window
        )


class _FusedRowSpan:
    """Fused program for protocol-workload and placement cells.

    Each hardware thread of these cells runs a resolved nominal
    activity (see the module docstring).  Compilation packs every
    distinct (activity, core class lane, frequency scale) triple into
    an *instance* row and every (instance, window) pair into a counter
    row of its lane.  A cell is then a list of instances per cluster
    segment in canonical slot order (one segment on a homogeneous
    chip), a static chip power, and per-thread counter rows in
    declaration order.  Execution evaluates the re-clocked per-thread
    dynamic power once per instance, sums each segment's threads
    column by column (padding slots hold the zero instance, which adds
    exactly nothing), scales it by the segment's ``V^2`` term, and runs
    the shared sensor stage.
    """

    __slots__ = (
        "cell_count",
        "targets",
        "fields",
        "runs",
        "tables",
        "i_fs",
        "i_scale",
        "i_od",
        "i_data",
        "i_core",
        "i_level",
        "static",
        "segments",
        "active",
        "all_active",
        "sensor_buckets",
    )

    def __init__(self, plane, cells, span: np.ndarray) -> None:
        machine = plane.machine
        machine_seed = machine.seed
        protocol: dict[tuple, object] = {}
        core_memo: dict[tuple, list] = {}

        def resolve(workload, smt, class_key, view):
            if isinstance(workload, Kernel):
                return machine._nominal_activity(
                    workload, smt, class_key, view
                )
            key = (id(workload), smt, id(view))
            activity = protocol.get(key)
            if activity is None:
                activity = machine._nominal_activity(
                    workload, smt, class_key, view
                )
                protocol[key] = activity
            return activity

        # Instance 0 is the zero thread that pads ragged segments.
        instance_of: dict[tuple, int] = {}
        instances: list = [(None, None, 1.0)]

        def instance(lane, activity, fs) -> int:
            key = (id(activity), id(lane), fs)
            found = instance_of.get(key)
            if found is None:
                found = instance_of[key] = len(instances)
                instances.append((lane, activity, fs))
            return found

        lanes: list = []
        lane_of: dict[int, int] = {}
        row_of: list[dict] = []

        def counter_row(lane_index: int, inst: int, duration) -> int:
            rows = row_of[lane_index]
            key = (inst, duration)
            found = rows.get(key)
            if found is None:
                found = rows[key] = len(rows)
            return found

        slot_memo: dict[tuple, tuple] = {}

        def core_rows(group, segment, lane_index, duration) -> tuple:
            """``(instances, counter rows)`` of one placed core's slots.

            Memoized on the co-runners' object identities (the batch
            keeps them alive): their activities per core class and SMT
            way, their instances and rows per segment and window.
            """
            ids = tuple(map(id, group))
            key = (id(segment), duration, ids)
            found = slot_memo.get(key)
            if found is None:
                solved = (
                    segment.class_key, segment.smt, id(segment.view), ids
                )
                activities = core_memo.get(solved)
                if activities is None:
                    activities = core_memo[solved] = (
                        machine._nominal_core_activities(
                            group,
                            segment.smt,
                            segment.class_key,
                            segment.view,
                            resolve,
                        )
                    )
                insts = [
                    instance(segment.lane, activity, segment.freq_scale)
                    for activity in activities
                ]
                found = slot_memo[key] = (
                    insts,
                    [
                        counter_row(lane_index, inst, duration)
                        for inst in insts
                    ],
                )
            return found

        contexts: dict[int, tuple] = {}

        def context(config) -> tuple:
            """``(label, topology?, static power, segments, lanes)``."""
            static, segments = _chip(plane, config)
            indices = []
            for segment in segments:
                index = lane_of.get(id(segment.lane))
                if index is None:
                    index = lane_of[id(segment.lane)] = len(lanes)
                    lanes.append(segment.lane)
                    row_of.append({})
                indices.append(index)
            topology = isinstance(config, ChipTopology)
            return config.label, topology, static, segments, indices

        targets: list[int] = []
        fields: list[tuple] = []
        runs: list[list] = []
        static: list[float] = []
        cell_slots: list[list] = []
        cell_dyn: list[list] = []
        by_duration: dict[float, tuple[list, list]] = {}
        workloads, configs, durations = (
            cells.workloads, cells.configs, cells.durations
        )
        for index, entry, config_entry, duration_entry in zip(
            span.tolist(),
            cells.workload_index[span].tolist(),
            cells.config_index[span].tolist(),
            cells.duration_index[span].tolist(),
        ):
            workload = workloads[entry]
            config = configs[config_entry]
            duration = durations[duration_entry]
            ctx = contexts.get(config_entry)
            if ctx is None:
                ctx = contexts[config_entry] = context(config)
            label, topology, chip_static, segments, indices = ctx
            cell_runs: list = []
            slots: list = []
            if isinstance(workload, Placement):
                try:
                    workload.validate_against(config)
                except ValueError as exc:
                    raise MeasurementError(str(exc)) from None
                groups = workload.core_groups
                offset = 0
                for segment, lane_index in zip(segments, indices):
                    cores = segment.cores
                    core_instances = []
                    for group in groups[offset : offset + cores]:
                        insts, rows = core_rows(
                            group, segment, lane_index, duration
                        )
                        core_instances.append(insts)
                        for row in rows:
                            last = cell_runs[-1] if cell_runs else None
                            if last and last[0] == lane_index and last[1] == row:
                                last[2] += 1
                            else:
                                cell_runs.append([lane_index, row, 1])
                    order = (
                        workload.segment_order(offset, offset + cores)
                        if topology
                        else workload.canonical_order()
                    )
                    slots.append(
                        [
                            core_instances[core - offset][slot]
                            for core, slot in order
                        ]
                    )
                    offset += cores
                name = workload.name
                salt = (
                    workload.canonical_salt_for(config)
                    if topology
                    else workload.canonical_salt()
                )
                thread_workloads = workload.thread_names
            else:
                for segment, lane_index in zip(segments, indices):
                    activity = resolve(
                        workload, segment.smt, segment.class_key, segment.view
                    )
                    inst = instance(segment.lane, activity, segment.freq_scale)
                    row = counter_row(lane_index, inst, duration)
                    cell_runs.append([lane_index, row, segment.threads])
                    slots.append([inst] * segment.threads)
                name = workload.name
                salt = 0
                thread_workloads = None
            position = len(targets)
            targets.append(index)
            fields.append(
                (
                    name,
                    config,
                    duration,
                    max(1, int(duration / SAMPLE_INTERVAL_S)),
                    thread_workloads,
                )
            )
            runs.append(cell_runs)
            static.append(chip_static)
            cell_slots.append(slots)
            cell_dyn.append([segment.dyn_scale for segment in segments])
            bucket = by_duration.get(duration)
            if bucket is None:
                bucket = by_duration[duration] = ([], [])
            bucket[0].append(position)
            bucket[1].append(
                crc32(
                    f"{name}|{label}|{duration}|{machine_seed}|{salt}".encode()
                )
            )

        count = len(targets)
        self.cell_count = count
        self.targets = targets
        self.fields = fields
        self.runs = runs
        self.static = np.asarray(static, dtype=np.float64)
        self.sensor_buckets = _sensor_buckets(by_duration)

        # Instance tables: one packed row per (activity, lane, scale);
        # an activity runs when its re-clocked instruction rate is
        # positive.
        row_of_activity: dict[tuple, _ActivityRow] = {}
        rows = [_ZERO_ROW]
        for lane, activity, _ in instances[1:]:
            key = (id(activity), id(lane))
            row = row_of_activity.get(key)
            if row is None:
                row = row_of_activity[key] = _pack_activity(activity, lane)
            rows.append(row)
        scales = [fs for _, _, fs in instances]
        active = [
            sum([rate * fs for rate in row.instruction_rates]) > 0
            for row, fs in zip(rows, scales)
        ]
        self.i_fs = np.array(scales)
        self.i_scale = np.array(
            [1.0] + [lane.energy_scale for lane, _, _ in instances[1:]]
        )
        self.i_od = np.array([row.order_data for row in rows])
        self.i_data = np.array([row.data for row in rows])
        self.i_core = _padded([row.core_terms for row in rows], 3)
        self.i_level = _padded([row.level_terms for row in rows], 2)
        self.tables = [
            _CounterTable(lane, rows, scales, list(keys))
            for lane, keys in zip(lanes, row_of)
        ]

        # Per segment position: a (slots x cells) instance matrix in
        # canonical slot order, padded with the zero instance, plus
        # the segment's V^2 factor (1.0 where a cell has no segment).
        inst_active = np.asarray(active)
        cell_active = np.zeros(count, dtype=bool)
        self.segments = []
        depth = max((len(slots) for slots in cell_slots), default=0)
        for segment in range(depth):
            lists = [
                slots[segment] if segment < len(slots) else ()
                for slots in cell_slots
            ]
            lengths = np.fromiter(map(len, lists), np.intp, count)
            total = int(lengths.sum())
            flat = np.fromiter(chain.from_iterable(lists), np.intp, total)
            matrix = np.zeros((int(lengths.max()), count), dtype=np.intp)
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            matrix[
                np.arange(total) - starts,
                np.repeat(np.arange(count), lengths),
            ] = flat
            dyn = np.array(
                [
                    factors[segment] if segment < len(factors) else 1.0
                    for factors in cell_dyn
                ]
            )
            cell_active |= inst_active[matrix].any(axis=0)
            self.segments.append((matrix, dyn))
        self.active = cell_active
        self.all_active = bool(cell_active.all())

    def execute(self, out: list) -> None:
        fs = self.i_fs[:, None]
        coef, rate, bias = self.i_core
        core_joules = _sequential_row_sum((coef * (rate * fs)) * bias)
        coef, rate = self.i_level
        level_joules = _sequential_row_sum(coef * (rate * fs))
        thread_power = (
            (self.i_od * core_joules) + (self.i_data * level_joules)
        ) * self.i_scale

        power = self.static
        for matrix, dyn in self.segments:
            dynamic = np.zeros(self.cell_count)
            for column in matrix:
                dynamic = dynamic + thread_power[column]
            power = power + dynamic * dyn
        if not self.all_active:
            power = np.where(self.active, power, IDLE_POWER)
        means = _apply_sensor(power, self.sensor_buckets)

        # One read-only view per counter row, shared by every thread
        # (and cell) running that row's activity.
        views = [
            [
                table.lane.readings_cls((matrix, row))
                for row in range(matrix.shape[0])
            ]
            for table in self.tables
            for matrix in (table.counters(),)
        ]
        new = object.__new__
        targets = self.targets
        runs = self.runs
        for position, (name, config, duration, samples, thread_names) in (
            enumerate(self.fields)
        ):
            thread_counters = ()
            for lane_index, row, threads in runs[position]:
                thread_counters += (views[lane_index][row],) * threads
            measurement = new(Measurement)
            measurement.__dict__.update(
                workload_name=name,
                config=config,
                duration=duration,
                thread_counters=thread_counters,
                mean_power=means[position],
                power_std=SAMPLE_NOISE_W,
                sample_count=samples,
                thread_workloads=thread_names,
            )
            out[targets[position]] = measurement


class _FusedProgram:
    """A whole cell batch compiled to fused spans.

    Plain kernel cells, on homogeneous chips and topologies alike,
    compile into the kernel span; protocol workloads and placements
    compile into the activity-row span.  Every cell of the batch belongs to
    exactly one span, and each span writes its results straight into
    the caller's cell order.
    """

    __slots__ = ("size", "spans")

    def __init__(self, plane, cells) -> None:
        self.size = len(cells)
        durations = cells.durations
        used = np.bincount(cells.duration_index, minlength=len(durations))
        for entry in np.flatnonzero(used).tolist():
            if durations[entry] <= 0:
                raise ValueError("duration must be positive")
        kinds = np.fromiter(
            (isinstance(workload, Kernel) for workload in cells.workloads),
            dtype=bool,
            count=len(cells.workloads),
        )
        kernel = kinds[cells.workload_index]
        self.spans = []
        if kernel.any():
            self.spans.append(
                _FusedSpan(plane, cells, np.flatnonzero(kernel))
            )
        if not kernel.all():
            self.spans.append(
                _FusedRowSpan(plane, cells, np.flatnonzero(~kernel))
            )

    def execute(self) -> list[Measurement]:
        out: list[Measurement] = [None] * self.size  # type: ignore[list-item]
        for span in self.spans:
            span.execute(out)
        return out


class VectorPlane:
    """The fused measurement plane bound to one machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.arch = machine.arch
        self._base = _Lane(
            machine.arch, machine.pipeline, machine._power, ""
        )
        self._lanes: dict[str | None, _Lane] = {None: self._base}
        # Compiled programs, weakly keyed by plan object: a resident
        # plan (service engine, bench steady state)
        # re-executes with zero recompilation; a dropped plan frees its
        # program with it.
        self._programs: WeakKeyDictionary = WeakKeyDictionary()

    def _lane(self, core_class: str | None) -> _Lane:
        """The lane of one cluster core class (base lane for ``None``)."""
        key = self.machine._class_key(core_class)
        lane = self._lanes.get(key)
        if lane is None:
            arch, pipeline, power, _ = self.machine._parts(key)
            lane = _Lane(arch, pipeline, power, f".{key}")
            self._lanes[key] = lane
        return lane

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of the plane's memo caches.

        The base lane reports under the historical ``packed``/``stacks``
        keys; additional cluster-class lanes report under
        ``packed:<class>`` / ``stacks:<class>``.
        """
        stats = {
            "packed": self._base.packed.stats(),
            "stacks": self._base.stacks.stats(),
        }
        for key, lane in self._lanes.items():
            if key is None:
                continue
            stats[f"packed:{key}"] = lane.packed.stats()
            stats[f"stacks:{key}"] = lane.stacks.stats()
        return stats

    # -- batch evaluation --------------------------------------------------------

    def cached_program(self, plan) -> _FusedProgram | None:
        """The compiled program of a previously measured plan, if any."""
        return self._programs.get(plan)

    def try_measure_cells(
        self, cells: CellColumns, plan=None
    ) -> list[Measurement]:
        """Measure a batch of cells (as columns) in one program.

        Configurations must already be canonical and validated (the
        machine's entry points do both).  Every cell kind -- kernels,
        protocol workloads and placements, on homogeneous chips and
        heterogeneous topologies, across all configurations and
        windows in the batch -- compiles into one fused program that
        executes in one pass.  With ``plan`` given (the immutable
        :class:`~repro.exec.plan.ExperimentPlan` these cells came from,
        in plan-cell order), the compiled program is cached weakly
        under the plan, so re-executions skip compilation.

        Raises:
            MeasurementError: If a placement does not fit its
                configuration or a workload is neither a kernel, a
                placement nor a protocol workload.
        """
        program = _FusedProgram(self, cells)
        if plan is not None:
            self._programs[plan] = program
        return program.execute()
