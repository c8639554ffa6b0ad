"""The measurement plane: whole cell batches as fused tensor programs.

Every measurement the machine takes runs here.  One batch of
``(workload, configuration, window)`` cells -- spanning different
configurations, heterogeneous
:class:`~repro.sim.topology.ChipTopology` chips, windows and every
workload kind -- compiles once into a fused program
(:class:`_FusedProgram`) and executes as whole-array passes.

Compilation resolves, once per batch,

* a **packed** form of :class:`~repro.sim.summary.KernelSummary` --
  fixed unit/level/counter index spaces derived from the architecture,
  with each kernel's occupancy/operation/level-count vectors stored as
  small dense arrays (:class:`PackedKernel`, LRU-memoized by kernel
  digest);
* packed kernels stacked into ``(kernels x units)`` / ``(kernels x
  levels)`` matrices, memoized under a **canonical (digest-sorted)
  batch key** so permuted compositions of the same kernel set share
  one stack, and gathered per cell by row index;
* **activity rows** for every thread that does not run a plain kernel
  replica: a protocol workload's ``thread_activity`` (once per
  workload object, SMT way and core class), the cached steady state of
  a kernel placed on a homogeneous core, or one slot of a mixed-kernel
  core's contention solve (through the machine's mixed-core cache);
* per-configuration scalar **broadcast tables** (SMT share, frequency
  scale, effective clock, static power, dynamic V^2 scale), computed
  in plain Python with the ground-truth model's operation order;
* the per-cell ``stable_seed`` values and their sensor draw constants
  (resolved through the sensor draw cache, see
  :func:`repro.sim.sensors.draw_constants`), bucketed per window
  length;
* one :class:`_Lane` of index spaces *per core class*: heterogeneous
  topology cells evaluate cluster by cluster through each cluster core
  class's own lane (its own widths, unit mix, cache latencies, clock
  and energy scale).

Executing the program then runs the steady-state bounds, re-clock,
performance-counter synthesis, per-thread dynamic power, the chip and
per-cluster sums, the ``V^2`` scaling and the sensor stage as
elementwise tensor arithmetic with no per-cell Python between stages,
and assembles Measurements through a lazy counters view that defers
per-cell dict materialization until a reader asks.
``Machine.run_plan`` keys compiled programs weakly by plan object, so
a resident campaign (service engines, perf-bench steady state, DSE
loops) re-executes the same plan with zero recompilation.

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
from repro.sim.config import MachineConfig
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
        "active",
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
        # Kernels always commit work (empty loop bodies are rejected at
        # construction); the flag guards the idle-power degenerate case
        # of a thread committing nothing.
        self.active = bool(summary.mnemonic_counts)
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
        "all_active",
        "active",
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
        self.active = np.array([pack.active for pack in packs])
        self.all_active = all(pack.active for pack in packs)
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


class _Group:
    """One (configuration, window) span of a cell batch."""

    __slots__ = ("config", "duration", "cells")

    def __init__(self, config, duration: float) -> None:
        self.config = config
        self.duration = duration
        self.cells: list[int] = []  # positions in the kernel-cell order


def _group_span(cells, span: Sequence[int]):
    """Group one homogeneity class of kernel cells for compilation.

    Returns ``(kernels, cell_rows, groups)``: unique kernels by
    measurement identity (the noise seed folds in the workload *name*
    and content digest, so two equal-content kernels under different
    names stay distinct), each span cell's unique-kernel row, and the
    (configuration, window) groups in first-seen order.  Grouping is
    purely an evaluation-shape choice -- every cell's result is an
    independent pure function of its own content -- so object-identity
    grouping (plans reuse config objects, and hashing a MachineConfig
    per cell is costly) is always sound; equal configs arriving as
    distinct objects just form separate, identically-evaluated spans.
    """
    groups: dict[tuple, _Group] = {}
    unique_of: dict[tuple, int] = {}
    kernels: list[Kernel] = []
    cell_rows: list[int] = []
    for index in span:
        workload, config, duration = cells[index]
        group_key = (id(config), duration)
        group = groups.get(group_key)
        if group is None:
            group = groups[group_key] = _Group(config, duration)
        key = (workload.name, workload.digest())
        row = unique_of.get(key)
        if row is None:
            row = len(kernels)
            unique_of[key] = row
            kernels.append(workload)
        group.cells.append(len(cell_rows))
        cell_rows.append(row)
    return kernels, cell_rows, list(groups.values())


def _group_durations(groups, group_sizes, seeds) -> dict:
    """``{window: (positions, seeds)}`` of group-ordered cells."""
    by_duration: dict[float, tuple[list[int], list[int]]] = {}
    position = 0
    for group, count in zip(groups, group_sizes):
        bucket = by_duration.setdefault(group.duration, ([], []))
        bucket[0].extend(range(position, position + count))
        bucket[1].extend(seeds[position : position + count])
        position += count
    return by_duration


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


class _FusedSpan:
    """Fused program for the homogeneous (MachineConfig) cells of a batch.

    Compilation precomputes every plan-constant table -- the canonical
    kernel stack gathered per cell, the per-ladder config-scalar
    broadcast tables, seeds and sensor draw constants -- so execution
    is the physics stages (bounds, counters, hidden power), the fused
    sensor pass and Measurement assembly, with no grouping, hashing,
    seeding or stacking left on the hot path.
    """

    __slots__ = (
        "lane",
        "machine",
        "cell_count",
        "targets",
        "cell_names",
        "share",
        "fs",
        "freq_eff",
        "window",
        "dyn_scale",
        "static_power",
        "g_size",
        "g_unit_bound",
        "g_dep_bound",
        "g_miss_latency",
        "g_unit_ops",
        "g_counter_levels",
        "g_insn_e9",
        "g_insn_counts",
        "g_level_e9",
        "g_level_counts",
        "g_order_mult",
        "g_data_mult",
        "g_active",
        "all_active",
        "thread_segments",
        "sensor_buckets",
        "assembly",
    )

    def __init__(self, plane: "VectorPlane", cells, span: Sequence[int]) -> None:
        lane = plane._base
        machine = plane.machine
        self.lane = lane
        self.machine = machine
        kernels, cell_rows, groups = _group_span(cells, span)
        stack, remap = lane.stack(kernels)
        machine_seed = machine.seed
        machine_frequency = machine.frequency

        # Per-configuration scalars, computed once per group in plain
        # Python and repeated across the group's cell span: the
        # broadcast tables.
        group_sizes = []
        share_g, fs_g, freq_eff_g, duration_g = [], [], [], []
        dyn_scale_g, static_g = [], []
        scatter: list[int] = []  # tensor position -> span cell position
        assembly = []
        thread_segments = []
        position = 0
        for group in groups:
            config = group.config
            p_state = config.p_state
            count = len(group.cells)
            group_sizes.append(count)
            scatter.extend(group.cells)
            share_g.append(config.smt / (1.0 - SMT_OVERHEAD[config.smt]))
            fs_g.append(p_state.freq_scale)
            freq_eff_g.append(machine_frequency * p_state.freq_scale)
            duration_g.append(group.duration)
            dyn_scale_g.append(
                1.0 if p_state.is_nominal else p_state.dynamic_scale
            )
            static = IDLE_POWER
            static += UNCORE_ACTIVE
            static += cmp_effect(config.cores)
            if config.smt_enabled:
                static += SMT_LOGIC * config.cores
            static_g.append(static)
            sample_count = max(1, int(group.duration / SAMPLE_INTERVAL_S))
            assembly.append(
                (
                    position,
                    position + count,
                    config,
                    group.duration,
                    config.threads,
                    sample_count,
                )
            )
            thread_segments.append(
                (position, position + count, config.threads)
            )
            position += count

        self.cell_count = len(cell_rows)
        rows = np.asarray(cell_rows, dtype=np.intp)
        order = np.asarray(scatter, dtype=np.intp)
        span_rows = rows[order]  # tensor position -> unique kernel row
        krows = np.asarray(remap, dtype=np.intp)[span_rows]
        repeats = np.asarray(group_sizes)
        self.share = np.repeat(np.asarray(share_g), repeats)
        self.fs = np.repeat(np.asarray(fs_g), repeats)[:, None]
        self.freq_eff = np.repeat(np.asarray(freq_eff_g), repeats)
        self.window = np.repeat(np.asarray(duration_g), repeats)
        self.dyn_scale = np.repeat(np.asarray(dyn_scale_g), repeats)
        self.static_power = np.repeat(np.asarray(static_g), repeats)
        self.thread_segments = thread_segments
        self.assembly = assembly

        # Tensor position -> caller batch index, for direct writes.
        self.targets = [span[index] for index in scatter]

        # Plan-constant gathers of the canonical stack (fancy indexing
        # copies, so LRU eviction of the stack cannot alias us).
        self.g_size = stack.size[krows]
        self.g_unit_bound = stack.unit_bound[krows]
        self.g_dep_bound = stack.dependency_bound[krows]
        self.g_miss_latency = stack.miss_latency[krows]
        self.g_unit_ops = stack.unit_ops[krows]
        self.g_counter_levels = stack.counter_levels[krows]
        self.g_insn_e9 = stack.insn_e9[krows]
        self.g_insn_counts = stack.insn_counts[krows]
        self.g_level_e9 = stack.level_e9[krows]
        self.g_level_counts = stack.level_counts[krows]
        self.g_order_mult = stack.order_mult[krows]
        self.g_data_mult = stack.data_mult[krows]
        self.g_active = stack.active[krows]
        self.all_active = stack.all_active

        # Sensor plane: per-cell stable_seed draws salted by workload
        # name, configuration label, window, machine seed and kernel
        # digest.
        names = [kernel.name for kernel in kernels]
        digests = [kernel.digest() for kernel in kernels]
        span_rows_list = span_rows.tolist()
        self.cell_names = [names[row] for row in span_rows_list]
        seeds = []
        position = 0
        for group, count in zip(groups, group_sizes):
            mid = f"|{group.config.label}|{group.duration}|{machine_seed}|"
            for row in span_rows_list[position : position + count]:
                seeds.append(
                    crc32(f"{names[row]}{mid}{digests[row]}".encode())
                )
            position += count
        self.sensor_buckets = _sensor_buckets(
            _group_durations(groups, group_sizes, seeds)
        )

    def execute(self, out: list) -> None:
        """One fused pass: physics, sensors, assembly, in lane order."""
        lane = self.lane
        share = self.share
        fs_col = self.fs
        window = self.window
        window_col = window[:, None]

        # Steady-state bounds and period (same operand order as
        # bounds_from_summary), from the compile-time gathers.
        size = self.g_size
        dispatch = (size / lane.width) * share
        unit = self.g_unit_bound * share
        memory = (self.g_miss_latency / MSHRS_PER_THREAD) * share
        period = np.maximum(
            np.maximum(dispatch, unit),
            np.maximum(self.g_dep_bound, memory),
        )
        iterations = lane.frequency / period
        ipc = size / period

        # Performance counters: a (cells x counters) matrix in the
        # lane's column order (rate = (per-iteration count *
        # iterations) * freq_scale, then * duration).
        rate_scale = iterations[:, None]
        unit_block = (
            (self.g_unit_ops * rate_scale) * fs_col
        ) * window_col
        level_block = (
            (self.g_counter_levels * rate_scale) * fs_col
        ) * window_col
        counter_names = lane.counter_names
        counters = np.empty((self.cell_count, len(counter_names)))
        counters[:, 0] = self.freq_eff * window
        counters[:, 1] = (ipc * self.freq_eff) * window
        units = len(lane.unit_names)
        counters[:, 2 : 2 + units] = unit_block
        counters[:, 2 + units :] = level_block

        # Hidden power: per-thread dynamic watts, then the chip sum.
        insn_terms = self.g_insn_e9 * (
            (self.g_insn_counts * rate_scale) * fs_col
        )
        core_joules = _sequential_row_sum(insn_terms)
        level_terms = self.g_level_e9 * (
            (self.g_level_counts * rate_scale) * fs_col
        )
        level_joules = _sequential_row_sum(level_terms)
        thread_dynamic = (
            self.g_order_mult * self.g_data_mult
        ) * core_joules + self.g_data_mult * level_joules
        # A machine whose *base* class declares a dynamic-energy scale
        # (running the eco definition directly, as per-cluster
        # campaigns do) scales every thread's power by it.
        if lane.energy_scale != 1.0:
            thread_dynamic = thread_dynamic * lane.energy_scale
        # The chip sums the identical per-thread power once per
        # hardware thread, sequentially (the thread count is constant
        # per configuration segment).
        dynamic = np.empty(self.cell_count)
        for start, stop, threads in self.thread_segments:
            segment = thread_dynamic[start:stop]
            acc = np.zeros(stop - start)
            for _ in range(threads):
                acc = acc + segment
            dynamic[start:stop] = acc
        dynamic = dynamic * self.dyn_scale
        power = self.static_power + dynamic
        if not self.all_active:
            power = np.where(self.g_active, power, IDLE_POWER)

        # Fused sensor stage from the compile-time draw constants.
        means = _apply_sensor(power, self.sensor_buckets)

        # Assembly: validation-free Measurement construction (the
        # plane guarantees the invariants) around lazy counter views.
        new = object.__new__
        measurement_cls = Measurement
        readings_cls = lane.readings_cls
        names = self.cell_names
        targets = self.targets
        for start, stop, config, duration, threads, sample_count in (
            self.assembly
        ):
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
            for position in range(start, stop):
                fields = fresh()
                fields["workload_name"] = names[position]
                fields["thread_counters"] = (
                    readings_cls((counters, position)),
                ) * threads
                fields["mean_power"] = means[position]
                measurement = new(measurement_cls)
                measurement.__dict__.update(fields)
                out[targets[position]] = measurement


class _FusedTopoSpan:
    """Fused program for the heterogeneous (ChipTopology) cells.

    Each (topology, window) group evaluates cluster by cluster through
    the cluster core class's lane: static chip power accumulated in
    plain Python floats, each cluster's per-thread dynamic power summed
    by sequential adds and ``V^2``-scaled by its own operating point,
    counters synthesized at each cluster's effective clock.  All
    grouping, stacking, gathers, per-cluster scalars, seeds and draw
    constants resolve at compile time; execution is one fused pass per
    (group, lane).
    """

    __slots__ = (
        "machine",
        "cell_count",
        "targets",
        "cell_names",
        "group_runs",
        "sensor_buckets",
    )

    def __init__(self, plane: "VectorPlane", cells, span: Sequence[int]) -> None:
        machine = plane.machine
        self.machine = machine
        kernels, cell_rows, groups = _group_span(cells, span)
        machine_seed = machine.seed
        names = [kernel.name for kernel in kernels]
        digests = [kernel.digest() for kernel in kernels]
        rows = np.asarray(cell_rows, dtype=np.intp)

        self.cell_count = len(cell_rows)
        scatter: list[int] = []
        group_sizes: list[int] = []
        seeds: list[int] = []
        cell_names: list[str] = []
        group_runs = []
        position = 0
        for group in groups:
            topology: ChipTopology = group.config
            duration = group.duration
            count = len(group.cells)
            group_sizes.append(count)
            scatter.extend(group.cells)
            group_rows = rows[np.asarray(group.cells, dtype=np.intp)]

            # Static chip power: plain-float accumulation (idle,
            # uncore, concave CMP part over the total core count, then
            # per cluster the linear per-core part scaled by its
            # class's energy scale and the SMT logic).
            static = IDLE_POWER
            static += UNCORE_ACTIVE
            static += CMP_CONCAVE * topology.cores ** CMP_EXPONENT
            for cluster in topology.clusters:
                lane = plane._lane(cluster.core_class)
                static += CMP_LINEAR * cluster.cores * lane.energy_scale
                if cluster.smt_enabled:
                    static += SMT_LOGIC * cluster.cores

            g_active = None
            all_active = True
            clusters = []
            for cluster in topology.clusters:
                lane = plane._lane(cluster.core_class)
                stack, remap = lane.stack(kernels)
                krows = np.asarray(remap, dtype=np.intp)[group_rows]
                if g_active is None:
                    g_active = stack.active[krows]
                    all_active = stack.all_active
                p_state = cluster.p_state
                clusters.append(
                    {
                        "lane": lane,
                        "share": cluster.smt
                        / (1.0 - SMT_OVERHEAD[cluster.smt]),
                        "fs": p_state.freq_scale,
                        "freq_eff": lane.frequency * p_state.freq_scale,
                        "threads": cluster.threads,
                        "dyn_scale": (
                            None
                            if p_state.is_nominal
                            else p_state.dynamic_scale
                        ),
                        "size": stack.size[krows],
                        "unit_bound": stack.unit_bound[krows],
                        "dep_bound": stack.dependency_bound[krows],
                        "miss_latency": stack.miss_latency[krows],
                        "unit_ops": stack.unit_ops[krows],
                        "counter_levels": stack.counter_levels[krows],
                        "insn_e9": stack.insn_e9[krows],
                        "insn_counts": stack.insn_counts[krows],
                        "level_e9": stack.level_e9[krows],
                        "level_counts": stack.level_counts[krows],
                        "order_mult": stack.order_mult[krows],
                        "data_mult": stack.data_mult[krows],
                    }
                )

            sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
            group_runs.append(
                {
                    "start": position,
                    "stop": position + count,
                    "config": topology,
                    "duration": duration,
                    "static": static,
                    "active": g_active,
                    "all_active": all_active,
                    "clusters": clusters,
                    "sample_count": sample_count,
                }
            )

            mid = f"|{topology.label}|{duration}|{machine_seed}|"
            for row in group_rows.tolist():
                seeds.append(
                    crc32(f"{names[row]}{mid}{digests[row]}".encode())
                )
                cell_names.append(names[row])
            position += count

        self.targets = [span[index] for index in scatter]
        self.cell_names = cell_names
        self.group_runs = group_runs
        self.sensor_buckets = _sensor_buckets(
            _group_durations(groups, group_sizes, seeds)
        )

    def execute(self, out: list) -> None:
        power = np.empty(self.cell_count)
        per_group_state = []
        for run in self.group_runs:
            start, stop = run["start"], run["stop"]
            count = stop - start
            duration = run["duration"]
            group_power = np.full(count, run["static"])
            cluster_views = []
            for cluster in run["clusters"]:
                lane = cluster["lane"]
                share = cluster["share"]
                fs = cluster["fs"]
                size = cluster["size"]
                dispatch = (size / lane.width) * share
                unit = cluster["unit_bound"] * share
                memory = (
                    cluster["miss_latency"] / MSHRS_PER_THREAD
                ) * share
                period = np.maximum(
                    np.maximum(dispatch, unit),
                    np.maximum(cluster["dep_bound"], memory),
                )
                iterations = lane.frequency / period
                ipc = size / period
                rate_scale = iterations[:, None]

                # The cluster's counter block at its effective clock.
                unit_block = (
                    (cluster["unit_ops"] * rate_scale) * fs
                ) * duration
                level_block = (
                    (cluster["counter_levels"] * rate_scale) * fs
                ) * duration
                counters = np.empty((count, len(lane.counter_names)))
                counters[:, 0] = cluster["freq_eff"] * duration
                counters[:, 1] = (ipc * cluster["freq_eff"]) * duration
                units = len(lane.unit_names)
                counters[:, 2 : 2 + units] = unit_block
                counters[:, 2 + units :] = level_block
                cluster_views.append(
                    (lane.readings_cls, counters, cluster["threads"])
                )

                # The cluster's dynamic power.
                insn_terms = cluster["insn_e9"] * (
                    (cluster["insn_counts"] * rate_scale) * fs
                )
                core_joules = _sequential_row_sum(insn_terms)
                level_terms = cluster["level_e9"] * (
                    (cluster["level_counts"] * rate_scale) * fs
                )
                level_joules = _sequential_row_sum(level_terms)
                thread_dynamic = (
                    cluster["order_mult"] * cluster["data_mult"]
                ) * core_joules + cluster["data_mult"] * level_joules
                if lane.energy_scale != 1.0:
                    thread_dynamic = thread_dynamic * lane.energy_scale
                dynamic = np.zeros(count)
                for _ in range(cluster["threads"]):
                    dynamic = dynamic + thread_dynamic
                if cluster["dyn_scale"] is not None:
                    dynamic = dynamic * cluster["dyn_scale"]
                group_power = group_power + dynamic

            if not run["all_active"]:
                group_power = np.where(
                    run["active"], group_power, IDLE_POWER
                )
            power[start:stop] = group_power
            per_group_state.append(cluster_views)

        means = _apply_sensor(power, self.sensor_buckets)

        new = object.__new__
        measurement_cls = Measurement
        names = self.cell_names
        targets = self.targets
        for run, cluster_views in zip(self.group_runs, per_group_state):
            start, stop = run["start"], run["stop"]
            prototype = {
                "workload_name": None,
                "config": run["config"],
                "duration": run["duration"],
                "thread_counters": None,
                "mean_power": 0.0,
                "power_std": SAMPLE_NOISE_W,
                "sample_count": run["sample_count"],
                "thread_workloads": None,
            }
            fresh = prototype.copy
            for position in range(start, stop):
                offset = position - start
                thread_counters = ()
                for readings_cls, counters, threads in cluster_views:
                    thread_counters += (
                        readings_cls((counters, offset)),
                    ) * threads
                fields = fresh()
                fields["workload_name"] = names[position]
                fields["thread_counters"] = thread_counters
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


class _Segment(NamedTuple):
    """One cluster of a cell's chip (the whole chip when homogeneous)."""

    lane: "_Lane"
    lane_index: int  # position in the span's counter tables
    class_key: str | None
    view: object  # what protocol workloads see as the machine
    smt: int
    cores: int
    threads: int
    freq_scale: float
    dyn_scale: float  # V^2 factor, 1.0 at the nominal p-state


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
        """The rows' readings, in the lane's counter column order.

        Rates re-clock first, ``(rate * freq_scale) * window``; cycles
        accrue at the effective clock.
        """
        lane = self.lane
        fs = self.fs
        window = self.window
        frequency = lane.frequency * fs
        units = len(lane.unit_names)
        matrix = np.empty((fs.shape[0], len(lane.counter_names)))
        matrix[:, 0] = frequency * window
        matrix[:, 1] = (self.ipc * frequency) * window
        matrix[:, 2 : 2 + units] = (
            self.units * fs[:, None]
        ) * window[:, None]
        matrix[:, 2 + units :] = (
            self.levels * fs[:, None]
        ) * window[:, None]
        return matrix


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

    def __init__(self, plane, cells, span: Sequence[int]) -> None:
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

        def core_rows(group, segment, duration) -> tuple[list, list]:
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
                        counter_row(segment.lane_index, inst, duration)
                        for inst in insts
                    ],
                )
            return found

        contexts: dict[int, tuple] = {}

        def context(config) -> tuple:
            """``(label, topology?, static power, segments)``."""
            segments = []
            if isinstance(config, ChipTopology):
                static = IDLE_POWER
                static += UNCORE_ACTIVE
                static += CMP_CONCAVE * config.cores ** CMP_EXPONENT
                clusters = config.clusters
                for cluster in clusters:
                    lane = plane._lane(cluster.core_class)
                    static += CMP_LINEAR * cluster.cores * lane.energy_scale
                    if cluster.smt_enabled:
                        static += SMT_LOGIC * cluster.cores
                for cluster in clusters:
                    class_key = machine._class_key(cluster.core_class)
                    segments.append(
                        (cluster, class_key, machine._parts(class_key)[3])
                    )
            else:
                static = IDLE_POWER
                static += UNCORE_ACTIVE
                static += cmp_effect(config.cores)
                if config.smt_enabled:
                    static += SMT_LOGIC * config.cores
                segments.append((config, None, machine))
            resolved = []
            for part, class_key, view in segments:
                lane = plane._lane(class_key)
                index = lane_of.get(id(lane))
                if index is None:
                    index = lane_of[id(lane)] = len(lanes)
                    lanes.append(lane)
                    row_of.append({})
                p_state = part.p_state
                resolved.append(
                    _Segment(
                        lane,
                        index,
                        class_key,
                        view,
                        part.smt,
                        part.cores,
                        part.threads,
                        p_state.freq_scale,
                        1.0 if p_state.is_nominal else p_state.dynamic_scale,
                    )
                )
            return (
                config.label,
                isinstance(config, ChipTopology),
                static,
                resolved,
            )

        targets: list[int] = []
        fields: list[tuple] = []
        runs: list[list] = []
        static: list[float] = []
        cell_slots: list[list] = []
        cell_dyn: list[list] = []
        by_duration: dict[float, tuple[list, list]] = {}
        for index in span:
            workload, config, duration = cells[index]
            ctx = contexts.get(id(config))
            if ctx is None:
                ctx = contexts[id(config)] = context(config)
            label, topology, chip_static, segments = ctx
            cell_runs: list = []
            slots: list = []
            if isinstance(workload, Placement):
                try:
                    workload.validate_against(config)
                except ValueError as exc:
                    raise MeasurementError(str(exc)) from None
                groups = workload.core_groups
                offset = 0
                for segment in segments:
                    lane_index = segment.lane_index
                    cores = segment.cores
                    core_instances = []
                    for group in groups[offset : offset + cores]:
                        insts, rows = core_rows(group, segment, duration)
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
                for segment in segments:
                    activity = resolve(
                        workload, segment.smt, segment.class_key, segment.view
                    )
                    inst = instance(segment.lane, activity, segment.freq_scale)
                    row = counter_row(segment.lane_index, inst, duration)
                    cell_runs.append([segment.lane_index, row, segment.threads])
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

    Plain kernel cells on homogeneous chips and on topologies compile
    into the kernel spans; protocol workloads and placements compile
    into the activity-row span.  Every cell of the batch belongs to
    exactly one span, and each span writes its results straight into
    the caller's cell order.
    """

    __slots__ = ("size", "spans")

    def __init__(self, plane, cells) -> None:
        self.size = len(cells)
        kernel_span: list[int] = []
        topo_span: list[int] = []
        row_span: list[int] = []
        for index, (workload, config, duration) in enumerate(cells):
            if duration <= 0:
                raise ValueError("duration must be positive")
            if isinstance(workload, Kernel):
                if isinstance(config, ChipTopology):
                    topo_span.append(index)
                else:
                    kernel_span.append(index)
            else:
                row_span.append(index)
        self.spans = []
        if kernel_span:
            self.spans.append(_FusedSpan(plane, cells, kernel_span))
        if topo_span:
            self.spans.append(_FusedTopoSpan(plane, cells, topo_span))
        if row_span:
            self.spans.append(_FusedRowSpan(plane, cells, row_span))

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
        # plan (service engine, bench steady state, DSE loop)
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
        self,
        cells: Sequence[tuple[object, MachineConfig | ChipTopology, float]],
        plan=None,
    ) -> list[Measurement]:
        """Measure ``(workload, config, duration)`` cells in one program.

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
