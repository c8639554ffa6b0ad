"""Analytic steady-state core performance model.

The model computes, for one hardware thread executing an endless loop,
the steady-state cycles per loop iteration as the maximum of four
bounds -- the classic bounds-analysis treatment (Bose et al., "Bounds
modelling and compiler optimizations for superscalar performance
tuning"):

* **dispatch bound** -- loop size over dispatch width;
* **unit bound** -- pipe-occupancy cycles per functional unit over its
  pipe count, with flexible operations (e.g. simple fixed-point ops
  that run on FXU *or* LSU) water-filled across their candidate units;
* **dependency bound** -- the maximum cycle mean of the register
  dependence graph.  The ILP pass assigns at most one producer per
  slot, so the graph is functional and the exact bound is computable in
  linear time by walking producer chains;
* **memory bound** -- total off-L1 miss latency over the per-thread
  outstanding-miss capacity (MSHRs).

SMT sharing divides dispatch, unit and MSHR capacity among the threads
of a core (with a small arbitration overhead), while per-thread
dependency chains are unaffected -- which is exactly why low-ILP
workloads scale well with SMT and high-IPC workloads do not.

Evaluation engine
-----------------

The public entry points (:meth:`CorePipelineModel.bounds`,
:meth:`~CorePipelineModel.activity`,
:meth:`~CorePipelineModel.mixed_core_activities`) run on a
:class:`~repro.sim.summary.KernelSummary` computed once per kernel and
memoized by analytic digest: per-mnemonic
:class:`~repro.march.properties.InstructionProperties` lookups are
precompiled into flat occupancy rows at model construction, one
water-fill result is shared between the unit bound and the per-unit
operation split, and kernels declaring a periodic structure are
summarized in O(period) work.  A summary reads the kernel's table
(:meth:`~repro.sim.kernel.Kernel.analytic_parts`: distinct analytic
keys, and the pattern and tail as runs of key positions), resolving
each key's latency and primary unit once; no slot object is read.  The
resulting per-thread activities feed the measurement plane
(:mod:`repro.sim.vector`), which re-clocks them, synthesizes their
counters and evaluates their power.  The pre-engine per-instruction
walk lives on as the test oracle (``tests/oracle/pipeline.py``), and
the slot-object summary as ``tests/oracle/kernels.py``; tests assert
the paths agree on arbitrary kernels.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import cycle
from operator import is_not, ne

from repro.caching import LRUCache
from repro.errors import MicroProbeError, UnknownInstructionError
from repro.march.definition import MicroArchitecture
from repro.march.properties import InstructionProperties
from repro.sim.activity import ThreadActivity
from repro.sim.kernel import Kernel
from repro.sim.summary import KernelSummary

#: Outstanding-miss registers per hardware thread context.
MSHRS_PER_THREAD = 8

#: SMT arbitration overhead on shared-capacity bounds, by SMT way.
SMT_OVERHEAD = {1: 0.0, 2: 0.04, 4: 0.09}

#: Secondary unit usages occupy one pipe-cycle per injected operation.
SECONDARY_OCCUPANCY = 1.0

#: Whether a primary unit is present (``None`` marks no unit usage).
_is_unit = partial(is_not, None)

#: Summaries retained per model; exhaustive sweeps over huge design
#: spaces never revisit a kernel, so the cache evicts LRU past this.
SUMMARY_CACHE_LIMIT = 65_536


@dataclass(frozen=True)
class PipelineBounds:
    """The four steady-state bounds, in cycles per loop iteration."""

    dispatch: float
    unit: float
    dependency: float
    memory: float

    @property
    def period(self) -> float:
        """Binding steady-state cycles per iteration."""
        return max(self.dispatch, self.unit, self.dependency, self.memory)

    @property
    def binding(self) -> str:
        """Name of the binding bound."""
        bounds = {
            "dispatch": self.dispatch,
            "unit": self.unit,
            "dependency": self.dependency,
            "memory": self.memory,
        }
        return max(bounds, key=bounds.get)


class _PropertyRow:
    """Flat, precompiled per-mnemonic occupancy/ops row.

    Everything the hot loop needs from
    :class:`~repro.march.properties.InstructionProperties` and the ISA
    definition, with the usage-position arithmetic (primary usage costs
    ``inv_throughput`` per op, secondaries one pipe-cycle per op)
    already folded in.
    """

    __slots__ = (
        "latency",
        "fixed_occupancy",
        "flexible_occupancy",
        "fixed_ops",
        "flexible_ops",
        "primary_unit",
        "is_store",
    )

    def __init__(
        self,
        props: InstructionProperties,
        is_store: bool,
    ) -> None:
        self.latency = props.latency
        self.is_store = is_store
        fixed_occupancy: list[tuple[str, float]] = []
        flexible_occupancy: list[tuple[tuple[str, ...], float]] = []
        fixed_ops: list[tuple[str, float]] = []
        flexible_ops: list[tuple[tuple[str, ...], float]] = []
        for position, usage in enumerate(props.usages):
            occupancy = (
                props.inv_throughput * usage.ops
                if position == 0
                else SECONDARY_OCCUPANCY * usage.ops
            )
            if usage.is_flexible:
                flexible_occupancy.append((usage.units, occupancy))
                flexible_ops.append((usage.units, usage.ops))
            else:
                fixed_occupancy.append((usage.units[0], occupancy))
                fixed_ops.append((usage.units[0], usage.ops))
        self.fixed_occupancy = tuple(fixed_occupancy)
        self.flexible_occupancy = tuple(flexible_occupancy)
        self.fixed_ops = tuple(fixed_ops)
        self.flexible_ops = tuple(flexible_ops)
        self.primary_unit = (
            props.usages[0].units[0] if props.usages else None
        )


class CorePipelineModel:
    """Maps kernels to per-thread steady-state activity."""

    def __init__(self, arch: MicroArchitecture) -> None:
        self.arch = arch
        self._level_latency = {
            cache.name: cache.latency for cache in arch.caches
        }
        self._level_latency[arch.memory.name] = arch.memory.latency
        self._l1_name = arch.caches[0].name
        self._unit_pipes = {
            name: unit.pipes for name, unit in arch.units.items()
        }
        # Per-mnemonic rows compile lazily on first use (see _row):
        # a model constructed for a handful of kernels -- a cold
        # executor machine -- never pays for the full ISA.
        self._rows: dict[str, _PropertyRow] = {}
        self._summaries: LRUCache[int, KernelSummary] = LRUCache(
            SUMMARY_CACHE_LIMIT, "pipeline.summaries"
        )

    # -- public API ---------------------------------------------------------

    def summarize(self, kernel: Kernel) -> KernelSummary:
        """The kernel's steady-state summary (memoized by digest)."""
        digest = kernel.digest()
        cached = self._summaries.get(digest)
        if cached is not None and cached.size == len(kernel):
            return cached
        summary = self._build_summary(kernel, digest)
        self._summaries.put(digest, summary)
        return summary

    def bounds(self, kernel: Kernel, smt: int = 1) -> PipelineBounds:
        """Steady-state bounds for one thread at the given SMT way."""
        return self.bounds_from_summary(self.summarize(kernel), smt)

    def bounds_from_summary(
        self, summary: KernelSummary, smt: int = 1
    ) -> PipelineBounds:
        """Bounds from a precomputed summary (O(1))."""
        share = self._share(smt)
        return PipelineBounds(
            dispatch=summary.size / self.arch.chip.dispatch_width * share,
            unit=summary.unit_bound * share,
            dependency=summary.dependency_bound,
            memory=summary.miss_latency / MSHRS_PER_THREAD * share,
        )

    def activity(self, kernel: Kernel, smt: int = 1) -> ThreadActivity:
        """Full steady-state activity vector for one thread."""
        return self.activity_from_summary(self.summarize(kernel), smt)

    def activity_from_summary(
        self, summary: KernelSummary, smt: int = 1
    ) -> ThreadActivity:
        """Activity vector from a precomputed summary (O(units))."""
        period = self.bounds_from_summary(summary, smt).period
        return self._summary_activity(summary, period)

    def _summary_activity(
        self, summary: KernelSummary, period: float
    ) -> ThreadActivity:
        """Activity of one thread committing an iteration per ``period``."""
        frequency = self.arch.chip.cycles_per_second
        iterations_per_second = frequency / period
        return ThreadActivity(
            ipc=summary.size / period,
            insn_rates={
                mnemonic: count * iterations_per_second
                for mnemonic, count in summary.mnemonic_counts.items()
            },
            unit_op_rates={
                unit: ops * iterations_per_second
                for unit, ops in summary.unit_ops.items()
            },
            level_rates={
                level: count * iterations_per_second
                for level, count in summary.level_counts.items()
            },
            alternation=summary.alternation,
            entropy=summary.entropy,
        )

    def mixed_core_activities(
        self, summaries: Sequence[KernelSummary], smt: int
    ) -> list[ThreadActivity]:
        """Per-thread activities for dissimilar kernels sharing a core.

        Generalizes the homogeneous SMT capacity split: each thread's
        steady-state period is ``max(dependency_bound, beta *
        solo_shared_bound)`` for a common contention multiplier
        ``beta`` -- dependency chains stay private while a single
        arbitration slowdown throttles every co-runner's use of the
        shared resources.  The smallest feasible ``beta`` is found by
        bisection against three monotone capacity constraints, with
        the per-unit constraint *water-filling the mixed occupancies*
        of all co-runners jointly (flexible operations spill to
        whichever pipes the co-runner mix leaves idle):

        * dispatch: combined dispatch-cycles per cycle within the
          arbitration-degraded width;
        * units: the joint water-filled per-pipe load within capacity;
        * memory: combined outstanding-miss latency within the MSHR
          pool.

        For identical co-runners the solution coincides with the
        homogeneous path (``beta = smt / (1 - overhead)`` or the
        dependency bound); the machine still routes homogeneous cores
        through :meth:`activity_from_summary` so those stay
        bit-identical.
        """
        if smt not in SMT_OVERHEAD:
            raise MicroProbeError(f"unsupported SMT way {smt}")
        if len(summaries) != smt:
            raise MicroProbeError(
                f"mixed core needs exactly {smt} co-runners at SMT-{smt}, "
                f"got {len(summaries)}"
            )
        available = 1.0 - SMT_OVERHEAD[smt]
        width = self.arch.chip.dispatch_width
        dispatch = [summary.size / width for summary in summaries]
        memory = [
            summary.miss_latency / MSHRS_PER_THREAD for summary in summaries
        ]
        dependency = [summary.dependency_bound for summary in summaries]
        shared_max = [
            max(d, summary.unit_bound, m)
            for d, summary, m in zip(dispatch, summaries, memory)
        ]

        def periods(beta: float) -> list[float]:
            return [
                max(dep, beta * shared)
                for dep, shared in zip(dependency, shared_max)
            ]

        def feasible(beta: float) -> bool:
            slack = available * (1.0 + 1e-12)
            spans = periods(beta)
            if any(span <= 0.0 for span in spans):
                return False
            rates = [1.0 / span for span in spans]
            if sum(r * d for r, d in zip(rates, dispatch)) > slack:
                return False
            if sum(r * m for r, m in zip(rates, memory)) > slack:
                return False
            fixed = {name: 0.0 for name in self.arch.units}
            flexible: dict[tuple[str, ...], float] = {}
            for rate, summary in zip(rates, summaries):
                for unit, occupancy in summary.fixed_occupancy.items():
                    fixed[unit] += occupancy * rate
                for units, occupancy in summary.flexible_occupancy.items():
                    flexible[units] = (
                        flexible.get(units, 0.0) + occupancy * rate
                    )
            loads = self._waterfill(fixed, flexible)
            bound = max(
                (
                    loads[name] / self._unit_pipes[name]
                    for name in loads
                ),
                default=0.0,
            )
            return bound <= slack

        hi = 1.0
        for _ in range(64):
            if feasible(hi):
                break
            hi *= 2.0
        else:  # pragma: no cover - demands are finite by construction
            raise MicroProbeError("mixed-core contention did not converge")
        lo = 0.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        return [
            self._summary_activity(summary, span)
            for summary, span in zip(summaries, periods(hi))
        ]

    def alternation(self, kernel: Kernel) -> float:
        """Fraction of adjacent slots executing on different units."""
        return self.summarize(kernel).alternation

    def cache_stats(self) -> dict:
        """Hit/miss/size counters of the summary memo cache."""
        return self._summaries.stats()

    # -- property rows ------------------------------------------------------------

    def _row(self, mnemonic: str) -> _PropertyRow:
        row = self._rows.get(mnemonic)
        if row is None:
            row = self._rows[mnemonic] = self._build_row(mnemonic)
        return row

    def _build_row(self, mnemonic: str) -> _PropertyRow:
        props = self.arch.props(mnemonic)
        try:
            is_store = self.arch.isa.instruction(mnemonic).is_store
        except UnknownInstructionError:
            # A mnemonic with properties but no ISA definition (a user
            # pruning the ISA after properties were built) can only
            # matter if a kernel still uses it as a memory op, and then
            # it counts as a load.
            is_store = False
        return _PropertyRow(props, is_store)

    def _share(self, smt: int) -> float:
        if smt not in SMT_OVERHEAD:
            raise MicroProbeError(f"unsupported SMT way {smt}")
        return smt / (1.0 - SMT_OVERHEAD[smt])

    # -- summary construction -------------------------------------------------------

    @staticmethod
    def _reduce_parts(
        pattern: list[int], repeats: int, tail: list[int]
    ) -> tuple[list[int], int, list[int]]:
        """Shrink a declared decomposition to its minimal analytic period.

        The period contract only promises analytic equivalence
        (mnemonic, dependency distance, source level -- addresses may
        differ), so a pattern that is itself analytically periodic with
        some divisor ``q`` of its length describes the same replicated
        body as the ``q``-slot pattern repeated proportionally more
        times; a tail prefix that keeps following that periodicity
        (builders put the replicated remainder plus the loop branch
        there) folds into extra repeats the same way.  Every summary
        quantity below is a function of the decomposition's
        *per-mnemonic integer counts* and junction structure, both
        invariant under this rewrite, so the reduced summary is
        bit-identical to the declared one -- just O(q + reduced tail)
        instead of O(declared period + tail) to accumulate.
        (Stressmark builders declare the lcm of sequence length and
        address round-robin as their period and the bare sequence
        length as ``analytic_period``, to which
        :meth:`Kernel.analytic_parts` already cut the pattern.)
        ``pattern`` and ``tail`` are runs of analytic-key positions.
        """
        length = len(pattern)
        if length < 2 or repeats < 1:
            return pattern, repeats, tail
        for q in range(1, length // 2 + 1):
            if not length % q and pattern[q:] == pattern[: length - q]:
                break
        else:
            q = length
        repeats = repeats * (length // q)
        # Fold the tail prefix that continues the q-periodicity into
        # whole extra repeats; the sub-period remainder it ends on goes
        # back to the front of the reduced tail (those slots are
        # analytically interchangeable with their pattern images).
        follows = [*map(ne, tail, cycle(pattern[:q])), True].index(True)
        leftover = follows % q
        repeats += (follows - leftover) // q
        return pattern[:q], repeats, tail[follows - leftover:]

    def _build_summary(self, kernel: Kernel, digest: int) -> KernelSummary:
        # Slots that differ only in address share one analytic key, so
        # every per-key quantity below is resolved once per key.
        keys, pattern, repeats, tail = kernel.analytic_parts()
        pattern, repeats, tail = self._reduce_parts(pattern, repeats, tail)

        # Per-mnemonic counts and memory accesses per (mnemonic, level):
        # one count per analytic key of the period and of the tail, the
        # period's scaled by its repeats; keys in first-use order.
        counts: dict[str, int] = {}
        memory_counts: dict[tuple[str, str], int] = {}
        has_deps = False
        for run, times in ((pattern, repeats), (tail, 1)):
            for key, count in Counter(run).items():
                mnemonic, distance, level = keys[key]
                count *= times
                counts[mnemonic] = counts.get(mnemonic, 0) + count
                if level is not None:
                    memory_counts[mnemonic, level] = (
                        memory_counts.get((mnemonic, level), 0) + count
                    )
                has_deps = has_deps or distance is not None

        level_counts: dict[str, float] = {}
        miss_latency = 0.0
        l1_latency = self._level_latency[self._l1_name]
        for (mnemonic, level), count in memory_counts.items():
            level_counts[level] = level_counts.get(level, 0.0) + count
            key = "_stores" if self._row(mnemonic).is_store else "_loads"
            level_counts[key] = level_counts.get(key, 0.0) + count
            if level != self._l1_name:
                miss_latency += count * (
                    self._level_latency[level] - l1_latency
                )

        # Unit occupancies and operation counts from the mnemonic
        # histogram; one shared water-fill covers bound and op split.
        fixed_occ = {name: 0.0 for name in self.arch.units}
        flexible_occ: dict[tuple[str, ...], float] = {}
        fixed_ops = {name: 0.0 for name in self.arch.units}
        flexible_ops: dict[tuple[str, ...], float] = {}
        for mnemonic, count in counts.items():
            row = self._row(mnemonic)
            for unit, occupancy in row.fixed_occupancy:
                fixed_occ[unit] += occupancy * count
            for units, occupancy in row.flexible_occupancy:
                flexible_occ[units] = (
                    flexible_occ.get(units, 0.0) + occupancy * count
                )
            for unit, ops in row.fixed_ops:
                fixed_ops[unit] += ops * count
            for units, ops in row.flexible_ops:
                flexible_ops[units] = (
                    flexible_ops.get(units, 0.0) + ops * count
                )

        unit_loads = self._waterfill(fixed_occ, flexible_occ)
        unit_bound = max(
            (
                unit_loads[name] / self._unit_pipes[name]
                for name in unit_loads
            ),
            default=0.0,
        )
        unit_ops = self._split_flexible_ops(
            fixed_ops, flexible_ops, fixed_occ, unit_loads
        )

        # Dependency cycles only exist when some slot carries a link;
        # by the period contract, checking one period plus the tail
        # decides that for the whole body, which the reduced parts
        # spell slot for slot.
        dependency = (
            self._dependency_bound(keys, pattern * repeats + tail)
            if has_deps else 0.0
        )

        return KernelSummary(
            digest=digest,
            size=len(kernel),
            mnemonic_counts=counts,
            level_counts=level_counts,
            miss_latency=miss_latency,
            dependency_bound=dependency,
            unit_loads=unit_loads,
            unit_bound=unit_bound,
            unit_ops=unit_ops,
            alternation=self._periodic_alternation(
                keys, pattern, repeats, tail
            ),
            entropy=kernel.operand_entropy,
            fixed_occupancy=fixed_occ,
            flexible_occupancy=flexible_occ,
        )

    def _split_flexible_ops(
        self,
        fixed_ops: dict[str, float],
        flexible_ops: dict[tuple[str, ...], float],
        fixed_occ: dict[str, float],
        unit_loads: dict[str, float],
    ) -> dict[str, float]:
        """Assign flexible ops in proportion to water-filled occupancy."""
        ops = dict(fixed_ops)
        for units, total_ops in flexible_ops.items():
            extra = {
                name: max(0.0, unit_loads[name] - fixed_occ[name])
                for name in units
            }
            total_extra = sum(extra.values())
            for name in units:
                share = (
                    extra[name] / total_extra
                    if total_extra
                    else 1 / len(units)
                )
                ops[name] += total_ops * share
        return {name: value for name, value in ops.items() if value > 0}

    def _periodic_alternation(
        self,
        keys: list[tuple],
        pattern: list[int],
        repeats: int,
        tail: list[int],
    ) -> float:
        """Unit-alternation of ``pattern * repeats + tail``, O(period).

        Matches the reference definition exactly: primary units of all
        slots (slots with no unit usage excluded), circular adjacent
        pairs, fraction that differ.  Each analytic key's unit is
        resolved once.
        """
        unit = [self._row(mnemonic).primary_unit for mnemonic, _, _ in keys]
        pattern_units = list(filter(_is_unit, map(unit.__getitem__, pattern)))
        tail_units = list(filter(_is_unit, map(unit.__getitem__, tail)))
        total = len(pattern_units) * repeats + len(tail_units)
        if total < 2:
            return 0.0

        changes = 0
        if pattern_units:
            internal = sum(map(ne, pattern_units, pattern_units[1:]))
            junction = int(pattern_units[-1] != pattern_units[0])
            changes += internal * repeats
            if tail_units:
                changes += junction * (repeats - 1)
                changes += int(pattern_units[-1] != tail_units[0])
                changes += int(tail_units[-1] != pattern_units[0])
            else:
                changes += junction * repeats
        if tail_units:
            changes += sum(map(ne, tail_units, tail_units[1:]))
            if not pattern_units:
                changes += int(tail_units[-1] != tail_units[0])
        return changes / total

    def _waterfill(
        self,
        fixed: dict[str, float],
        flexible: dict[tuple[str, ...], float],
    ) -> dict[str, float]:
        """Assign flexible occupancy to equalize per-pipe load."""
        loads = dict(fixed)
        for units, amount in flexible.items():
            pipes = {name: self._unit_pipes[name] for name in units}
            remaining = amount
            # Iteratively raise the common per-pipe level across the
            # candidate units until the flexible occupancy is consumed.
            for _ in range(16):
                if remaining <= 1e-12:
                    break
                level = max(loads[name] / pipes[name] for name in units)
                target = level + remaining / sum(pipes.values())
                for name in units:
                    add = min(
                        remaining, max(0.0, target * pipes[name] - loads[name])
                    )
                    loads[name] += add
                    remaining -= add
        return loads

    def _dependency_bound(self, keys: list[tuple], body: list[int]) -> float:
        """Exact maximum cycle mean of the (functional) dependence graph.

        Each slot has at most one producer edge, so every dependence
        cycle is discovered by walking producer chains once, tracking
        accumulated latency and iteration-boundary crossings.  ``body``
        holds each slot's position in ``keys``, the analytic keys,
        whose distances and latencies are resolved once.
        """
        size = len(body)
        distance = [key[1] for key in keys]
        latency = [
            self._effective_latency(mnemonic, level)
            for mnemonic, _, level in keys
        ]
        distances = list(map(distance.__getitem__, body))
        latencies = list(map(latency.__getitem__, body))
        walked = [0] * size  # 0 unvisited, else 1 + the walk's start
        order = [0] * size  # a walked slot's position in its walk
        best = 0.0

        for start in range(size):
            if walked[start]:
                continue
            walk = start + 1
            path: list[int] = []
            node = start
            while not walked[node]:
                walked[node] = walk
                order[node] = len(path)
                path.append(node)
                link = distances[node]
                if link is None:
                    break
                node = (node - link) % size
            else:
                if walked[node] == walk:
                    # A cycle: the walk from its first visit, each step
                    # weighted by its producer's latency.
                    cycle = path[order[node]:]
                    weight = sum(
                        map(latencies.__getitem__, cycle[1:] + cycle[:1])
                    )
                    crossing = sum(
                        -((slot - distances[slot]) // size)
                        if slot < distances[slot] else 0
                        for slot in cycle
                    )
                    if crossing > 0:
                        best = max(best, weight / crossing)
        return best

    def _effective_latency(self, mnemonic: str, level: str | None) -> float:
        """Producer latency including the memory-level residency."""
        latency = self._row(mnemonic).latency
        if level is not None and level != self._l1_name:
            latency += (
                self._level_latency[level] - self._level_latency[self._l1_name]
            )
        return latency
