"""Placements: per-hardware-thread workload assignment.

The paper's methodology deploys *one* workload replicated across every
hardware thread of a configuration.  A :class:`Placement` generalizes
that to heterogeneous co-scheduling: each enabled core carries an
explicit tuple of workloads, one per SMT slot, so dissimilar kernels
can share a core's SMT resources (hi-ILP next to memory-bound, vector
next to scalar, antagonist pairs -- see :mod:`repro.workloads.mixes`).

The homogeneous placement is the exact degenerate case: deploying one
workload everywhere reproduces ``Machine.run(workload, config)`` bit
for bit -- same counters, same noise draws -- so existing callers and
cached digests are unchanged.

Within a core, SMT contention among dissimilar kernels is resolved by
the pipeline model's mixed-core solver
(:meth:`~repro.sim.pipeline.CorePipelineModel.mixed_core_activities`).
Physically, which SMT slot of a core a thread occupies is irrelevant --
chip power and aggregate behaviour are invariant under permuting
co-runners within a core (and under permuting whole cores).  The
machine guarantees this *exactly* by evaluating power and noise seeds
over the :meth:`canonical ordering <Placement.canonical_order>` of the
placement rather than its declaration order, while per-thread counter
readings keep the declaration order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.kernel import Kernel
from repro.sim.sensors import stable_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.config import MachineConfig


def workload_key(workload: object) -> tuple:
    """Deterministic, sortable identity of one placed workload.

    Kernels are identified by name plus analytic digest (two kernels
    sharing a name never alias); protocol workloads by kind and name.
    The key is stable across processes, so canonical orderings and the
    noise salts derived from them reproduce bit-for-bit.
    """
    if isinstance(workload, Kernel):
        return ("kernel", workload.name, workload.digest())
    return ("workload", getattr(workload, "name", type(workload).__name__), 0)


def strict_workload_key(workload: object) -> tuple:
    """Aliasing-proof identity, for homogeneity decisions.

    :func:`workload_key` identifies protocol workloads by name because
    noise salts must be process-stable; but two *distinct* workload
    objects sharing a name must never be treated as one copy of the
    same work.  Homogeneity checks therefore use kernel content
    digests (value identity -- equal-content kernels genuinely are the
    same work) and plain object identity for everything else.
    """
    if isinstance(workload, Kernel):
        return ("kernel", workload.digest())
    return ("object", id(workload))


@dataclass(frozen=True)
class Placement:
    """One workload per hardware thread, grouped by core.

    Attributes:
        name: Identifier used in measurements and noise seeding.
        core_groups: Per enabled core, the workloads occupying its SMT
            slots (every core must carry the same slot count -- the SMT
            mode is a chip-wide switch).
    """

    name: str
    core_groups: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"placement needs a name, got {self.name!r}")
        if not self.core_groups:
            raise ValueError(f"placement {self.name!r} has no cores")
        for index, group in enumerate(self.core_groups):
            if len(group) < 1:
                raise ValueError(
                    f"placement {self.name!r}: core {index} is empty"
                )

    # -- shape -----------------------------------------------------------------

    @property
    def cores(self) -> int:
        """Enabled cores."""
        return len(self.core_groups)

    @property
    def is_uniform(self) -> bool:
        """Whether every core carries the same SMT slot count.

        Homogeneous-chip placements are always uniform (the SMT mode
        is a chip-wide switch); placements laid out for a
        :class:`~repro.sim.topology.ChipTopology` may be ragged, one
        width per cluster.
        """
        width = len(self.core_groups[0])
        return all(len(group) == width for group in self.core_groups)

    @property
    def smt(self) -> int:
        """SMT slots per core (uniform placements)."""
        return len(self.core_groups[0])

    @property
    def threads(self) -> int:
        """Total hardware threads occupied."""
        return self.cores * self.smt

    @property
    def thread_workloads(self) -> tuple[object, ...]:
        """All placed workloads, core-major declaration order."""
        return tuple(
            workload for group in self.core_groups for workload in group
        )

    @property
    def thread_names(self) -> tuple[str, ...]:
        """Per-thread workload names, core-major declaration order."""
        return tuple(
            getattr(workload, "name", type(workload).__name__)
            for workload in self.thread_workloads
        )

    @property
    def is_homogeneous(self) -> bool:
        """Whether every thread runs the same workload."""
        keys = {
            strict_workload_key(workload)
            for workload in self.thread_workloads
        }
        return len(keys) == 1

    def validate_against(self, config) -> None:
        """Raise ``ValueError`` if the placement does not fit ``config``.

        ``config`` is either a :class:`~repro.sim.config.MachineConfig`
        (uniform core groups, chip-wide SMT) or a
        :class:`~repro.sim.topology.ChipTopology` (cluster-major core
        groups, each as wide as its cluster's SMT way).
        """
        clusters = getattr(config, "clusters", None)
        if clusters is not None:
            if self.cores != config.cores:
                raise ValueError(
                    f"placement {self.name!r} has {self.cores} cores, "
                    f"topology {config.label} enables {config.cores}"
                )
            core = 0
            for cluster in clusters:
                for _ in range(cluster.cores):
                    width = len(self.core_groups[core])
                    if width != cluster.smt:
                        raise ValueError(
                            f"placement {self.name!r}: core {core} "
                            f"carries {width} workloads, cluster "
                            f"{cluster.label!r} of {config.label} runs "
                            f"SMT-{cluster.smt}"
                        )
                    core += 1
            return
        if not self.is_uniform:
            raise ValueError(
                f"placement {self.name!r} has ragged core groups; "
                f"configuration {config.label}'s SMT mode is chip-wide"
            )
        if self.cores != config.cores or self.smt != config.smt:
            raise ValueError(
                f"placement {self.name!r} is {self.cores} cores x "
                f"SMT-{self.smt}, configuration {config.label} needs "
                f"{config.cores} x SMT-{config.smt}"
            )

    # -- canonical identity -------------------------------------------------------

    def segment_order(self, start: int, stop: int) -> list[tuple[int, int]]:
        """Canonical ``(core, slot)`` order of cores ``[start, stop)``.

        Slots sort by workload identity within each core, and the
        segment's cores sort by their sorted identity tuples.  On a
        heterogeneous topology each cluster is one segment: cores are
        interchangeable *within* a cluster (identical silicon) but not
        across clusters, so power and noise salts canonicalize per
        segment.
        """
        key_of: dict[int, tuple] = {}
        per_core = {}
        for core in range(start, stop):
            keys = []
            for workload in self.core_groups[core]:
                key = key_of.get(id(workload))
                if key is None:
                    key = key_of[id(workload)] = workload_key(workload)
                keys.append(key)
            order = sorted(range(len(keys)), key=keys.__getitem__)
            per_core[core] = (order, tuple(keys[slot] for slot in order))
        core_order = sorted(
            range(start, stop), key=lambda core: per_core[core][1]
        )
        return [
            (core, slot) for core in core_order for slot in per_core[core][0]
        ]

    def canonical_order(self) -> tuple[tuple[int, int], ...]:
        """``(core, slot)`` pairs in the placement's canonical order.

        Slots sort by workload identity within each core, and cores
        sort by their sorted identity tuples.  Any two placements that
        are within-core (or whole-core) permutations of each other
        share one canonical order, which is what makes chip power and
        noise draws exactly permutation-invariant.  Placements are
        frozen, so the order is computed once per instance.
        """
        cached = self.__dict__.get("_canonical_order")
        if cached is None:
            cached = tuple(self.segment_order(0, self.cores))
            object.__setattr__(self, "_canonical_order", cached)
        return cached

    def canonical_salt(self) -> int:
        """Noise-seed salt, invariant under co-runner permutation.

        The homogeneous case returns the single kernel's digest (zero
        for protocol workloads), matching the salt ``Machine.run``
        uses -- a homogeneous placement therefore draws the exact same
        sensor noise as the plain run it degenerates to.  Computed
        once per (frozen) instance.
        """
        cached = self.__dict__.get("_canonical_salt")
        if cached is not None:
            return cached
        workloads = self.thread_workloads
        if self.is_homogeneous:
            first = workloads[0]
            cached = first.digest() if isinstance(first, Kernel) else 0
        else:
            cached = stable_seed(
                *(
                    workload_key(self.core_groups[core][slot])
                    for core, slot in self.canonical_order()
                )
            )
        object.__setattr__(self, "_canonical_salt", cached)
        return cached

    def canonical_salt_for(self, topology) -> int:
        """Noise salt on a heterogeneous topology, segment-canonical.

        Invariant under co-runner permutation within a core and core
        permutation within a cluster, but *not* across clusters --
        moving work from big to little cores is a different physical
        run.  The homogeneous case returns the plain-run salt, so a
        homogeneous placement on a topology draws the exact noise of
        the corresponding ``Machine.run`` deployment.
        """
        if self.is_homogeneous:
            first = self.thread_workloads[0]
            return first.digest() if isinstance(first, Kernel) else 0
        parts: list[object] = []
        offset = 0
        for index, cluster in enumerate(topology.clusters):
            parts.append(("cluster", index))
            for core, slot in self.segment_order(
                offset, offset + cluster.cores
            ):
                parts.append(workload_key(self.core_groups[core][slot]))
            offset += cluster.cores
        return stable_seed(*parts)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`.

        Only kernel placements serialize: generated kernels carry their
        full content, while protocol workloads (SPEC proxies) are
        opaque adapter objects a JSON file cannot reconstruct.

        Raises:
            TypeError: If some placed workload is not a
                :class:`~repro.sim.kernel.Kernel`.
        """
        for workload in self.thread_workloads:
            if not isinstance(workload, Kernel):
                raise TypeError(
                    f"placement {self.name!r} places "
                    f"{type(workload).__name__!r}; only kernel "
                    "placements serialize"
                )
        return {
            "name": self.name,
            "core_groups": [
                [workload.to_dict() for workload in group]
                for group in self.core_groups
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Placement":
        """Rebuild a placement serialized by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            core_groups=tuple(
                tuple(Kernel.from_dict(workload) for workload in group)
                for group in data["core_groups"]
            ),
        )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _core_widths(config) -> list[int]:
        """Per-core SMT slot counts, cluster-major for topologies."""
        clusters = getattr(config, "clusters", None)
        if clusters is not None:
            return [
                cluster.smt
                for cluster in clusters
                for _ in range(cluster.cores)
            ]
        return [config.smt] * config.cores

    @classmethod
    def homogeneous(
        cls,
        workload: object,
        config,
        name: str | None = None,
    ) -> "Placement":
        """One copy of ``workload`` per hardware thread (the paper's
        deployment), named after the workload so measurements and noise
        draws match ``Machine.run`` exactly.  On a
        :class:`~repro.sim.topology.ChipTopology` the groups are
        cluster-major, each core as wide as its cluster's SMT way."""
        if name is None:
            name = getattr(workload, "name", type(workload).__name__)
        return cls(
            name=name,
            core_groups=tuple(
                (workload,) * width for width in cls._core_widths(config)
            ),
        )

    @classmethod
    def round_robin(
        cls,
        workloads: Sequence[object],
        config,
        name: str,
    ) -> "Placement":
        """Cycle ``workloads`` across the configuration's threads,
        core-major -- every SMT-``n`` core co-schedules ``n``
        consecutive entries of the cycle.  Topologies cycle
        cluster-major over their (possibly ragged) thread grid."""
        if not workloads:
            raise ValueError("round_robin needs at least one workload")
        groups = []
        position = 0
        for width in cls._core_widths(config):
            groups.append(
                tuple(
                    workloads[(position + slot) % len(workloads)]
                    for slot in range(width)
                )
            )
            position += width
        return cls(name=name, core_groups=tuple(groups))

    @classmethod
    def cluster_affinity(
        cls,
        per_cluster: Sequence[object],
        topology,
        name: str,
    ) -> "Placement":
        """One workload per *cluster*, replicated across its threads.

        The big.LITTLE affinity layout: ``per_cluster[i]`` runs on
        every hardware thread of ``topology.clusters[i]`` -- e.g. the
        compute-hungry kernel pinned to the big cluster while the
        memory-bound stream rides the little cores.
        """
        clusters = topology.clusters
        if len(per_cluster) != len(clusters):
            raise ValueError(
                f"cluster_affinity needs {len(clusters)} workloads "
                f"for {topology.label}, got {len(per_cluster)}"
            )
        groups = []
        for workload, cluster in zip(per_cluster, clusters):
            groups.extend(
                [(workload,) * cluster.smt] * cluster.cores
            )
        return cls(name=name, core_groups=tuple(groups))
