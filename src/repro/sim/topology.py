"""Heterogeneous chip topologies: named clusters of unlike cores.

The paper characterizes one homogeneous CMP/SMT chip; modern
energy-characterization targets are heterogeneous (ARM big.LITTLE
phones, per-domain-DVFS server parts).  A :class:`ChipTopology`
generalizes :class:`~repro.sim.config.MachineConfig` from "N identical
cores" to "an ordered set of named core clusters", each with its own

* **core class** -- a registered micro-architecture definition
  (pipeline widths, unit mix, caches, clock) implementing the
  cluster's cores; ``None`` means the machine's base architecture;
* **core count** and **SMT level**;
* **operating point** -- a per-cluster DVFS domain, so ``4big@p2 +
  4little`` runs the big cluster down-volted while the little cluster
  stays nominal.

The single-cluster, base-class, nominal-name spelling is the *exact
degenerate case* of the old world: its label renders as the historical
``cores-smt[@p]`` string and :meth:`ChipTopology.degenerate_config`
recovers the equivalent :class:`MachineConfig`, which every consumer
(machine, plan cells, stores) collapses to -- making the old
configurations bit-identical by construction (labels, seeds, counters,
noise draws and store keys; enforced by the degeneracy property suite).

Label grammar (also the CLI ``--topology`` grammar)::

    topology := cluster ("+" cluster)*
    cluster  := COUNT [NAME] ["-" SMT] ["@" PSTATE]

    4-4            one unnamed (base-class) cluster, 4 cores, SMT-4
    4big+4little   4 big cores + 4 little cores, SMT-1, nominal
    4big-2@p2+4little-2   both clusters SMT-2, big cluster at p2

Cluster *names* resolve to core classes through a name map
(:data:`DEFAULT_CORE_CLASSES`: ``big`` is the base class, ``little`` /
``eco`` are the bundled POWER7_ECO LITTLE class); unnamed clusters are
always the base class.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

from repro.sim.config import MachineConfig, check_cmp_smt
from repro.sim.pstate import NOMINAL, PState, get_pstate

#: Cluster-name -> core-class resolution used by :func:`parse_topology`.
#: ``None`` maps to the running machine's base architecture.
DEFAULT_CORE_CLASSES: dict[str, str | None] = {
    "big": None,
    "little": "POWER7_ECO",
    "eco": "POWER7_ECO",
}

_CLUSTER_RE = re.compile(
    r"^(?P<cores>\d+)(?P<name>[A-Za-z_]*)"
    r"(?:-(?P<smt>\d+))?(?:@(?P<pstate>[\w.+-]+))?$"
)


@dataclass(frozen=True)
class CoreCluster:
    """One cluster of identical cores inside a heterogeneous chip.

    Attributes:
        name: Cluster name; empty for the unnamed (degenerate) cluster.
        cores: Enabled cores in the cluster.
        smt: Hardware threads per cluster core (1, 2 or 4).
        p_state: The cluster's own DVFS operating point.
        core_class: Architecture name of the core class; ``None`` means
            the machine's base architecture.
    """

    name: str = ""
    cores: int = 1
    smt: int = 1
    p_state: PState = NOMINAL
    core_class: str | None = None

    def __post_init__(self) -> None:
        check_cmp_smt(self.cores, self.smt, "cluster")
        if not isinstance(self.name, str) or (
            self.name and not self.name.isidentifier()
        ):
            raise ValueError(f"bad cluster name {self.name!r}")
        if not isinstance(self.core_class, (str, type(None))):
            raise ValueError(f"bad core class {self.core_class!r}")

    @property
    def threads(self) -> int:
        """Hardware thread contexts the cluster contributes."""
        return self.cores * self.smt

    @property
    def smt_enabled(self) -> bool:
        """Whether the cluster's SMT control logic is switched on."""
        return self.smt > 1

    @property
    def label(self) -> str:
        """Cluster part of the topology label.

        The unnamed cluster renders exactly like a
        :class:`MachineConfig` (``4-4``, ``4-4@p2``) -- labels seed
        sensor noise, so the degenerate spelling draws the exact
        pre-refactor noise.  Named clusters elide ``-1`` (``4big``,
        ``4big-2@p2``).
        """
        base = f"{self.cores}{self.name}"
        if not self.name or self.smt != 1:
            base += f"-{self.smt}"
        if not self.p_state.is_nominal:
            base += f"@{self.p_state.name}"
        return base

    def with_p_state(self, p_state: PState) -> "CoreCluster":
        """The same cluster at a different operating point."""
        return replace(self, p_state=p_state)

    def __str__(self) -> str:
        return self.label

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`."""
        return {
            "name": self.name,
            "cores": self.cores,
            "smt": self.smt,
            "p_state": self.p_state.to_dict(),
            "core_class": self.core_class,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoreCluster":
        """Rebuild a cluster serialized by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ValueError(f"cluster must be an object, got {data!r}")
        p_state = data.get("p_state")
        return cls(
            name=data.get("name", ""),
            cores=data["cores"],
            smt=data["smt"],
            p_state=PState.from_dict(p_state) if p_state else NOMINAL,
            core_class=data.get("core_class"),
        )


@dataclass(frozen=True)
class ChipTopology:
    """An ordered set of core clusters forming one chip.

    Hashable and usable everywhere a :class:`MachineConfig` is: in
    ``Machine.run``/``run_many``, plan cells, sweep dictionaries and
    measurement records.  Cluster order is physical (it fixes the
    core-major thread order of counter readings) and enters the label.
    """

    clusters: tuple[CoreCluster, ...]

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("topology needs at least one cluster")
        labels = [cluster.label for cluster in self.clusters]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"topology clusters must be distinguishable, got {labels}"
            )

    # -- shape -----------------------------------------------------------------

    @property
    def cores(self) -> int:
        """Total enabled cores across clusters."""
        return sum(cluster.cores for cluster in self.clusters)

    @property
    def threads(self) -> int:
        """Total hardware thread contexts, cluster-major."""
        return sum(cluster.threads for cluster in self.clusters)

    @property
    def smt_enabled(self) -> bool:
        """Whether any cluster runs with SMT switched on."""
        return any(cluster.smt_enabled for cluster in self.clusters)

    @property
    def smt(self) -> int:
        """Maximum SMT way across clusters (model-facing summary)."""
        return max(cluster.smt for cluster in self.clusters)

    @property
    def label(self) -> str:
        """``+``-joined cluster labels, e.g. ``4big@p2+4little-2``."""
        return "+".join(cluster.label for cluster in self.clusters)

    @property
    def core_classes(self) -> tuple[str | None, ...]:
        """Distinct core classes, first-appearance order."""
        seen: list[str | None] = []
        for cluster in self.clusters:
            if cluster.core_class not in seen:
                seen.append(cluster.core_class)
        return tuple(seen)

    # -- degeneracy ------------------------------------------------------------

    def degenerate_config(self) -> MachineConfig | None:
        """The equivalent :class:`MachineConfig`, if one exists.

        A topology is degenerate when it is a single *unnamed* cluster
        on the base core class -- exactly the old world spelled new.
        Named single clusters are not degenerate: their labels (and
        therefore noise seeds) differ, so they are physically distinct
        measurements.
        """
        if len(self.clusters) != 1:
            return None
        only = self.clusters[0]
        if only.name or only.core_class is not None:
            return None
        return MachineConfig(
            cores=only.cores, smt=only.smt, p_state=only.p_state
        )

    @classmethod
    def from_config(cls, config: MachineConfig) -> "ChipTopology":
        """The one-cluster spelling of a :class:`MachineConfig`."""
        return cls(
            clusters=(
                CoreCluster(
                    cores=config.cores,
                    smt=config.smt,
                    p_state=config.p_state,
                ),
            )
        )

    # -- operating points --------------------------------------------------------

    def with_p_state(self, p_state: PState) -> "ChipTopology":
        """Every cluster at one operating point (uniform DVFS sweep)."""
        return ChipTopology(
            clusters=tuple(
                cluster.with_p_state(p_state) for cluster in self.clusters
            )
        )

    def with_cluster_p_states(
        self, p_states: Sequence[PState]
    ) -> "ChipTopology":
        """Per-cluster operating points, cluster order."""
        if len(p_states) != len(self.clusters):
            raise ValueError(
                f"{len(self.clusters)} clusters need "
                f"{len(self.clusters)} p-states, got {len(p_states)}"
            )
        return ChipTopology(
            clusters=tuple(
                cluster.with_p_state(p_state)
                for cluster, p_state in zip(self.clusters, p_states)
            )
        )

    def __str__(self) -> str:
        return self.label

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`."""
        return {
            "clusters": [cluster.to_dict() for cluster in self.clusters]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChipTopology":
        """Rebuild a topology serialized by :meth:`to_dict`."""
        return cls(
            clusters=tuple(
                CoreCluster.from_dict(cluster)
                for cluster in data["clusters"]
            )
        )


def canonical_config(
    config: MachineConfig | ChipTopology,
) -> MachineConfig | ChipTopology:
    """Collapse a degenerate topology to its :class:`MachineConfig`.

    The collapse is the invariance mechanism of heterogeneous chips: a
    single-cluster base-class topology takes the *same code path* (and
    therefore the same labels, seeds, counters, store keys and noise
    draws) as the configuration it degenerates to.
    """
    if isinstance(config, ChipTopology):
        degenerate = config.degenerate_config()
        if degenerate is not None:
            return degenerate
    return config


def parse_topology(
    spec: str,
    core_classes: Mapping[str, str | None] | None = None,
) -> ChipTopology:
    """Parse a topology label such as ``4big-2@p2+4little``.

    Args:
        spec: The topology grammar string (see module docstring).
        core_classes: Cluster-name -> architecture-name map; defaults
            to :data:`DEFAULT_CORE_CLASSES`.  Names may also be
            architecture names directly (``4POWER7_ECO``-style names are
            rejected by the grammar; map them instead).

    Raises:
        ValueError: On bad syntax, unknown cluster names or unknown
            p-states.
    """
    if core_classes is None:
        core_classes = DEFAULT_CORE_CLASSES
    clusters = []
    for part in spec.split("+"):
        match = _CLUSTER_RE.match(part.strip())
        if match is None:
            raise ValueError(
                f"bad topology cluster {part!r} in {spec!r}; expected "
                "e.g. 4big, 4-4, 4big-2@p2"
            )
        name = match.group("name")
        if name and name not in core_classes:
            raise ValueError(
                f"unknown cluster name {name!r} in {spec!r}; known: "
                f"{', '.join(sorted(core_classes))}"
            )
        try:
            p_state = (
                get_pstate(match.group("pstate"))
                if match.group("pstate")
                else NOMINAL
            )
            clusters.append(
                CoreCluster(
                    name=name,
                    cores=int(match.group("cores")),
                    smt=int(match.group("smt") or 1),
                    p_state=p_state,
                    core_class=core_classes.get(name) if name else None,
                )
            )
        except (ValueError, KeyError) as exc:
            raise ValueError(
                f"bad topology cluster {part!r} in {spec!r}: {exc}"
            ) from None
    return ChipTopology(clusters=tuple(clusters))


def topology_ladder(
    core_budget: int = 8,
    step: int = 2,
    big_name: str = "big",
    little_name: str = "little",
    smt: int = 1,
    core_classes: Mapping[str, str | None] | None = None,
) -> tuple[ChipTopology, ...]:
    """Big:little ratio ladder at a fixed core budget.

    ``core_budget=8, step=2`` yields ``8big``, ``6big+2little``,
    ``4big+4little``, ``2big+6little``, ``8little`` -- the sweep shape
    cross-architecture campaigns ladder over (cf. freqbench's
    per-cluster curves).
    """
    if core_budget < 1 or step < 1:
        raise ValueError("core budget and step must be >= 1")
    if core_classes is None:
        core_classes = DEFAULT_CORE_CLASSES
    ladder = []
    for big in range(core_budget, -1, -step):
        little = core_budget - big
        clusters = []
        if big:
            clusters.append(
                CoreCluster(
                    name=big_name,
                    cores=big,
                    smt=smt,
                    core_class=core_classes.get(big_name),
                )
            )
        if little:
            clusters.append(
                CoreCluster(
                    name=little_name,
                    cores=little,
                    smt=smt,
                    core_class=core_classes.get(little_name),
                )
            )
        if clusters:
            ladder.append(ChipTopology(clusters=tuple(clusters)))
    return tuple(ladder)


def topology_from_arch(arch) -> ChipTopology | None:
    """The default topology a definition's ``[cluster]`` blocks declare.

    Returns ``None`` for homogeneous definitions.  ``core_class =
    self`` (or the defining architecture's own name) resolves to the
    base class; p-state names resolve against the standard ladder.
    """
    if not getattr(arch, "clusters", ()):
        return None
    clusters = []
    for spec in arch.clusters:
        core_class = (
            None
            if spec.core_class in ("self", arch.name)
            else spec.core_class
        )
        clusters.append(
            CoreCluster(
                name=spec.name,
                cores=spec.cores,
                smt=spec.smt,
                p_state=get_pstate(spec.p_state),
                core_class=core_class,
            )
        )
    return ChipTopology(clusters=tuple(clusters))
