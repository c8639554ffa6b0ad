"""The row plan builder the columnar plans replaced.

:class:`PlanCell` and :class:`ExperimentPlan` here are the plan types
as they stood before :class:`repro.exec.plan.ExperimentPlan` moved onto
workload and configuration tables with index columns: one frozen cell
per requested cell, deduplicated by hashing each cell's
:meth:`PlanCell.identity`, and one :meth:`PlanCell.key` per cell.
Tests and benches build the same plans both ways and compare the
unique cells, the expansion, ``describe()``, every store key, the wire
body (:func:`plan_to_dict_v2`, the row encoder as it stood) and the
measurements.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import MeasurementError, PlanValidationError
from repro.exec.plan import sweep_configs, workload_fingerprint
from repro.exec.serialize import (
    PLAN_WIRE_V2,
    config_to_dict,
    wire_digest,
    workload_to_dict,
)
from repro.hashing import content_hex
from repro.measure.measurement import DEFAULT_DURATION_S
from repro.sim.config import MachineConfig
from repro.sim.pstate import PState
from repro.sim.topology import ChipTopology


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
        if isinstance(self.config, ChipTopology):
            degenerate = self.config.degenerate_config()
            if degenerate is not None:
                object.__setattr__(self, "config", degenerate)

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
        if isinstance(self.config, ChipTopology):
            digests = cluster_digests or {}
            parts = [
                "cell-topo-v1",
                arch_name,
                arch_digest,
                machine_seed,
                self.duration,
                workload_fingerprint(self.workload),
            ]
            for cluster in self.config.clusters:
                p_state = cluster.p_state
                parts.append(
                    (
                        cluster.name,
                        cluster.core_class or "",
                        digests.get(cluster.core_class, 0),
                        cluster.cores,
                        cluster.smt,
                        p_state.name,
                        p_state.freq_scale,
                        p_state.volt_scale,
                    )
                )
            return content_hex("|".join(str(part) for part in parts))
        p_state: PState = self.config.p_state
        parts = (
            "cell-v1",
            arch_name,
            arch_digest,
            machine_seed,
            self.config.cores,
            self.config.smt,
            p_state.name,
            p_state.freq_scale,
            p_state.volt_scale,
            self.duration,
            workload_fingerprint(self.workload),
        )
        return content_hex("|".join(str(part) for part in parts))


class ExperimentPlan:
    """A deduplicated, ordered collection of measurement cells.

    The plan remembers every *requested* cell but holds each distinct
    physical measurement once: :attr:`cells` is the unique sequence an
    executor measures, and :meth:`expand` fans unique results back out
    to the requested order.  Construction order is preserved, so an
    executor that walks :attr:`cells` front to back reproduces the
    historical serial measurement order.
    """

    def __init__(self, cells: Iterable[PlanCell]) -> None:
        unique: list[PlanCell] = []
        index_of: dict[tuple, int] = {}
        expansion: list[int] = []
        for cell in cells:
            identity = cell.identity()
            index = index_of.get(identity)
            if index is None:
                index = len(unique)
                index_of[identity] = index
                unique.append(cell)
            expansion.append(index)
        # An empty plan is valid and executes to an empty result list,
        # matching the historical behaviour of running zero workloads.
        self.cells: tuple[PlanCell, ...] = tuple(unique)
        self._expansion: tuple[int, ...] = tuple(expansion)

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
        swept = sweep_configs(configs, p_states)
        return cls(
            PlanCell(workload, config, duration)
            for config in swept
            for workload in workloads
        )

    @classmethod
    def single(
        cls,
        workload: object,
        config: MachineConfig,
        duration: float = DEFAULT_DURATION_S,
    ) -> "ExperimentPlan":
        """A one-cell plan."""
        return cls([PlanCell(workload, config, duration)])

    # -- shape -----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Distinct physical measurements the plan requires."""
        return len(self.cells)

    @property
    def requested(self) -> int:
        """Cells as requested, duplicates included."""
        return len(self._expansion)

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
        seen: set[int] = set()
        for cell in self.cells:
            marker = id(cell.config)
            if marker in seen:
                continue
            seen.add(marker)
            try:
                machine.validate_config(cell.config)
            except MeasurementError as exc:
                raise PlanValidationError(
                    f"plan cell cannot run on {machine.arch.name}: {exc}"
                ) from None
        return self

    def expand(self, unique_results: Sequence) -> list:
        """Fan per-unique-cell results back out to requested order."""
        if len(unique_results) != len(self.cells):
            raise ValueError(
                f"expected {len(self.cells)} unique results, "
                f"got {len(unique_results)}"
            )
        return [unique_results[index] for index in self._expansion]

    def describe(self) -> str:
        """One-line summary for logs."""
        configs = {cell.config.label for cell in self.cells}
        return (
            f"{self.size} unique cells ({self.requested} requested) "
            f"across {len(configs)} configuration(s)"
        )


def plan_to_dict_v2(plan: ExperimentPlan) -> dict:
    """Wire form of a plan: pooled ingredients, digest refs.

    Only the plan's *unique* cells travel, in construction order:
    duplicate requested cells are a client-side concern (the client
    keeps its plan and fans unique results back out with
    :meth:`~repro.exec.plan.ExperimentPlan.expand`).  Each distinct
    workload/config serializes once; repeated objects
    (the common case -- ``ExperimentPlan.cross`` shares instances) are
    recognized by identity before falling back to content digest, so a
    stressmark x 24-config sweep hashes the kernel once, not 24 times.
    """
    workload_pool: list[list] = []
    config_pool: list[list] = []
    workload_by_id: dict[int, str] = {}
    config_by_id: dict[int, str] = {}
    workload_digests: set[str] = set()
    config_digests: set[str] = set()
    cells = []
    for cell in plan.cells:
        wdigest = workload_by_id.get(id(cell.workload))
        if wdigest is None:
            entry = workload_to_dict(cell.workload)
            wdigest = wire_digest(entry)
            if wdigest not in workload_digests:
                workload_digests.add(wdigest)
                workload_pool.append([wdigest, entry])
            workload_by_id[id(cell.workload)] = wdigest
        cdigest = config_by_id.get(id(cell.config))
        if cdigest is None:
            entry = config_to_dict(cell.config)
            cdigest = wire_digest(entry)
            if cdigest not in config_digests:
                config_digests.add(cdigest)
                config_pool.append([cdigest, entry])
            config_by_id[id(cell.config)] = cdigest
        cells.append(
            {"workload": wdigest, "config": cdigest, "duration": cell.duration}
        )
    return {
        "wire": PLAN_WIRE_V2,
        "pool": {"workloads": workload_pool, "configs": config_pool},
        "cells": cells,
    }
