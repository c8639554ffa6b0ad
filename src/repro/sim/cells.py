"""Cell batches as columns: object tables plus index columns.

A batch of ``(workload, configuration, window)`` cells is three tables
-- the workload objects, the configurations, the windows -- and one int
index column per axis.  :class:`~repro.exec.plan.ExperimentPlan` keeps
its unique cells this way, and the measurement plane
(:mod:`repro.sim.vector`) groups, seeds and gathers straight from the
columns, so a 180-kernel x 96-configuration cross never materializes
one row object per cell.  Iterating a batch still yields
``(workload, config, duration)`` rows (:class:`Cell`) for the callers
that want rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat
from typing import NamedTuple

import numpy as np


def first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate ``values`` in first-seen order.

    Returns the position of each distinct value's first occurrence, in
    order, and the rank of every value among them.
    """
    _, first, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


class Cell(NamedTuple):
    """One cell as a row: a workload on a configuration for a window."""

    workload: object
    config: object
    duration: float


class CellColumns:
    """Cells as tables and index columns.

    Cell ``i`` is ``(workloads[workload_index[i]],
    configs[config_index[i]], durations[duration_index[i]])``.  Tables
    may hold entries no cell references (:meth:`take` keeps its
    source's tables).
    """

    __slots__ = (
        "workloads",
        "configs",
        "durations",
        "workload_index",
        "config_index",
        "duration_index",
    )

    def __init__(
        self,
        workloads: Sequence,
        configs: Sequence,
        durations: Sequence,
        workload_index,
        config_index,
        duration_index,
    ) -> None:
        self.workloads = workloads
        self.configs = configs
        self.durations = durations
        self.workload_index = np.asarray(workload_index, dtype=np.intp)
        self.config_index = np.asarray(config_index, dtype=np.intp)
        self.duration_index = np.asarray(duration_index, dtype=np.intp)

    @classmethod
    def from_rows(cls, cells: Iterable) -> "CellColumns":
        """The columns of cells with ``workload``, ``config`` and
        ``duration`` attributes, in order.

        Workloads and configurations enter their tables once per
        object, windows once per typed value (``1`` and ``1.0`` stay
        apart: each cell's own window is carried into its measurement).
        """
        workloads: list = []
        configs: list = []
        durations: list = []
        workload_of: dict[int, int] = {}
        config_of: dict[int, int] = {}
        duration_of: dict[tuple, int] = {}
        by_workload: list[int] = []
        by_config: list[int] = []
        by_duration: list[int] = []
        for cell in cells:
            workload, config, duration = (
                cell.workload, cell.config, cell.duration
            )
            entry = workload_of.get(id(workload))
            if entry is None:
                entry = workload_of[id(workload)] = len(workloads)
                workloads.append(workload)
            by_workload.append(entry)
            entry = config_of.get(id(config))
            if entry is None:
                entry = config_of[id(config)] = len(configs)
                configs.append(config)
            by_config.append(entry)
            key = (type(duration), duration)
            entry = duration_of.get(key)
            if entry is None:
                entry = duration_of[key] = len(durations)
                durations.append(duration)
            by_duration.append(entry)
        return cls(
            workloads, configs, durations, by_workload, by_config, by_duration
        )

    def __len__(self) -> int:
        return len(self.workload_index)

    def __iter__(self):
        axes = (
            (self.workloads, self.workload_index),
            (self.configs, self.config_index),
            (self.durations, self.duration_index),
        )
        return map(
            tuple.__new__,
            repeat(Cell),
            zip(
                *(
                    np.fromiter(table, dtype=object, count=len(table))[
                        index
                    ].tolist()
                    for table, index in axes
                )
            ),
        )

    def take(self, positions) -> "CellColumns":
        """The cells at ``positions``, in that order, over the same
        tables."""
        positions = np.asarray(positions, dtype=np.intp)
        return CellColumns(
            self.workloads,
            self.configs,
            self.durations,
            self.workload_index[positions],
            self.config_index[positions],
            self.duration_index[positions],
        )
