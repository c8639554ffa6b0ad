"""Power-component definitions and rate extraction.

The bottom-up model decomposes dynamic power into seven components
(paper section 4.1 step 1): the three execution units and the four
memory hierarchy levels.  Each component has a counter formula; rates
are events per second, summed over hardware threads, so one weight
vector serves every CMP/SMT configuration.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

import numpy as np

from repro.march.counters import CounterFormula, FormulaError
from repro.measure.measurement import Measurement

#: The paper's component order (FXU, VSU, LSU, L1, L2, L3, MEM).
POWER_COMPONENTS = ("FXU", "VSU", "LSU", "L1", "L2", "L3", "MEM")

#: Counter formulas per component, over *counts* for one window.
_COMPONENT_FORMULAS = {
    "FXU": CounterFormula("FXU", "PM_FXU_FIN"),
    "VSU": CounterFormula("VSU", "PM_VSU_FIN"),
    "LSU": CounterFormula("LSU", "PM_LSU_FIN"),
    "L1": CounterFormula(
        "L1",
        "PM_LD_REF_L1 + PM_ST_REF_L1 - PM_DATA_FROM_L2 "
        "- PM_DATA_FROM_L3 - PM_DATA_FROM_LMEM",
    ),
    "L2": CounterFormula("L2", "PM_DATA_FROM_L2"),
    "L3": CounterFormula("L3", "PM_DATA_FROM_L3"),
    "MEM": CounterFormula("MEM", "PM_DATA_FROM_LMEM"),
}

#: Every counter some component formula reads.
_COUNTERS = tuple(
    sorted(set().union(*(f.counters() for f in _COMPONENT_FORMULAS.values())))
)

#: Components describing memory hierarchy traffic.
MEMORY_COMPONENTS = ("L1", "L2", "L3", "MEM")
#: Components describing execution-unit activity.
UNIT_COMPONENTS = ("FXU", "VSU", "LSU")


def component_rates(measurement: Measurement) -> dict[str, float]:
    """Per-component event rates (events/second, all threads summed)."""
    totals = measurement.total_counters()
    return {
        name: formula.evaluate(totals) / measurement.duration
        for name, formula in _COMPONENT_FORMULAS.items()
    }


def component_matrix(measurements: Sequence[Measurement]) -> np.ndarray:
    """Component rates of many measurements, one matrix row each.

    Columns follow :data:`POWER_COMPONENTS`, and row ``i`` equals
    ``component_rates(measurements[i])`` bit for bit.  Each distinct
    thread-counter object is read once (a campaign measurement shares
    one across its threads).  Thread totals are summed left to right
    from 0.0, one add per thread position; a counter a thread lacks
    adds 0.0 where the scalar sum skips it, which gives the same bits.
    The formulas then evaluate over the total columns.

    Raises:
        FormulaError: If some measurement lacks a counter on every
            thread, as :func:`component_rates` would.
    """
    row_of: dict[int, int] = {}
    # Row 0 reads 0.0 and no counter: the padding of thread positions
    # a narrower measurement lacks.
    values = [0.0] * len(_COUNTERS)
    present = [False] * len(_COUNTERS)

    def row(counters) -> int:
        found = row_of.get(id(counters))
        if found is None:
            found = row_of[id(counters)] = len(row_of) + 1
            # One read of a lazy row view, not one per counter.
            readings = (
                counters if type(counters) is dict else dict(counters.items())
            )
            values.extend(map(readings.get, _COUNTERS, repeat(0.0)))
            present.extend(map(readings.__contains__, _COUNTERS))
        return found

    firsts, counts, mixed = [], [], []
    for measurement in measurements:
        thread_counters = measurement.thread_counters
        counts.append(len(thread_counters))
        # Threads share one counters object (count() tests identity
        # before equality), or hold equal copies that sum alike.
        if thread_counters.count(thread_counters[0]) == len(thread_counters):
            firsts.append(row(thread_counters[0]))
        else:
            firsts.append(0)
            mixed.append((len(firsts) - 1, list(map(row, thread_counters))))
    counts = np.array(counts, dtype=np.intp)
    positions = np.arange(counts.max(initial=0))
    index = np.where(
        positions < counts[:, None], np.array(firsts, dtype=np.intp)[:, None], 0
    )
    for measurement, rows in mixed:
        index[measurement, : len(rows)] = rows
    values = np.array(values, dtype=float).reshape(-1, len(_COUNTERS))
    present = np.array(present).reshape(-1, len(_COUNTERS))
    totals = np.zeros((len(counts), len(_COUNTERS)))
    seen = np.zeros(totals.shape, dtype=bool)
    for position in positions:
        totals = totals + values[index[:, position]]
        seen |= present[index[:, position]]
    if not seen.all():
        missing = _COUNTERS[int(np.argmin(seen.all(axis=0)))]
        raise FormulaError(f"unknown counter {missing!r}")
    columns = dict(zip(_COUNTERS, totals.T))
    durations = np.array([m.duration for m in measurements], dtype=float)
    matrix = np.empty((len(counts), len(POWER_COMPONENTS)))
    for column, name in enumerate(POWER_COMPONENTS):
        matrix[:, column] = (
            _COMPONENT_FORMULAS[name].evaluate(columns) / durations
        )
    return matrix
