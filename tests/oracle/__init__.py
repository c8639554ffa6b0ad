"""Differential test oracle for the measurement plane.

The production machine measures every cell through the fused tensor
programs of :mod:`repro.sim.vector`.  This package keeps their
executable specification: the per-cell scalar walk
(:class:`OracleMachine`), the scalar counter and ground-truth power
arithmetic it calls (:mod:`.scalar`), the per-instruction pipeline
walk the kernel-summary engine replaced (:mod:`.pipeline`), the
per-measurement model fits the matrix fits replaced (:mod:`.fits`),
the row plan builder the columnar plans replaced (:mod:`.plans`), the
per-slot synthesis pipeline the column passes replaced
(:mod:`.synthesis`), the slot-object kernel path and summary family
the slot tables replaced (:mod:`.kernels`) and the per-key store reads
the batch reads replaced (:mod:`.store_reads`).
Tests and benches compare the production paths with it bit for bit.
"""

from .machine import OracleMachine
from .pipeline import (
    reference_activity,
    reference_alternation,
    reference_bounds,
    reference_dependency_bound,
)
from .scalar import (
    at_frequency_scale,
    chip_power,
    counters_from_activity,
    scaled,
    thread_dynamic_power,
    topology_power,
)

__all__ = [
    "OracleMachine",
    "at_frequency_scale",
    "chip_power",
    "counters_from_activity",
    "reference_activity",
    "reference_alternation",
    "reference_bounds",
    "reference_dependency_bound",
    "scaled",
    "thread_dynamic_power",
    "topology_power",
]
