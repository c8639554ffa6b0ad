"""Experimental measurement framework (paper section 3).

Mirrors the paper's platform harness: workloads are deployed as one
copy per hardware thread, pinned to logical CPUs, run for a 10-second
window while power sensors sample at 1 ms granularity and performance
counters accumulate.  Each window becomes one
:class:`~repro.measure.measurement.Measurement` record, the only view
of a run the modeling code gets.
"""

from repro.measure.measurement import Measurement
from repro.measure.runner import MeasurementRunner

__all__ = [
    "Measurement",
    "MeasurementRunner",
]
