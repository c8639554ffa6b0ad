"""Accuracy metrics: PAAE and friends (paper Figures 5b, 6, 7)."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import reduce
from operator import add

from repro.errors import ModelingError
from repro.measure.measurement import Measurement

#: A fitted power model's prediction interface.
Predictor = Callable[[Measurement], float]


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from zero, one rounding per add.

    The builtin ``sum`` compensates runs of exact floats from Python
    3.12, so fits and predictions added with it would differ in the
    last bit between interpreters.  The measurement plane's sums run
    strictly left to right too.
    """
    return reduce(add, values, 0)


def prediction_errors(
    model: Predictor, measurements: Iterable[Measurement]
) -> list[float]:
    """Absolute relative prediction errors, in percent."""
    errors = []
    for measurement in measurements:
        actual = measurement.mean_power
        if actual <= 0:
            raise ModelingError(
                f"measurement {measurement.workload_name!r} has "
                "non-positive power"
            )
        predicted = model(measurement)
        errors.append(abs(predicted - actual) / actual * 100.0)
    return errors


def paae(model: Predictor, measurements: Iterable[Measurement]) -> float:
    """Percentage Average Absolute prediction Error (Bircher et al.)."""
    errors = prediction_errors(model, measurements)
    if not errors:
        raise ModelingError("PAAE needs at least one measurement")
    return ordered_sum(errors) / len(errors)


def max_error(model: Predictor, measurements: Iterable[Measurement]) -> float:
    """Worst-case absolute relative error, in percent."""
    errors = prediction_errors(model, measurements)
    if not errors:
        raise ModelingError("max_error needs at least one measurement")
    return max(errors)
