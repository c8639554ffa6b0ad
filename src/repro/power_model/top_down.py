"""Top-down baseline models (paper section 4.1.2).

A single multiple linear regression over the same inputs the bottom-up
model consumes -- the component counter rates plus the enabled-core
count and the SMT flag -- trained on whichever workload set names the
model: TD_Micro (micro-architecture aware benchmarks), TD_Random
(random benchmarks) and TD_SPEC (the validation suite itself, the
optimistic bound).  Top-down models predict well in-distribution but
are not decomposable and extrapolate poorly to extreme activity
(Figure 7's 62 % TD_Random error on FXU-High).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelingError
from repro.measure.measurement import Measurement
from repro.power_model.features import (
    POWER_COMPONENTS,
    component_matrix,
    component_rates,
)
from repro.power_model.linreg import ols

#: Feature order: component rates, then cores, then the SMT flag.
_EXTRA_FEATURES = ("cores", "smt_enabled")


def _feature_vector(measurement: Measurement) -> list[float]:
    rates = component_rates(measurement)
    features = [rates[name] for name in POWER_COMPONENTS]
    features.append(float(measurement.config.cores))
    features.append(1.0 if measurement.config.smt_enabled else 0.0)
    return features


@dataclass(frozen=True)
class TopDownModel:
    """A fitted single-regression model."""

    name: str
    coefficients: tuple[float, ...]
    intercept: float

    def predict(self, measurement: Measurement) -> float:
        features = _feature_vector(measurement)
        return float(
            np.dot(self.coefficients, features) + self.intercept
        )

    __call__ = predict

    @property
    def feature_names(self) -> tuple[str, ...]:
        return POWER_COMPONENTS + _EXTRA_FEATURES


class TopDownTrainer:
    """Fits :class:`TopDownModel` via one multiple linear regression.

    The design matrix is built from columns
    (:func:`~repro.power_model.features.component_matrix`), equal bit
    for bit to stacking each measurement's feature vector.
    """

    def train(
        self, name: str, measurements: Sequence[Measurement]
    ) -> TopDownModel:
        if len(measurements) < len(POWER_COMPONENTS) + len(_EXTRA_FEATURES) + 2:
            raise ModelingError(
                f"top-down model {name!r} needs more training measurements"
            )
        configs = [measurement.config for measurement in measurements]
        matrix = np.column_stack(
            [
                component_matrix(measurements),
                np.array([config.cores for config in configs], dtype=float),
                np.array(
                    [config.smt_enabled for config in configs], dtype=float
                ),
            ]
        )
        targets = np.array(
            [measurement.mean_power for measurement in measurements]
        )
        coefficients, intercept = ols(matrix, targets)
        return TopDownModel(
            name=name,
            coefficients=tuple(float(c) for c in coefficients),
            intercept=intercept,
        )
