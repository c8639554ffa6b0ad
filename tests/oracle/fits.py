"""The per-measurement model fits the production trainers replaced.

:class:`BottomUpTrainer` and :class:`TopDownTrainer` here are the
row-by-row fits as they stood before the trainers moved onto counter
matrices (:func:`repro.power_model.features.component_matrix`): every
rate comes from one :func:`component_rates` call per measurement and
every residual from one left-to-right sum per row (:func:`seq_sum`, as
the production fits add).  Tests fit the same campaign data both ways
and compare every fitted number bit for bit.

The builtin ``sum`` is not one function: from Python 3.12 it
compensates runs of exact floats.  :func:`compensated_sum` models that
version's ``sum``, so tests can check on any interpreter that no fit or
prediction adds with the builtin.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ModelingError
from repro.measure.measurement import Measurement
from repro.power_model.bottom_up import (
    _MEMORY_FAMILIES,
    _UNIT_PROTOCOL,
    BottomUpModel,
)
from repro.power_model.features import (
    MEMORY_COMPONENTS,
    POWER_COMPONENTS,
    UNIT_COMPONENTS,
    component_rates,
)
from repro.power_model.linreg import nnls_ols, ols
from repro.power_model.top_down import _EXTRA_FEATURES, TopDownModel

from .scalar import seq_sum


def compensated_sum(iterable, start=0):
    """CPython 3.12's builtin ``sum`` of floats, in Python.

    Items are floats or float subclasses such as numpy's ``float64``
    (int items after the first float are not modeled).  A run of exact
    ``float`` items adds with Neumaier compensation; the compensation
    is folded in, when non-zero and finite, at the run's end or at the
    first subclass item, after which the rest add plainly.
    """
    items = list(iterable)
    result, index = start, 0
    while index < len(items) and type(result) is int:
        result = result + items[index]
        index += 1
    if type(result) is float:
        total, compensation = result, 0.0
        while index < len(items) and type(items[index]) is float:
            item = items[index]
            partial = total + item
            if abs(total) >= abs(item):
                compensation += (total - partial) + item
            else:
                compensation += (item - partial) + total
            total = partial
            index += 1
        if compensation and math.isfinite(compensation):
            total += compensation
        result = total
    for item in items[index:]:
        result = result + item
    return result


class BottomUpTrainer:
    """Fits :class:`BottomUpModel` from measurement campaigns."""

    def __init__(self, sequential: bool = True) -> None:
        #: Sequential grouped fitting (the paper's method); joint OLS
        #: over all components is available for the ablation benchmark.
        self.sequential = sequential

    def train(
        self,
        suite_smt1: Sequence[tuple[str, Measurement]],
        suite_smt2: Sequence[Measurement],
        suite_smt4: Sequence[Measurement],
        random_all_configs: Sequence[Measurement],
        idle: Measurement,
    ) -> BottomUpModel:
        """Run the four steps.

        Args:
            suite_smt1: (family, measurement) pairs of the full training
                suite on the 1-core SMT-1 configuration.
            suite_smt2: Training-suite measurements on 1-core SMT-2.
            suite_smt4: Training-suite measurements on 1-core SMT-4.
            random_all_configs: Random-family measurements across the
                full CMP-SMT sweep.
            idle: Idle measurement (workload-independent power).
        """
        workload_independent = idle.mean_power

        # Step 1: single hardware context.
        weights, intercept_smt1 = self._fit_weights(
            suite_smt1, workload_independent
        )

        # Step 2: SMT effect from the SMT-on intercepts.  The intercept
        # grows by one SMT-logic constant per core running with SMT
        # enabled, so the delta is normalized by the core count of the
        # SMT measurements.
        smt_measurements = list(suite_smt2) + list(suite_smt4)
        intercept_smt24 = self._intercept(
            smt_measurements, weights, workload_independent
        )
        smt_cores = smt_measurements[0].config.cores if smt_measurements else 1
        smt_effect = max(
            0.0, (intercept_smt24 - intercept_smt1) / smt_cores
        )

        # Step 3: CMP effect and uncore from all-config residuals.
        cmp_effect, uncore = self._fit_cmp(
            random_all_configs, weights, smt_effect, workload_independent
        )

        # Step 4: combine.
        return BottomUpModel(
            weights=weights,
            smt_effect=smt_effect,
            cmp_effect=cmp_effect,
            uncore=uncore,
            workload_independent=workload_independent,
        )

    # -- step 1 internals ---------------------------------------------------

    def _fit_weights(
        self,
        suite: Sequence[tuple[str, Measurement]],
        workload_independent: float,
    ) -> tuple[dict[str, float], float]:
        rows = [
            (family, component_rates(m), m.mean_power - workload_independent)
            for family, m in suite
        ]
        if self.sequential:
            weights = self._fit_sequential(rows)
        else:
            weights = self._fit_joint(rows)
        intercept = self._calibrate_intercept(rows, weights)
        return weights, intercept

    def _fit_sequential(
        self, rows: list[tuple[str, dict[str, float], float]]
    ) -> dict[str, float]:
        """The paper's sequence of regressions.

        Execution units first, one component at a time over the
        families crafted to stress it (residualizing the components
        already fitted); then the four memory levels jointly over the
        hit-ratio sweep families.  Weights are energies and therefore
        clamped at zero.
        """
        weights: dict[str, float] = {name: 0.0 for name in POWER_COMPONENTS}
        for component, families in _UNIT_PROTOCOL:
            selected = [
                (rates, target) for family, rates, target in rows
                if family in families and rates[component] > 0
            ]
            if len(selected) < 3:
                raise ModelingError(
                    f"component {component}: need at least 3 training rows "
                    f"from families {families}, got {len(selected)}"
                )
            feature = np.array(
                [[rates[component]] for rates, _ in selected]
            )
            residual = np.array(
                [
                    target - seq_sum(
                        weights[other] * rates[other]
                        for other in POWER_COMPONENTS
                        if other != component
                    )
                    for rates, target in selected
                ]
            )
            slope, _ = nnls_ols(feature, residual)
            weights[component] = float(slope[0])

        memory_rows = [
            (rates, target) for family, rates, target in rows
            if family in _MEMORY_FAMILIES
        ]
        if len(memory_rows) < len(MEMORY_COMPONENTS) + 2:
            raise ModelingError("too few memory-family training rows")
        matrix = np.array(
            [[rates[c] for c in MEMORY_COMPONENTS] for rates, _ in memory_rows]
        )
        residual = np.array(
            [
                target - seq_sum(
                    weights[unit] * rates[unit] for unit in UNIT_COMPONENTS
                )
                for rates, target in memory_rows
            ]
        )
        memory_weights, _ = nnls_ols(matrix, residual)
        weights.update(dict(zip(MEMORY_COMPONENTS, memory_weights)))
        return weights

    def _fit_joint(
        self, rows: list[tuple[str, dict[str, float], float]]
    ) -> dict[str, float]:
        matrix = np.array(
            [[rates[c] for c in POWER_COMPONENTS] for _, rates, _ in rows]
        )
        targets = np.array([target for _, _, target in rows])
        coefficients, _ = nnls_ols(matrix, targets)
        return dict(zip(POWER_COMPONENTS, coefficients))

    def _calibrate_intercept(
        self,
        rows: list[tuple[str, dict[str, float], float]],
        weights: dict[str, float],
    ) -> float:
        random_rows = [
            (rates, target) for family, rates, target in rows
            if family == "Random"
        ]
        if not random_rows:
            random_rows = [(rates, target) for _, rates, target in rows]
        residuals = [
            target - seq_sum(weights[c] * rates[c] for c in POWER_COMPONENTS)
            for rates, target in random_rows
        ]
        return float(np.mean(residuals))

    # -- steps 2 and 3 internals ------------------------------------------------

    def _intercept(
        self,
        measurements: Iterable[Measurement],
        weights: dict[str, float],
        workload_independent: float,
    ) -> float:
        residuals = []
        for measurement in measurements:
            rates = component_rates(measurement)
            dynamic = seq_sum(
                weights[c] * rates[c] for c in POWER_COMPONENTS
            )
            residuals.append(
                measurement.mean_power - workload_independent - dynamic
            )
        if not residuals:
            raise ModelingError("no measurements for intercept estimation")
        return float(np.mean(residuals))

    def _fit_cmp(
        self,
        measurements: Sequence[Measurement],
        weights: dict[str, float],
        smt_effect: float,
        workload_independent: float,
    ) -> tuple[float, float]:
        if len(measurements) < 4:
            raise ModelingError("too few all-config measurements for step 3")
        cores = []
        residuals = []
        for measurement in measurements:
            rates = component_rates(measurement)
            dynamic = seq_sum(weights[c] * rates[c] for c in POWER_COMPONENTS)
            smt = (
                smt_effect * measurement.config.cores
                if measurement.config.smt_enabled
                else 0.0
            )
            cores.append(measurement.config.cores)
            residuals.append(
                measurement.mean_power
                - workload_independent
                - dynamic
                - smt
            )
        design = np.vstack([cores, np.ones(len(cores))]).T
        solution, *_ = np.linalg.lstsq(
            design, np.array(residuals), rcond=None
        )
        cmp_effect, uncore = float(solution[0]), float(solution[1])
        return max(0.0, cmp_effect), uncore


def _feature_vector(measurement: Measurement) -> list[float]:
    rates = component_rates(measurement)
    features = [rates[name] for name in POWER_COMPONENTS]
    features.append(float(measurement.config.cores))
    features.append(1.0 if measurement.config.smt_enabled else 0.0)
    return features


class TopDownTrainer:
    """Fits :class:`TopDownModel` via one multiple linear regression."""

    def train(
        self, name: str, measurements: Sequence[Measurement]
    ) -> TopDownModel:
        if len(measurements) < len(POWER_COMPONENTS) + len(_EXTRA_FEATURES) + 2:
            raise ModelingError(
                f"top-down model {name!r} needs more training measurements"
            )
        matrix = np.array(
            [_feature_vector(measurement) for measurement in measurements]
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
