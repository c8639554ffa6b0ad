"""SMT/CMP-aware bottom-up power model (paper section 4.1, Figure 4).

The four-step methodology:

1. **Single hardware context.**  On single-core SMT-1 measurements of
   the training suite, fit per-component weights with a *sequence* of
   grouped regressions: execution-unit weights from the compute-only
   families, then memory-level weights from the residuals on the
   memory families.  The intercept is calibrated on the random family
   (avoids under-estimation when only particular units are stressed).
2. **SMT effect.**  The intercept of the same model on single-core
   SMT-2/SMT-4 data minus the SMT-1 intercept: a constant per core
   with SMT enabled (the paper found the effect independent of the
   SMT way).
3. **CMP effect and uncore.**  Apply the dynamic+SMT model to the
   random benchmarks on *all* configurations; regress the residuals on
   the enabled-core count.  Slope = CMP effect, intercept = uncore.
4. **Combine.**  ``P = WI + Uncore + CMP*cores + SMT*smt_cores +
   sum_components W_c * rate_c`` where WI is the measured
   workload-independent (idle) power.

The model is *decomposable*: :meth:`BottomUpModel.breakdown` returns
the per-component powers behind Figures 5a and 8.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelingError
from repro.measure.measurement import Measurement
from repro.power_model.features import (
    MEMORY_COMPONENTS,
    POWER_COMPONENTS,
    UNIT_COMPONENTS,
    component_matrix,
    component_rates,
)
from repro.power_model.linreg import nnls_ols
from repro.power_model.metrics import ordered_sum

#: The sequential fitting protocol for the execution units: each
#: unit's weight comes from the training families designed to stress
#: it, regressed against the residual left by the units fitted before
#: it (paper section 4.1 step 1, following Bertran et al. [8]).  The
#: families provide rate variation through their IPC sweeps, which is
#: what makes the single-feature slopes identifiable.
_UNIT_PROTOCOL: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("FXU", ("Complex Integer",)),
    ("VSU", ("Float/Vector",)),
    ("LSU", ("Simple Integer", "Integer", "Unit Mix")),
)

#: The memory-level weights are fitted jointly over every memory
#: family: the Table 2 hit-ratio sweeps (75/25, 50/50, 25/75, pure)
#: provide the cross-level rate variation a per-level slope would lack
#: within any single family.
_MEMORY_FAMILIES = (
    "L1 ld", "L1 ld/st",
    "L1L2a", "L1L2b", "L1L2c",
    "L1L3a", "L1L3b", "L1L3c",
    "L2", "L2L3a", "L2L3b", "L2L3c",
    "L3", "Caches", "Memory",
)


@dataclass(frozen=True)
class BottomUpModel:
    """The fitted four-step model."""

    weights: dict[str, float]  # joules per component event
    smt_effect: float  # watts per core with SMT enabled
    cmp_effect: float  # watts per enabled core
    uncore: float  # watts
    workload_independent: float  # watts (measured idle)

    def dynamic_power(self, measurement: Measurement) -> float:
        """Counter-driven component of the prediction."""
        rates = component_rates(measurement)
        return ordered_sum(
            self.weights[name] * rates[name] for name in POWER_COMPONENTS
        )

    def predict(self, measurement: Measurement) -> float:
        """Full chip power prediction for one measurement window."""
        return ordered_sum(self.breakdown(measurement).values())

    # Allow the model object itself to be used as a Predictor.
    __call__ = predict

    def breakdown(self, measurement: Measurement) -> dict[str, float]:
        """Per-component powers (the paper's Figure 5a/8 stacks)."""
        config = measurement.config
        return {
            "Workload_Independent": self.workload_independent,
            "Uncore": self.uncore,
            "CMP_effect": self.cmp_effect * config.cores,
            "SMT_effect": (
                self.smt_effect * config.cores if config.smt_enabled else 0.0
            ),
            "Dynamic": self.dynamic_power(measurement),
        }


class BottomUpTrainer:
    """Fits :class:`BottomUpModel` from measurement campaigns.

    Each step fits from a counter-rate matrix, one row per measurement
    (:func:`~repro.power_model.features.component_matrix`).  Residuals,
    intercepts and the CMP design are column expressions in the
    per-measurement arithmetic's order, and the weighted rate sums add
    left to right (:func:`_dynamic`), so every fitted number is the one
    a row-by-row fit gives, bit for bit, on any Python version.
    """

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

        # Step 1: single hardware context.  The intercept is calibrated
        # on the random family (all rows if the suite has none).
        families = np.array([family for family, _ in suite_smt1], dtype=str)
        rates, targets = _rates_and_targets(
            [measurement for _, measurement in suite_smt1],
            workload_independent,
        )
        fit = self._fit_sequential if self.sequential else self._fit_joint
        weights = fit(families, rates, targets)
        random = families == "Random"
        if not random.any():
            random[:] = True
        intercept_smt1 = _mean_residual(rates[random], targets[random], weights)

        # Step 2: SMT effect from the SMT-on intercepts.  The intercept
        # grows by one SMT-logic constant per core running with SMT
        # enabled, so the delta is normalized by the core count of the
        # SMT measurements.  A core class without SMT has no SMT-on
        # measurements and no SMT effect.
        smt_measurements = list(suite_smt2) + list(suite_smt4)
        smt_effect = 0.0
        if smt_measurements:
            rates, targets = _rates_and_targets(
                smt_measurements, workload_independent
            )
            intercept_smt24 = _mean_residual(rates, targets, weights)
            smt_effect = max(
                0.0,
                (intercept_smt24 - intercept_smt1)
                / smt_measurements[0].config.cores,
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

    def _fit_sequential(
        self, families: np.ndarray, rates: np.ndarray, targets: np.ndarray
    ) -> dict[str, float]:
        """The paper's sequence of regressions.

        Execution units first, one component at a time over the
        families crafted to stress it (residualizing the components
        already fitted); then the four memory levels jointly over the
        hit-ratio sweep families.  Weights are energies and therefore
        clamped at zero.
        """
        weights: dict[str, float] = {name: 0.0 for name in POWER_COMPONENTS}
        for component, group in _UNIT_PROTOCOL:
            column = POWER_COMPONENTS.index(component)
            selected = np.isin(families, group) & (rates[:, column] > 0)
            if selected.sum() < 3:
                raise ModelingError(
                    f"component {component}: need at least 3 training rows "
                    f"from families {group}, got {selected.sum()}"
                )
            others = [name for name in POWER_COMPONENTS if name != component]
            residual = targets[selected] - _dynamic(
                rates[selected], weights, others
            )
            slope, _ = nnls_ols(rates[selected, column : column + 1], residual)
            weights[component] = float(slope[0])

        memory = np.isin(families, _MEMORY_FAMILIES)
        if memory.sum() < len(MEMORY_COMPONENTS) + 2:
            raise ModelingError("too few memory-family training rows")
        residual = targets[memory] - _dynamic(
            rates[memory], weights, UNIT_COMPONENTS
        )
        memory_weights, _ = nnls_ols(
            rates[memory][:, _columns_of(MEMORY_COMPONENTS)], residual
        )
        weights.update(dict(zip(MEMORY_COMPONENTS, memory_weights)))
        return weights

    def _fit_joint(
        self, families: np.ndarray, rates: np.ndarray, targets: np.ndarray
    ) -> dict[str, float]:
        coefficients, _ = nnls_ols(rates, targets)
        return dict(zip(POWER_COMPONENTS, coefficients))

    # -- step 3 internals -----------------------------------------------------

    def _fit_cmp(
        self,
        measurements: Sequence[Measurement],
        weights: dict[str, float],
        smt_effect: float,
        workload_independent: float,
    ) -> tuple[float, float]:
        if len(measurements) < 4:
            raise ModelingError("too few all-config measurements for step 3")
        rates, targets = _rates_and_targets(measurements, workload_independent)
        cores = np.array([m.config.cores for m in measurements], dtype=float)
        smt = np.array([m.config.smt_enabled for m in measurements], dtype=bool)
        residuals = (
            targets
            - _dynamic(rates, weights)
            - np.where(smt, smt_effect * cores, 0.0)
        )
        design = np.vstack([cores, np.ones(len(cores))]).T
        solution, *_ = np.linalg.lstsq(design, residuals, rcond=None)
        cmp_effect, uncore = float(solution[0]), float(solution[1])
        return max(0.0, cmp_effect), uncore


def _columns_of(components: Sequence[str]) -> list[int]:
    return [POWER_COMPONENTS.index(name) for name in components]


def _rates_and_targets(
    measurements: Sequence[Measurement], workload_independent: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rate matrix and dynamic-power targets (mean power minus idle)."""
    powers = np.array([m.mean_power for m in measurements], dtype=float)
    return component_matrix(measurements), powers - workload_independent


def _dynamic(
    rates: np.ndarray,
    weights: dict[str, float],
    components: Sequence[str] = POWER_COMPONENTS,
) -> np.ndarray:
    """``weights[c] * rate_c`` summed over ``components``, per row.

    Plain column adds, left to right from zero, as
    :func:`~repro.power_model.metrics.ordered_sum` adds one row.
    """
    total = np.zeros(len(rates))
    for column, name in zip(_columns_of(components), components):
        total = total + weights[name] * rates[:, column]
    return total


def _mean_residual(
    rates: np.ndarray, targets: np.ndarray, weights: dict[str, float]
) -> float:
    """Mean power the weighted rates leave unexplained (an intercept)."""
    return float(np.mean(targets - _dynamic(rates, weights)))
