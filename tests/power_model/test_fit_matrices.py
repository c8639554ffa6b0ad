"""Model fits on counter matrices == the per-measurement fits, bit for bit.

The trainers build one rate matrix per measurement group
(:func:`component_matrix`) instead of one :func:`component_rates` dict
per measurement.  Every row must equal the scalar rates exactly, and
every fitted number must equal the row-by-row fit of
``tests/oracle/fits.py``; both run in this process, so BLAS
differences between hosts cannot separate them.
"""

import builtins
import random
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from repro.isa import load_default_isa
from repro.march import parse_march_text
from repro.march.counters import FormulaError
from repro.measure.measurement import Measurement
from repro.power_model.bottom_up import BottomUpTrainer
from repro.power_model.campaign import ModelingCampaign
from repro.power_model.features import (
    POWER_COMPONENTS,
    component_matrix,
    component_rates,
)
from repro.power_model.metrics import paae
from repro.power_model.top_down import TopDownTrainer
from repro.sim import Machine
from repro.sim.topology import ChipTopology
from tests.oracle import fits as oracle
from tests.sim.test_fused_plane_oracle import random_cell

#: Counters the component formulas read (one is enough to drop).
FORMULA_COUNTERS = (
    "PM_FXU_FIN",
    "PM_LD_REF_L1",
    "PM_ST_REF_L1",
    "PM_DATA_FROM_L2",
    "PM_DATA_FROM_LMEM",
)


def _bits(values) -> list:
    array = np.asarray(values, dtype=float).reshape(-1, len(POWER_COMPONENTS))
    return array.view(np.uint64).tolist()


def _scalar_rows(measurements) -> list:
    return _bits(
        [
            [component_rates(measurement)[name] for name in POWER_COMPONENTS]
            for measurement in measurements
        ]
    )


def _drop(measurement, counter, threads):
    """The measurement with ``counter`` removed from some threads."""
    return replace(
        measurement,
        thread_counters=tuple(
            {
                name: value
                for name, value in counters.items()
                if not (thread in threads and name == counter)
            }
            for thread, counters in enumerate(measurement.thread_counters)
        ),
    )


def _variants(rng, measurement):
    """One measurement in every form a fit may receive it."""
    yield measurement  # fused-plane lazy row views
    yield Measurement.from_dict(measurement.to_dict())  # store-decoded
    yield replace(  # every thread holding its own equal copy
        measurement,
        thread_counters=tuple(
            dict(counters.items()) for counters in measurement.thread_counters
        ),
    )
    if measurement.threads > 1:
        gaps = set(rng.sample(range(measurement.threads), measurement.threads - 1))
        yield _drop(measurement, rng.choice(FORMULA_COUNTERS), gaps)


@pytest.fixture(scope="module")
def measured(power7_arch):
    """Kernel, SPEC, protocol and mix cells on CMP-SMT and big.LITTLE."""
    rng = random.Random(2112)
    cells = [random_cell(rng, index) for index in range(48)]
    return Machine(power7_arch, seed=5).run_cells(cells)


def test_component_matrix_rows_equal_component_rates(measured):
    rng = random.Random(21)
    pool = [form for m in measured for form in _variants(rng, m)]
    assert any(m.is_heterogeneous for m in pool)
    assert any(isinstance(m.config, ChipTopology) for m in pool)
    assert component_matrix([]).shape == (0, len(POWER_COMPONENTS))
    for _ in range(25):
        # Drawn with replacement, so measurements also share objects.
        sample = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
        assert _bits(component_matrix(sample)) == _scalar_rows(sample)


def test_component_matrix_rejects_a_counter_no_thread_has(measured):
    stripped = _drop(
        measured[0], "PM_DATA_FROM_L2", set(range(measured[0].threads))
    )
    with pytest.raises(FormulaError, match="PM_DATA_FROM_L2"):
        component_rates(stripped)
    with pytest.raises(FormulaError, match="PM_DATA_FROM_L2"):
        component_matrix([measured[1], stripped])


def _bottom_up_numbers(model) -> list:
    numbers = [model.weights[name] for name in POWER_COMPONENTS] + [
        model.smt_effect,
        model.cmp_effect,
        model.uncore,
        model.workload_independent,
    ]
    # The value types matter too: predictions sum these with ``sum``.
    return [(type(value).__name__, float(value).hex()) for value in numbers]


def _top_down_numbers(model) -> list:
    return [value.hex() for value in (*model.coefficients, model.intercept)]


def _fitted_numbers(arch, seed, summation=None):
    """Every number of the five fits, production then the oracle, and
    the bottom-up model's SPEC validation predictions and PAAE.

    ``summation`` replaces the builtin ``sum`` while both sides fit
    and predict.
    """
    campaign = ModelingCampaign(
        Machine(arch, seed=seed),
        scale=0.05,
        loop_size=256,
        duration=1.0,
        seed=seed,
    )
    data = campaign.gather()
    spec = [m for group in campaign.gather_spec().values() for m in group]
    steps = (
        data["suite_smt1"],
        data["suite_smt2"],
        data["suite_smt4"],
        data["random_all"],
        data["idle"],
    )
    fitted, reference = [], []
    with pytest.MonkeyPatch.context() as patch:
        if summation is not None:
            patch.setattr(builtins, "sum", summation)
        for sequential in (True, False):
            model = BottomUpTrainer(sequential).train(*steps)
            if sequential:
                predictions = [model.predict(m).hex() for m in spec]
                predictions.append(paae(model, spec).hex())
            fitted.append(_bottom_up_numbers(model))
            reference.append(
                _bottom_up_numbers(
                    oracle.BottomUpTrainer(sequential).train(*steps)
                )
            )
        for name, measurements in (
            ("TD_Micro", data["micro_all"]),
            ("TD_Random", data["random_all"]),
            ("TD_SPEC", spec),
        ):
            fitted.append(
                _top_down_numbers(TopDownTrainer().train(name, measurements))
            )
            reference.append(
                _top_down_numbers(
                    oracle.TopDownTrainer().train(name, measurements)
                )
            )
    return fitted, reference, predictions


@pytest.mark.parametrize("seed", [0, 3])
def test_fits_equal_the_per_measurement_oracle(power7_arch, seed):
    fitted, reference, _ = _fitted_numbers(power7_arch, seed)
    assert fitted == reference


def test_fits_equal_the_oracle_under_a_compensated_sum(power7_arch):
    """Fits and predictions never add with the builtin ``sum``, so the
    Python version cannot move them: under a model of the compensated
    ``sum`` of Python 3.12 they equal the plain run bit for bit."""
    # Seed 1's smoke data round differently under the compensated sum:
    # a fit or a prediction that adds with ``sum`` moves here.
    plain = _fitted_numbers(power7_arch, 1)
    compensated = _fitted_numbers(power7_arch, 1, oracle.compensated_sum)
    assert compensated == plain
    fitted, reference, _ = compensated
    assert fitted == reference


def test_compensated_sum_models_the_builtin_from_python_3_12():
    rng = random.Random(5)
    lists = [
        [rng.uniform(-1, 1) * 10 ** rng.randint(-5, 5) for _ in range(8)]
        for _ in range(500)
    ]
    agree = [oracle.compensated_sum(values) == sum(values) for values in lists]
    assert all(agree) == (sys.version_info >= (3, 12))


def test_campaign_on_a_core_class_without_smt():
    source = (resources.files("repro.march") / "data" / "power7.march")
    text = source.read_text().replace("smt = 4", "smt = 1", 1)
    arch = parse_march_text(text, load_default_isa())
    assert arch.chip.smt_modes() == (1,)
    result = ModelingCampaign(
        Machine(arch), scale=0.05, loop_size=256, duration=1.0
    ).run()
    assert result.bottom_up.smt_effect == 0.0
    for measurements in result.spec_by_config.values():
        for measurement in measurements:
            breakdown = result.bottom_up.breakdown(measurement)
            assert breakdown["SMT_effect"] == 0
