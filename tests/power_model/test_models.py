"""Tests for linear regression helpers, training suite, and the models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelingError
from repro.march import get_architecture
from repro.power_model.linreg import nnls_ols, ols
from repro.power_model.metrics import max_error, paae
from repro.power_model.training import (
    IPC_FAMILIES,
    MEMORY_FAMILIES,
    generate_micro_suite,
    generate_random_suite,
    solve_dependency_mean,
)


@pytest.fixture(scope="module")
def arch():
    return get_architecture("POWER7")


class TestLinearRegression:
    def test_ols_recovers_plane(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(0, 10, size=(60, 3))
        targets = features @ np.array([2.0, -1.0, 0.5]) + 4.0
        coefficients, intercept = ols(features, targets)
        assert np.allclose(coefficients, [2.0, -1.0, 0.5], atol=1e-8)
        assert intercept == pytest.approx(4.0)

    def test_ols_underdetermined_rejected(self):
        with pytest.raises(ModelingError, match="underdetermined"):
            ols(np.ones((3, 3)), np.ones(3))

    def test_nnls_clamps_negative(self):
        rng = np.random.default_rng(2)
        features = rng.uniform(0, 10, size=(80, 2))
        targets = features @ np.array([3.0, -2.0]) + 1.0
        coefficients, _ = nnls_ols(features, targets)
        assert coefficients[1] == 0.0
        assert coefficients[0] > 0

    def test_ols_shape_errors(self):
        with pytest.raises(ModelingError, match="2-D"):
            ols(np.ones(8), np.ones(8))
        with pytest.raises(ModelingError, match="equal rows"):
            ols(np.ones((8, 2)), np.ones(7))

    def test_nnls_with_every_column_negative_fits_the_mean(self):
        rng = np.random.default_rng(4)
        features = rng.uniform(0, 10, size=(30, 2))
        targets = 50.0 - features @ np.array([2.0, 3.0])
        coefficients, intercept = nnls_ols(features, targets)
        assert list(coefficients) == [0.0, 0.0]
        assert intercept == pytest.approx(float(np.mean(targets)))

    @given(
        true=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=4),
        noise=st.floats(0.0, 0.01),
    )
    @settings(max_examples=20, deadline=None)
    def test_nnls_recovers_nonnegative_models(self, true, noise):
        rng = np.random.default_rng(7)
        features = rng.uniform(0, 10, size=(100, len(true)))
        targets = features @ np.array(true) + rng.normal(0, noise, 100)
        coefficients, _ = nnls_ols(features, targets)
        assert np.allclose(coefficients, true, atol=0.3)


class TestTrainingSuite:
    def test_family_composition(self, arch):
        suite = generate_micro_suite(arch, loop_size=256, scale=0.2)
        families = {bench.family for bench in suite}
        assert set(IPC_FAMILIES) <= families
        assert set(MEMORY_FAMILIES) <= families

    def test_random_suite_scale(self, arch):
        suite = generate_random_suite(arch, loop_size=256, scale=0.05)
        assert len(suite) == round(331 * 0.05)

    def test_scale_validation(self, arch):
        with pytest.raises(ValueError):
            generate_micro_suite(arch, scale=0.0)

    def test_solve_dependency_mean(self, arch):
        # FXU-only pool with latency 4 -> IPC 0.5 needs mean distance 2.
        mean = solve_dependency_mean(arch, ("mulld",), 0.5)
        assert mean == pytest.approx(2.0)
        # Clamped to valid pass range.
        assert solve_dependency_mean(arch, ("mulld",), 0.01) == 1.0
        assert solve_dependency_mean(arch, ("fadd",), 100.0) == 32.0

    def test_unique_kernels(self, arch):
        suite = generate_micro_suite(arch, loop_size=256, scale=0.15)
        digests = [bench.kernel.digest() for bench in suite]
        assert len(set(digests)) == len(digests)


class TestMetrics:
    class _Fake:
        def __init__(self, power):
            self.mean_power = power
            self.workload_name = "w"

    def test_paae(self):
        measurements = [self._Fake(100.0), self._Fake(200.0)]
        model = lambda m: m.mean_power * 1.1
        assert paae(model, measurements) == pytest.approx(10.0)
        assert max_error(model, measurements) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ModelingError):
            paae(lambda m: 0.0, [])

    def test_non_positive_power_rejected(self):
        # A relative error against zero power is undefined.
        with pytest.raises(ModelingError, match="non-positive power"):
            paae(lambda m: 1.0, [self._Fake(100.0), self._Fake(0.0)])


class TestTopDownTrainer:
    def test_one_coefficient_per_feature(self, arch):
        from repro.power_model.features import POWER_COMPONENTS
        from repro.power_model.top_down import TopDownTrainer
        from repro.sim import Machine, MachineConfig
        from repro.workloads import spec_cpu2006

        machine = Machine(arch)
        measurements = [
            measurement
            for config in (MachineConfig(2, 1), MachineConfig(8, 4))
            for measurement in machine.run_many(spec_cpu2006(), config, 1.0)
        ]
        trainer = TopDownTrainer()
        model = trainer.train("TD_SPEC", measurements)
        # One weight per power component, plus cores and SMT on/off.
        assert len(model.coefficients) == len(POWER_COMPONENTS) + 2
        with pytest.raises(ModelingError, match="'TD_tiny' needs more"):
            trainer.train("TD_tiny", measurements[:4])
