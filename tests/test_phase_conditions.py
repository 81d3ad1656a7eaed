"""Tests for phase conditions (paper eq. 20 and §3 alternatives)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PhaseConditionError
from repro.phase_conditions import (
    DerivativeAnchor,
    FourierImagAnchor,
    ValueAnchor,
    as_phase_condition,
)
from repro.spectral import collocation_grid

odd_sizes = st.integers(min_value=2, max_value=12).map(lambda m: 2 * m + 1)


def cosine_samples(num, phase=0.0, variable_count=2):
    """(N, n) samples whose variable 0 is cos(2 pi t1 + phase)."""
    grid = collocation_grid(num, 1.0)
    samples = np.zeros((num, variable_count))
    samples[:, 0] = np.cos(2 * np.pi * grid + phase)
    samples[:, 1] = np.sin(2 * np.pi * grid)
    return samples


class TestValueAnchor:
    def test_residual_zero_when_matching(self):
        samples = cosine_samples(9)
        anchor = ValueAnchor(variable=0, target=1.0, sample_index=0)
        assert abs(anchor.residual(samples)) < 1e-12

    def test_residual_detects_shift(self):
        samples = cosine_samples(9, phase=0.5)
        anchor = ValueAnchor(variable=0, target=1.0, sample_index=0)
        assert abs(anchor.residual(samples)) > 0.1

    def test_gradient_selects_single_entry(self):
        anchor = ValueAnchor(variable=1, target=0.0, sample_index=2)
        grad = anchor.gradient(5, 3)
        assert grad.shape == (15,)
        assert grad[2 * 3 + 1] == 1.0
        assert np.count_nonzero(grad) == 1

    def test_out_of_range_sample_index(self):
        anchor = ValueAnchor(sample_index=10)
        with pytest.raises(PhaseConditionError):
            anchor.weights(5)


class TestDerivativeAnchor:
    def test_zero_at_cosine_peak(self):
        """cos has an extremum at t1=0, so the derivative anchor is met."""
        samples = cosine_samples(11)
        anchor = DerivativeAnchor(variable=0)
        assert abs(anchor.residual(samples)) < 1e-9

    def test_nonzero_when_shifted(self):
        samples = cosine_samples(11, phase=0.7)
        anchor = DerivativeAnchor(variable=0)
        assert abs(anchor.residual(samples)) > 1.0

    def test_gradient_is_diffmat_row(self):
        from repro.spectral import fourier_differentiation_matrix

        anchor = DerivativeAnchor(variable=0, sample_index=3)
        weights = anchor.weights(7)
        diffmat = fourier_differentiation_matrix(7, 1.0)
        np.testing.assert_allclose(weights, diffmat[3])

    @given(odd_sizes)
    def test_derivative_exact_for_sine(self, num):
        """Weights dotted with sin samples equal 2*pi*cos at the anchor."""
        grid = collocation_grid(num, 1.0)
        samples = np.sin(2 * np.pi * grid)[:, None]
        anchor = DerivativeAnchor(variable=0, sample_index=0)
        residual = anchor.residual(samples)
        np.testing.assert_allclose(residual, 2 * np.pi, rtol=1e-8)


class TestFourierImagAnchor:
    def test_zero_for_pure_cosine(self):
        samples = cosine_samples(11)
        anchor = FourierImagAnchor(variable=0, harmonic=1)
        assert abs(anchor.residual(samples)) < 1e-12

    def test_detects_sine_component(self):
        grid = collocation_grid(11, 1.0)
        samples = np.sin(2 * np.pi * grid)[:, None]
        anchor = FourierImagAnchor(variable=0, harmonic=1)
        # Im of X_1 for sin is -1/2.
        np.testing.assert_allclose(anchor.residual(samples), -0.5, atol=1e-12)

    def test_rejects_harmonic_zero(self):
        with pytest.raises(PhaseConditionError):
            FourierImagAnchor(harmonic=0)

    def test_rejects_unrepresentable_harmonic(self):
        anchor = FourierImagAnchor(harmonic=7)
        with pytest.raises(PhaseConditionError):
            anchor.weights(9)  # max harmonic is 4

    def test_matches_fft_computation(self, rng):
        num = 13
        samples = rng.normal(size=(num, 1))
        anchor = FourierImagAnchor(variable=0, harmonic=2)
        from repro.spectral import samples_to_coefficients

        coeffs = samples_to_coefficients(samples[:, 0])
        expected = coeffs[num // 2 + 2].imag
        np.testing.assert_allclose(anchor.residual(samples), expected,
                                   atol=1e-12)


class TestLinearity:
    """All conditions are linear: residual(X) == gradient . X - target."""

    @pytest.mark.parametrize(
        "condition",
        [
            ValueAnchor(variable=1, target=0.3, sample_index=2),
            DerivativeAnchor(variable=0, target=-0.1, sample_index=1),
            FourierImagAnchor(variable=1, harmonic=2, target=0.05),
        ],
    )
    def test_gradient_consistency(self, condition, rng):
        num, n_vars = 9, 3
        samples = rng.normal(size=(num, n_vars))
        grad = condition.gradient(num, n_vars)
        np.testing.assert_allclose(
            condition.residual(samples),
            grad @ samples.ravel() - condition.target,
            atol=1e-12,
        )


class TestCoercion:
    def test_string_specs(self):
        assert isinstance(as_phase_condition("derivative"), DerivativeAnchor)
        assert isinstance(as_phase_condition("value"), ValueAnchor)
        assert isinstance(as_phase_condition("fourier"), FourierImagAnchor)

    def test_variable_forwarded(self):
        condition = as_phase_condition("derivative", variable=3)
        assert condition.variable == 3

    def test_passthrough(self):
        condition = DerivativeAnchor()
        assert as_phase_condition(condition) is condition

    def test_unknown_spec_raises(self):
        with pytest.raises(PhaseConditionError):
            as_phase_condition("bogus")


class TestVariableRange:
    """The variable must index one of the ``n_vars`` columns: 4 and 9 are
    past the end of 4 variables, -1 would silently pick the last one."""

    @pytest.mark.parametrize("variable", [4, 9, -1])
    @pytest.mark.parametrize("spec", ["fourier", "derivative", "value"])
    def test_out_of_range_variable_is_named(self, spec, variable):
        condition = as_phase_condition(spec, variable)
        with pytest.raises(PhaseConditionError, match=f"variable {variable}"):
            condition.gradient(25, 4)
        with pytest.raises(PhaseConditionError, match="4 variables"):
            condition.residual(np.zeros((25, 4)))

    def test_last_variable_is_accepted(self):
        condition = as_phase_condition("fourier", 3)
        assert condition.gradient(25, 4).shape == (100,)
        assert condition.residual(cosine_samples(25, variable_count=4)) == 0.0

    def test_envelope_options_reject_out_of_range_variable(
            self, vco_initial_condition):
        from repro.circuits.library import MemsVcoDae
        from repro.wampde import WampdeEnvelopeOptions, solve_wampde_envelope

        params, samples, f0 = vco_initial_condition
        with pytest.raises(PhaseConditionError, match="variable 9"):
            solve_wampde_envelope(
                MemsVcoDae(params), samples, f0, 0.0, 1e-6, 2,
                WampdeEnvelopeOptions(phase_variable=9),
            )
