"""Tests for the DAE abstraction and manufactured systems."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dae import (
    ForcedDecayDae,
    FunctionDAE,
    HarmonicOscillatorDae,
    LinearRCDae,
    ScaledDAE,
    VanDerPolDae,
)
from repro.dae.scaled import equilibration_scales
from repro.linalg import finite_difference_jacobian, jacobian_error

finite_states = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    min_size=2,
    max_size=2,
)


class TestFunctionDAE:
    def make(self):
        return FunctionDAE(
            n=2,
            q=lambda x: np.array([2.0 * x[0], x[1]]),
            f=lambda x: np.array([x[0] + x[1], -x[0]]),
            b=lambda t: np.array([np.sin(t), 0.0]),
            dq_dx=lambda x: np.diag([2.0, 1.0]),
            df_dx=lambda x: np.array([[1.0, 1.0], [-1.0, 0.0]]),
            variable_names=("a", "b"),
        )

    def test_delegation(self):
        dae = self.make()
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(dae.q(x), [2.0, 2.0])
        np.testing.assert_allclose(dae.f(x), [3.0, -1.0])
        np.testing.assert_allclose(dae.b(0.0), [0.0, 0.0])

    def test_variable_index(self):
        dae = self.make()
        assert dae.variable_index("b") == 1
        with pytest.raises(KeyError):
            dae.variable_index("missing")

    def test_default_variable_names(self):
        dae = FunctionDAE(
            1,
            q=lambda x: x,
            f=lambda x: x,
            b=lambda t: np.zeros(1),
            dq_dx=lambda x: np.eye(1),
            df_dx=lambda x: np.eye(1),
        )
        assert dae.variable_names == ("x0",)

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError, match="names"):
            FunctionDAE(
                2,
                q=lambda x: x,
                f=lambda x: x,
                b=lambda t: np.zeros(2),
                dq_dx=lambda x: np.eye(2),
                df_dx=lambda x: np.eye(2),
                variable_names=("only_one",),
            )

    def test_batch_defaults_match_pointwise(self, rng):
        dae = self.make()
        states = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            dae.q_batch(states), np.stack([dae.q(s) for s in states])
        )
        np.testing.assert_allclose(
            dae.f_batch(states), np.stack([dae.f(s) for s in states])
        )
        np.testing.assert_allclose(
            dae.dq_dx_batch(states), np.stack([dae.dq_dx(s) for s in states])
        )
        times = rng.normal(size=4)
        np.testing.assert_allclose(
            dae.b_batch(times), np.stack([dae.b(t) for t in times])
        )

    def test_residual_helper(self):
        dae = self.make()
        x = np.array([1.0, 0.0])
        xdot_q = np.array([0.5, 0.5])
        expected = xdot_q + dae.f(x) - dae.b(0.3)
        np.testing.assert_allclose(dae.residual(x, xdot_q, 0.3), expected)


class TestLinearRC:
    def test_steady_state_satisfies_ode(self):
        dae = LinearRCDae(resistance=2.0, capacitance=0.5, amplitude=1.0, omega=3.0)
        t = np.linspace(0, 5, 300)
        v = dae.steady_state_response(t)
        dvdt = np.gradient(v, t)
        residual = dae.capacitance * dvdt + v / dae.resistance - np.cos(3.0 * t)
        # np.gradient is only O(h^2); loose tolerance.
        assert np.max(np.abs(residual[5:-5])) < 5e-3

    def test_transient_response_initial_value(self):
        dae = LinearRCDae()
        assert np.isclose(dae.transient_response(0.0, v0=0.7), 0.7)

    def test_transient_decays_to_steady(self):
        dae = LinearRCDae(resistance=1.0, capacitance=0.1)
        t = np.array([5.0])
        np.testing.assert_allclose(
            dae.transient_response(t, v0=5.0),
            dae.steady_state_response(t),
            atol=1e-8,
        )


class TestHarmonicOscillator:
    def test_exact_solution_satisfies_energy(self):
        dae = HarmonicOscillatorDae(inductance=2.0, capacitance=0.5)
        t = np.linspace(0, 10, 100)
        states = dae.exact(t, v0=1.0, i0=0.3)
        energies = [dae.energy(s) for s in states]
        np.testing.assert_allclose(energies, energies[0], rtol=1e-12)

    def test_omega0(self):
        dae = HarmonicOscillatorDae(inductance=4.0, capacitance=0.25)
        assert np.isclose(dae.omega0, 1.0)

    def test_exact_period(self):
        dae = HarmonicOscillatorDae()
        period = 2 * np.pi / dae.omega0
        np.testing.assert_allclose(
            dae.exact(period, 1.0, 0.5), dae.exact(0.0, 1.0, 0.5), atol=1e-12
        )


class TestVanDerPol:
    @given(finite_states)
    def test_jacobians_match_finite_difference(self, state):
        dae = VanDerPolDae(mu=0.7)
        x = np.asarray(state)
        assert jacobian_error(
            dae.df_dx(x), finite_difference_jacobian(dae.f, x)
        ) < 1e-6
        assert jacobian_error(
            dae.dq_dx(x), finite_difference_jacobian(dae.q, x)
        ) < 1e-6

    def test_batch_matches_pointwise(self, rng):
        dae = VanDerPolDae(mu=0.3)
        states = rng.normal(size=(7, 2))
        np.testing.assert_allclose(
            dae.f_batch(states), np.stack([dae.f(s) for s in states])
        )
        np.testing.assert_allclose(
            dae.df_dx_batch(states), np.stack([dae.df_dx(s) for s in states])
        )

    def test_unforced(self):
        dae = VanDerPolDae()
        np.testing.assert_allclose(dae.b(12.3), [0.0, 0.0])

    def test_frequency_estimate_below_unity(self):
        assert VanDerPolDae(mu=0.5).small_mu_angular_frequency() < 1.0

    def test_rejects_negative_mu(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            VanDerPolDae(mu=-1.0)


class TestForcedDecay:
    def test_exact_constant_forcing(self):
        dae = ForcedDecayDae(rate=2.0, forcing=lambda t: 4.0)
        t = np.linspace(0, 3, 10)
        x = dae.exact_constant_forcing(t, x0=0.0, u=4.0)
        np.testing.assert_allclose(x[-1], 2.0, atol=1e-2)

    def test_forcing_callable(self):
        dae = ForcedDecayDae(rate=1.0, forcing=np.cos)
        np.testing.assert_allclose(dae.b(0.0), [1.0])


class TestScaledDAE:
    def test_solution_equivalence(self):
        """Integrating the scaled system must reproduce the unscaled one."""
        from repro.transient import TransientOptions, simulate_transient

        inner = LinearRCDae(resistance=2.0, capacitance=1e-6, omega=1e5)
        scaled = ScaledDAE(inner, variable_scale=2.0, time_scale=1e-5)
        x0 = np.array([0.3])
        result = simulate_transient(
            scaled,
            scaled.from_inner(x0),
            0.0,
            1.0,  # = 1e-5 s of real time
            TransientOptions(integrator="trap", dt=1e-3),
        )
        v_scaled = scaled.to_inner(result.final_state())
        exact = inner.transient_response(1e-5, v0=0.3)
        np.testing.assert_allclose(v_scaled[0], exact, rtol=1e-5)

    def test_jacobian_scaling(self):
        inner = VanDerPolDae(mu=0.4)
        scaled = ScaledDAE(
            inner, variable_scale=[2.0, 0.5], time_scale=3.0,
            equation_scale=[1.0, 4.0],
        )
        y = np.array([0.7, -0.4])
        numeric = finite_difference_jacobian(scaled.f, y)
        assert jacobian_error(scaled.df_dx(y), numeric) < 1e-6
        numeric_q = finite_difference_jacobian(scaled.q, y)
        assert jacobian_error(scaled.dq_dx(y), numeric_q) < 1e-6

    def test_fused_batch_is_bit_equal_to_separate_batches(self, rng):
        """``qf_batch`` makes one inner fused call and scales it exactly
        as ``q_batch``/``f_batch`` do."""
        from repro.circuits.library import MemsVcoDae, VcoParams

        calls = []

        class FusedVco(MemsVcoDae):
            def qf_batch(self, states):
                calls.append("qf_batch")
                return super().qf_batch(states)

        inner = FusedVco(VcoParams.vacuum())
        scaled = ScaledDAE(
            inner, variable_scale=[2.0, 1e-3, 1e-7, 0.5], time_scale=3.0,
            equation_scale=[1.0, 4.0, 2e6, 7.0],
        )
        # Inner states near the oscillation: ~1 V, ~1 mA, ~0.3 um, ~1 cm/s.
        states = rng.normal(size=(25, 4)) * [0.5, 1.0, 3.0, 0.02]
        q, f = scaled.qf_batch(states)
        assert calls == ["qf_batch"]
        assert np.array_equal(q, scaled.q_batch(states))
        assert np.array_equal(f, scaled.f_batch(states))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ScaledDAE(VanDerPolDae(), variable_scale=[1.0, -1.0])

    def test_rejects_wrong_scale_length(self):
        with pytest.raises(ValueError):
            ScaledDAE(VanDerPolDae(), variable_scale=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("keyword", ["variable_scale", "equation_scale"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_scale(self, keyword, bad):
        with pytest.raises(ValueError, match="finite"):
            ScaledDAE(VanDerPolDae(), **{keyword: [bad, 1.0]})


class TestEquilibrationScales:
    @staticmethod
    def _linear(dq, df):
        dq, df = np.asarray(dq, dtype=float), np.asarray(df, dtype=float)
        return FunctionDAE(
            n=2,
            q=lambda x: dq @ x,
            f=lambda x: df @ x,
            b=lambda t: np.zeros(2),
            dq_dx=lambda x: dq,
            df_dx=lambda x: df,
        )

    def test_rule_on_constant_jacobian(self):
        """M = 2 pi nu0 |dq| + |df|; S from column maxima of M, then R from
        row maxima of M S."""
        dae = self._linear([[1e-6, 0.0], [0.0, 2.0]], [[3e-5, 1.0], [-4.0, 0.0]])
        frequency = 1e5
        variable_scale, equation_scale = equilibration_scales(
            dae, np.zeros((5, 2)), frequency
        )
        magnitude = np.array([
            [2 * np.pi * frequency * 1e-6 + 3e-5, 1.0],
            [4.0, 2 * np.pi * frequency * 2.0],
        ])
        np.testing.assert_allclose(variable_scale,
                                   1.0 / magnitude.max(axis=0))
        np.testing.assert_allclose(
            equation_scale,
            1.0 / (magnitude * variable_scale).max(axis=1),
        )
        equilibrated = equation_scale[:, None] * magnitude * variable_scale
        np.testing.assert_allclose(equilibrated.max(axis=1), 1.0)

    def test_zero_and_non_finite_maxima_fall_back_to_one(self):
        # Variable 1 appears in no equation; the NaN entry poisons column 0
        # and row 0.
        dae = self._linear([[0.0, 0.0], [0.0, 0.0]], [[np.nan, 0.0], [2.0, 0.0]])
        variable_scale, equation_scale = equilibration_scales(
            dae, np.zeros((3, 2)), 1.0
        )
        np.testing.assert_array_equal(variable_scale, [1.0, 1.0])
        np.testing.assert_array_equal(equation_scale, [1.0, 0.5])
        ScaledDAE(dae, variable_scale=variable_scale,
                  equation_scale=equation_scale)
