"""Tests for the WaMPDE envelope solver — the paper's core method."""

import numpy as np
import pytest

from repro.dae import VanDerPolDae
from repro.errors import SimulationError
from repro.kernels.backends import HAVE_CC
from repro.wampde import (
    WampdeEnvelopeOptions,
    solve_wampde_envelope,
    solve_wampde_envelope_adaptive,
)

needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on PATH")


class TestInputValidation:
    def test_rejects_even_t1_count(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        with pytest.raises(Exception):
            solve_wampde_envelope(
                dae, hb.samples[:24], hb.frequency, 0.0, 1.0, 10
            )

    def test_rejects_variable_mismatch(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError, match="variables"):
            solve_wampde_envelope(
                dae, hb.samples[:, :1], hb.frequency, 0.0, 1.0, 10
            )

    def test_rejects_reversed_window(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError):
            solve_wampde_envelope(dae, hb.samples, hb.frequency, 1.0, 0.0, 10)

    def test_rejects_bad_integrator(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError, match="integrator"):
            solve_wampde_envelope(
                dae, hb.samples, hb.frequency, 0.0, 1.0, 10,
                WampdeEnvelopeOptions(integrator="rk4"),
            )

    def test_rejects_1d_initial(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError, match="2-D"):
            solve_wampde_envelope(
                dae, hb.samples[0], hb.frequency, 0.0, 1.0, 10
            )


class TestUnforcedInvariance:
    """With constant forcing the envelope must stay on the limit cycle:
    omega(t2) == free-running frequency, xhat independent of t2."""

    @pytest.mark.parametrize("integrator", ["be", "trap"])
    def test_omega_constant(self, vdp_limit_cycle, integrator):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 20.0, 40,
            WampdeEnvelopeOptions(integrator=integrator),
        )
        np.testing.assert_allclose(env.omega, hb.frequency, rtol=1e-6)

    def test_samples_stationary(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(dae, hb.samples, hb.frequency, 0.0, 20.0, 40)
        drift = np.max(np.abs(env.samples[-1] - env.samples[0]))
        assert drift < 1e-6

    def test_reconstruction_matches_transient(self, vdp_limit_cycle):
        """Paper eq. 15: x(t)=xhat(phi(t),t) must solve the original DAE."""
        from repro.transient import TransientOptions, simulate_transient

        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(dae, hb.samples, hb.frequency, 0.0, 30.0, 60)
        x0 = env.samples[0, 0]  # state at t1=0, t2=0
        transient = simulate_transient(
            dae, x0, 0.0, 30.0, TransientOptions(integrator="trap", dt=0.005)
        )
        times = np.linspace(0.0, 30.0, 600)
        rec = env.reconstruct(0, times)
        ref = transient.sample(times, 0)
        assert np.max(np.abs(rec - ref)) < 5e-3


class TestForcedVdp:
    """Van der Pol with slowly ramped 'stiffness' forcing shows FM."""

    @staticmethod
    def forced_vdp(amp, slow_freq):
        class RampedVdp(VanDerPolDae):
            """Slow additive forcing on the velocity equation."""

            def b(self, t):
                return np.array(
                    [0.0, amp * np.sin(2 * np.pi * slow_freq * t)]
                )

            def b_batch(self, times):
                times = np.asarray(times, dtype=float).ravel()
                out = np.zeros((times.size, 2))
                out[:, 1] = amp * np.sin(2 * np.pi * slow_freq * times)
                return out

        return RampedVdp(mu=0.2)

    def test_omega_responds_to_forcing(self, vdp_limit_cycle):
        _dae, hb = vdp_limit_cycle
        forced = self.forced_vdp(amp=0.5, slow_freq=hb.frequency / 40.0)
        env = solve_wampde_envelope(
            forced, hb.samples, hb.frequency, 0.0, 40.0 / hb.frequency / 2,
            200,
        )
        # Forcing shifts the operating point; omega must move measurably
        # but stay near the free-running value.
        assert env.omega.std() > 1e-4 * hb.frequency
        assert abs(env.omega.mean() - hb.frequency) < 0.2 * hb.frequency

    def test_phase_condition_held_every_step(self, vdp_limit_cycle):
        from repro.phase_conditions import FourierImagAnchor

        _dae, hb = vdp_limit_cycle
        forced = self.forced_vdp(amp=0.5, slow_freq=hb.frequency / 40.0)
        env = solve_wampde_envelope(
            forced, hb.samples, hb.frequency, 0.0, 100.0, 100
        )
        anchor = FourierImagAnchor(variable=0)  # the default (eq. 20)
        for row in env.samples[:: len(env.samples) // 10]:
            assert abs(anchor.residual(row)) < 1e-6


class TestResultContainer:
    def test_variable_index_by_name(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(dae, hb.samples, hb.frequency, 0.0, 5.0, 10)
        assert env.variable_index("y") == 0
        assert env.variable_index(1) == 1

    def test_bivariate_export(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(dae, hb.samples, hb.frequency, 0.0, 5.0, 10)
        biv = env.bivariate("y")
        assert biv.num_t1 == 25
        assert biv.num_t2 == 11

    def test_store_every(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 5.0, 20,
            WampdeEnvelopeOptions(store_every=5),
        )
        assert len(env.t2) <= 6

    def test_local_frequency_interpolation(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = solve_wampde_envelope(dae, hb.samples, hb.frequency, 0.0, 5.0, 10)
        freq = env.local_frequency(2.5)
        assert np.isclose(freq, hb.frequency, rtol=1e-5)

    def test_warping_total_cycles(self, vdp_limit_cycle):
        """Over t2 span T with constant omega, phi advances omega*T cycles."""
        dae, hb = vdp_limit_cycle
        span = 20.0
        env = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, span, 40
        )
        warp = env.warping()
        assert np.isclose(
            warp.total_cycles(), hb.frequency * span, rtol=1e-6
        )


class TestEvaluationMemoisation:
    """The stepper memoises (iterate, q_flat, f_flat): jacobian(z) and the
    post-step rhs_terms() reuse what residual(z) just computed."""

    def test_q_batch_not_recomputed_per_jacobian(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        calls = {"q": 0}

        class CountingDae(VanDerPolDae):
            def q_batch(self, states):
                calls["q"] += 1
                return super().q_batch(states)

        counting = CountingDae(mu=0.2)
        env = solve_wampde_envelope(
            counting, hb.samples, hb.frequency, 0.0, 2.0, 4,
            WampdeEnvelopeOptions(kernel="python"),
        )
        iters = env.stats["newton_iterations"]
        steps = env.stats["steps"]
        # Memoised: one evaluation for the initial rhs_terms plus one per
        # line-search trial (>= one per Newton iteration).  Without the
        # memo, jacobian(z), residual(z0) and rhs_terms() would each add
        # their own q_batch per step/iteration (> 2x this bound).
        assert calls["q"] <= 1 + iters + steps
        # ... and the run still reproduces the limit cycle.
        assert np.allclose(env.omega, hb.frequency, rtol=1e-5)


class TestForcingSamples:
    """Each envelope step samples the forcing once: ``rhs_terms`` at the
    step's t2 (the accepted point, or the adaptive driver's midpoint)
    reuses the tile the step's residuals use."""

    @staticmethod
    def _counted_b_batch(monkeypatch):
        from repro.circuits.library import MemsVcoDae

        calls = []
        original = MemsVcoDae.b_batch

        def b_batch(self, times):
            calls.append(np.size(times))
            return original(self, times)

        monkeypatch.setattr(MemsVcoDae, "b_batch", b_batch)
        return calls

    def test_fixed_run_samples_once_per_step(self, vco_initial_condition,
                                             monkeypatch):
        from repro.circuits.library import MemsVcoDae

        params, samples, f0 = vco_initial_condition
        dae = MemsVcoDae(params)
        calls = self._counted_b_batch(monkeypatch)
        steps = 5
        env = solve_wampde_envelope(dae, samples, f0, 0.0, 1e-6, steps,
                                    WampdeEnvelopeOptions(kernel="python"))
        assert env.stats["steps"] == steps
        # The initial rhs_terms, then one sample per step.
        assert len(calls) == steps + 1

    @needs_cc
    def test_compiled_run_samples_one_grid(self, vco_initial_condition,
                                           monkeypatch):
        from repro.circuits.library import MemsVcoDae

        params, samples, f0 = vco_initial_condition
        dae = MemsVcoDae(params)
        calls = self._counted_b_batch(monkeypatch)
        steps = 5
        env = solve_wampde_envelope(dae, samples, f0, 0.0, 1e-6, steps,
                                    WampdeEnvelopeOptions(kernel="c"))
        assert env.stats["kernel"]["compiled_steps"] == steps
        # One b_batch call over the start and every step's t2.
        assert calls == [steps + 1]

    def test_adaptive_run_samples_three_times_per_step(
            self, vco_initial_condition, monkeypatch):
        from repro.circuits.library import MemsVcoDae

        params, samples, f0 = vco_initial_condition
        dae = MemsVcoDae(params)
        calls = self._counted_b_batch(monkeypatch)
        env = solve_wampde_envelope_adaptive(dae, samples, f0, 0.0, 2e-6)
        steps = env.stats["steps"]
        assert steps > 10
        assert env.stats["rejected_steps"] == 0
        assert env.stats["newton_failures"] == 0
        # The initial rhs_terms, then the full step and the two half
        # steps; the midpoint and accepted-point rhs_terms reuse them.
        assert len(calls) == 1 + 3 * steps


class TestLeanResidual:
    """The step residual takes q and f from one ``qf_batch`` call, the t1
    derivative as ``D1 @ Q`` on the ``(N0, n)`` samples and the phase
    residual from the stored phase row.  Only the summation order differs
    from the reference formula (separate q/f batches, a sparse
    ``kron(D1, I)`` matvec, the condition's own residual), so the two agree
    to rounding, relative to the size of the terms."""

    def test_matches_reference_formula(self, vco_initial_condition):
        from repro.circuits.library import MemsVcoDae
        from repro.linalg.sparse_tools import kron_diffmat
        from repro.phase_conditions import as_phase_condition
        from repro.wampde.envelope import _EnvelopeStepper

        params, samples, f0 = vco_initial_condition
        dae = MemsVcoDae(params)
        num_t1 = samples.shape[0]
        options = WampdeEnvelopeOptions()
        stepper = _EnvelopeStepper(dae, num_t1, options)
        system = stepper.system
        h = 2e-7
        rhs_old, q_old = stepper.rhs_terms(samples, f0, 0.0)
        x_new, omega_new, _ = stepper.step(samples, f0, q_old, rhs_old, h, h)
        rng = np.random.default_rng(11)
        states = x_new * (1.0 + 1e-3 * rng.normal(size=x_new.shape))
        omega = omega_new * 1.01
        z = np.append(states.ravel(), omega)

        d_big = kron_diffmat(system.diffmat, dae.n, ordering="point")
        q = dae.q_batch(states).ravel()
        f = dae.f_batch(states).ravel()
        b = np.tile(dae.b(h), num_t1)
        theta = system.theta
        expected = np.append(
            (q - q_old) / h
            + theta * (omega * (d_big @ q) + f - b)
            + (1.0 - theta) * rhs_old,
            as_phase_condition(
                options.phase_condition, options.phase_variable
            ).residual(states),
        )
        derivative_terms = np.abs(system.diffmat) @ np.abs(q).reshape(
            num_t1, dae.n
        )
        scale = np.append(
            np.abs(q - q_old) / h
            + theta * (omega * derivative_terms.ravel() + np.abs(f)
                       + np.abs(b))
            + (1.0 - theta) * np.abs(rhs_old),
            np.abs(system.phase_row) @ np.abs(z[:-1]),
        )
        error = np.abs(system.residual(z) - expected)
        assert np.all(error <= 1e-12 * scale)


class TestStepWindowValidation:
    """Both fixed-step drivers reject a non-integral step count and a
    non-finite window up front, as a SimulationError."""

    @staticmethod
    def _wampde(dae, hb, t2_start, t2_stop, num_steps):
        return solve_wampde_envelope(
            dae, hb.samples, hb.frequency, t2_start, t2_stop, num_steps
        )

    @staticmethod
    def _mpde(t2_start, t2_stop, num_steps):
        from repro.mpde import BivariateForcing, solve_mpde_envelope

        dae = VanDerPolDae(mu=0.2)
        forcing = BivariateForcing(lambda t1, t2: np.zeros(2), 1.0, 1.0, 2)
        return solve_mpde_envelope(
            dae, forcing, np.zeros((5, 2)), t2_start, t2_stop, num_steps
        )

    @pytest.mark.parametrize("num_steps", [10.0, 2.5, True])
    def test_non_integral_steps(self, vdp_limit_cycle, num_steps):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError, match="num_steps"):
            self._wampde(dae, hb, 0.0, 2.0, num_steps)
        with pytest.raises(SimulationError, match="num_steps"):
            self._mpde(0.0, 2.0, num_steps)

    @pytest.mark.parametrize("window", [(0.0, np.inf), (-np.inf, 1.0),
                                        (0.0, np.nan)])
    def test_non_finite_window(self, vdp_limit_cycle, window):
        dae, hb = vdp_limit_cycle
        with pytest.raises(SimulationError, match="finite"):
            self._wampde(dae, hb, *window, 10)
        with pytest.raises(SimulationError, match="finite"):
            self._mpde(*window, 10)
        with pytest.raises(SimulationError, match="finite"):
            solve_wampde_envelope_adaptive(
                dae, hb.samples, hb.frequency, *window
            )

    def test_numpy_integer_steps(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        env = self._wampde(dae, hb, 0.0, 2.0, np.int64(4))
        assert env.stats["steps"] == 4


@needs_cc
@pytest.mark.parametrize("overrides", [
    {"newton_mode": "full"}, {"ladder": ("full_newton",)},
    {"linear_solver": "gmres"}, {"kernel": "python"},
])
def test_ineligible_runs_stay_on_the_numpy_stepper(vco_initial_condition,
                                                   overrides):
    from repro.circuits.library import MemsVcoDae

    params, samples, f0 = vco_initial_condition
    env = solve_wampde_envelope(MemsVcoDae(params), samples, f0, 0.0, 1e-6,
                                3, WampdeEnvelopeOptions(**overrides))
    kernel = env.stats["kernel"]
    assert kernel["mode"] == "python" and kernel["reason"]
    assert kernel["compiled_steps"] == 0 and kernel["python_steps"] == 3
