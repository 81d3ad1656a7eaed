"""Tests for the (unwarped) MPDE solvers."""

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.dae import LinearRCDae
from repro.errors import SimulationError, ValidationError
from repro.linalg import (
    FunctionSystem,
    NewtonOptions,
    SolverCore,
    SolverCoreOptions,
    kron_diffmat,
)
from repro.linalg.spectral import PeriodicCollocationSystem, coupling_matrix
from repro.mpde import (
    BivariateForcing,
    additive_two_tone_forcing,
    solve_mpde_envelope,
    solve_mpde_quasiperiodic,
)
from repro.mpde.quasiperiodic import MpdeQuasiperiodicOptions
from repro.spectral.grid import collocation_grid


def rc_two_tone(f1=50.0, f2=1.0, a1=1.0, a2=0.5):
    """Linear RC driven by two tones: closed-form AM-quasiperiodic output."""
    dae = LinearRCDae(resistance=1.0, capacitance=0.02)

    def fast(t1):
        return np.array([a1 * np.cos(TWO_PI * f1 * t1)])

    def slow(t2):
        return np.array([a2 * np.cos(TWO_PI * f2 * t2)])

    forcing = additive_two_tone_forcing(fast, slow, 1.0 / f1, 1.0 / f2, 1)

    def exact(t):
        # Superposition of the two single-tone steady states.
        g, c = 1.0, 0.02
        out = 0.0
        for amp, freq in ((a1, f1), (a2, f2)):
            w = TWO_PI * freq
            denominator = g**2 + (w * c) ** 2
            out = out + amp * (
                g * np.cos(w * t) + w * c * np.sin(w * t)
            ) / denominator
        return out

    return dae, forcing, exact


def diode_mixer(lo_amplitude=0.4):
    """The RC-diode mixer: 0.6 V bias + 0.05 V at 100 kHz (t1) and an LO
    of ``lo_amplitude`` at 1 kHz (t2).  Returns ``(dae, forcing, x_dc)``."""
    from repro.circuits.library import rc_diode_mixer_circuit
    from repro.steadystate import dc_operating_point

    dae = rc_diode_mixer_circuit().to_dae()
    n = dae.n

    def fast(t1):
        b = np.zeros(n)
        b[-1] = 0.6 + 0.05 * np.sin(TWO_PI * 1e5 * t1)
        return b

    def slow(t2):
        b = np.zeros(n)
        b[-1] = lo_amplitude * np.sin(TWO_PI * 1e3 * t2)
        return b

    forcing = additive_two_tone_forcing(fast, slow, 1e-5, 1e-3, n)
    return dae, forcing, dc_operating_point(dae)


def mixer_qp(grid, linear_solver=None, atol=1e-9):
    dae, forcing, x_dc = diode_mixer()
    return solve_mpde_quasiperiodic(
        dae, forcing, num_t1=grid, num_t2=grid, initial=x_dc,
        options=MpdeQuasiperiodicOptions(
            linear_solver=linear_solver,
            newton=NewtonOptions(atol=atol, max_iterations=60),
        ),
    )


def mixer_system(grid):
    """The collocation system ``mixer_qp`` solves, for residual checks."""
    dae, forcing, _x_dc = diode_mixer()
    b_grid = forcing.grid(collocation_grid(grid, forcing.period1),
                          collocation_grid(grid, forcing.period2))
    return PeriodicCollocationSystem(
        dae, (grid, grid), (forcing.period2, forcing.period1),
        b_grid.ravel(),
    )


class TestBivariateForcing:
    def test_diagonal_recovers_univariate(self):
        _dae, forcing, _exact = rc_two_tone()
        t = 0.123
        expected = forcing(t, t)
        np.testing.assert_allclose(forcing.diagonal(t), expected)

    def test_grid_shape(self):
        _dae, forcing, _ = rc_two_tone()
        grid = forcing.grid(np.zeros(3), np.zeros(5))
        assert grid.shape == (5, 3, 1)

    def test_rejects_noncallable(self):
        with pytest.raises(ValidationError):
            BivariateForcing("nope", 1.0, 1.0, 1)

    def test_rejects_bad_periods(self):
        with pytest.raises(ValidationError):
            BivariateForcing(lambda a, b: np.zeros(1), -1.0, 1.0, 1)

    def test_rejects_wrong_vector_length(self):
        forcing = BivariateForcing(lambda a, b: np.zeros(2), 1.0, 1.0, 1)
        with pytest.raises(ValidationError, match="shape"):
            forcing(0.0, 0.0)


class TestMpdeQuasiperiodic:
    def test_linear_rc_matches_closed_form(self):
        """The MPDE solution along the diagonal equals the exact
        two-tone steady state of the linear RC filter."""
        dae, forcing, exact = rc_two_tone()
        result = solve_mpde_quasiperiodic(dae, forcing, num_t1=9, num_t2=9)
        t = np.linspace(0.0, 1.0, 400)
        np.testing.assert_allclose(
            result.reconstruct(0, t), exact(t), atol=1e-6
        )

    def test_solution_grid_shape(self):
        dae, forcing, _ = rc_two_tone()
        result = solve_mpde_quasiperiodic(dae, forcing, num_t1=9, num_t2=7)
        assert result.samples.shape == (7, 9, 1)

    def test_initial_dc_broadcast(self):
        dae, forcing, _ = rc_two_tone()
        result = solve_mpde_quasiperiodic(
            dae, forcing, num_t1=9, num_t2=7, initial=np.array([0.3])
        )
        assert result.newton_iterations >= 1

    def test_rejects_mismatched_forcing(self):
        dae, _forcing, _ = rc_two_tone()
        bad = BivariateForcing(lambda a, b: np.zeros(3), 1.0, 1.0, 3)
        with pytest.raises(SimulationError):
            solve_mpde_quasiperiodic(dae, bad, num_t1=9, num_t2=9)

    def test_bivariate_periodic_in_t2(self):
        dae, forcing, _ = rc_two_tone()
        result = solve_mpde_quasiperiodic(dae, forcing, num_t1=9, num_t2=9)
        biv = result.bivariate(0)
        t1 = np.linspace(0, forcing.period1, 5)
        np.testing.assert_allclose(
            biv(t1, 0.0), biv(t1, forcing.period2), atol=1e-9
        )

    def test_nonlinear_mixer_against_transient(self):
        """End-to-end on the diode mixer: MPDE vs brute-force transient."""
        from repro.transient import TransientOptions, simulate_transient

        dae, forcing, x_dc = diode_mixer()
        result = solve_mpde_quasiperiodic(
            dae, forcing, num_t1=15, num_t2=15, initial=x_dc
        )
        transient = simulate_transient(
            dae, x_dc, 0.0, 2.5e-3,
            TransientOptions(integrator="trap", dt=1e-5 / 40),
        )
        times = np.linspace(1.5e-3, 2.4e-3, 300)
        rec = result.reconstruct("v(out)", times)
        ref = transient.sample(times, "v(out)")
        spread = ref.max() - ref.min()
        assert np.max(np.abs(rec - ref)) < 0.05 * spread


class TestMpdeQuasiperiodicRoute:
    """The route rule forced HB uses: matrix-free from
    ``MATRIX_FREE_MIN_COUPLING`` point-coupling nonzeros (21 x 21 has
    18,081), assembled below it and for ``linear_solver="lu"``."""

    def test_matrix_free_route_meets_the_contract(self):
        """Both routes reach the solution of a tight ``"lu"`` reference:
        final residual within atol, samples within 1e-7 (scaled), and at
        most two Newton iterations more than ``"lu"``."""
        default = mixer_qp(21)
        assembled = mixer_qp(21, linear_solver="lu")
        reference = mixer_qp(21, linear_solver="lu", atol=1e-14)
        system = mixer_system(21)
        scale = np.abs(reference.samples).max(axis=(0, 1))
        for result in (default, assembled):
            residual = system.residual(result.samples.ravel())
            assert np.abs(residual).max() <= 1e-9
            gap = np.abs(result.samples - reference.samples) / scale
            assert gap.max() <= 1e-7
        assert default.newton_iterations <= assembled.newton_iterations + 2
        assert default.stats["factorizations"] == 0
        assert default.stats["krylov_iterations"] > 0
        assert assembled.stats["krylov_iterations"] == 0
        assert assembled.stats["factorizations"] == assembled.newton_iterations

    def test_below_the_gate_is_the_assembled_route(self):
        """15 x 15 (6,525 couplings) assembles: the default route is
        ``"lu"`` bit for bit, and the FFT residual leaves ``"lu"`` within
        1e-12 of the solve on the sparse ``(D1 + D2) ⊗ I`` product."""
        default = mixer_qp(15)
        assembled = mixer_qp(15, linear_solver="lu")
        np.testing.assert_array_equal(default.samples, assembled.samples)
        assert default.stats["krylov_iterations"] == 0

        system = mixer_system(15)
        d_sum = kron_diffmat(coupling_matrix(system.grid, system.periods),
                             system.n, ordering="point")
        dae = system.dae

        def residual(z):
            states = z.reshape(-1, system.n)
            return (d_sum @ dae.q_batch(states).ravel()
                    + dae.f_batch(states).ravel() - system.b_flat)

        core = SolverCore(SolverCoreOptions(
            linear_solver="lu",
            newton=NewtonOptions(atol=1e-9, max_iterations=60),
        ))
        x_dc = diode_mixer()[2]
        sparse = core.solve(FunctionSystem(residual, system.jacobian),
                            np.tile(x_dc, 15 * 15))
        gap = np.abs(assembled.samples.ravel() - sparse.x)
        assert gap.max() <= 1e-12

    def test_gmres_miss_finishes_on_the_assembled_route(self, monkeypatch):
        """A Krylov budget too small for the second Newton step: one miss,
        then sparse LU for the rest of the solve, to the same answer."""
        from repro.linalg import spectral

        monkeypatch.setattr(spectral, "KRYLOV_RESTART", 2)
        monkeypatch.setattr(spectral, "KRYLOV_BUDGET", 2)
        default = mixer_qp(21)
        assembled = mixer_qp(21, linear_solver="lu")
        stats = default.stats
        assert 0 < stats["factorizations"] < stats["iterations"]
        assert stats["krylov_iterations"] > 0
        scale = np.abs(assembled.samples).max(axis=(0, 1))
        gap = np.abs(default.samples - assembled.samples) / scale
        assert gap.max() <= 1e-7

    def test_matrix_free_memory(self):
        """No ``(N1 N0)²`` array: 29 x 29 peaks far below the ~20 MiB of
        traced memory the assembled route needs."""
        import tracemalloc

        tracemalloc.start()
        try:
            result = mixer_qp(29)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.stats["factorizations"] == 0
        assert peak <= 10 * 2**20


class TestMpdeEnvelope:
    def test_settles_to_quasiperiodic(self):
        """Envelope started at DC converges to the QP solution."""
        dae, forcing, exact = rc_two_tone()
        initial = np.zeros((9, 1))
        result = solve_mpde_envelope(
            dae, forcing, initial, 0.0, 3.0, 300
        )
        # After ~RC settling, the reconstruction matches the closed form.
        t = np.linspace(2.0, 2.9, 200)
        np.testing.assert_allclose(
            result.reconstruct(0, t), exact(t), atol=2e-3
        )

    def test_rejects_bad_initial(self):
        dae, forcing, _ = rc_two_tone()
        with pytest.raises(SimulationError):
            solve_mpde_envelope(dae, forcing, np.zeros(9), 0.0, 1.0, 10)

    def test_rejects_bad_integrator(self):
        from repro.mpde.envelope import MpdeEnvelopeOptions

        dae, forcing, _ = rc_two_tone()
        with pytest.raises(SimulationError, match="integrator"):
            solve_mpde_envelope(
                dae, forcing, np.zeros((9, 1)), 0.0, 1.0, 10,
                MpdeEnvelopeOptions(integrator="euler"),
            )

    @pytest.mark.parametrize(
        "t2_start, t2_stop, num_steps, message",
        [
            (0.0, 1.0, 0, "num_steps"),
            (0.0, 1.0, -3, "num_steps"),
            (1.0, 0.0, 10, "t2_stop"),
            (0.5, 0.5, 10, "t2_stop"),
        ],
    )
    def test_rejects_bad_window(self, t2_start, t2_stop, num_steps, message):
        dae, forcing, _ = rc_two_tone()
        with pytest.raises(SimulationError, match=message):
            solve_mpde_envelope(
                dae, forcing, np.zeros((9, 1)), t2_start, t2_stop, num_steps
            )

    def test_be_variant_runs(self):
        from repro.mpde.envelope import MpdeEnvelopeOptions

        dae, forcing, _ = rc_two_tone()
        result = solve_mpde_envelope(
            dae, forcing, np.zeros((9, 1)), 0.0, 0.5, 50,
            MpdeEnvelopeOptions(integrator="be"),
        )
        assert result.samples.shape[0] == 51
