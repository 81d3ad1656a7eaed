"""One q/f evaluation per collocation residual, in every engine.

Autonomous harmonic balance, the MPDE envelope step and the bi-periodic
WaMPDE take ``q`` and ``f`` from one ``qf_batch`` call, the point
derivative of ``q`` as a dense ``D @ Q`` on the ``(points, n)`` samples and
the phase residuals from the stored phase rows; the Jacobian at the same
iterate takes its frequency columns from the memoised ``D q``.  Only the
summation order differs from the reference formula (separate q/f batches,
a sparse ``kron(D, I)`` matvec, the condition's own residual), so the two
agree to rounding, relative to the size of the terms.
"""

import collections

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits.library import MemsVcoDae, rc_diode_mixer_circuit
from repro.constants import TWO_PI
from repro.dae.scaled import ScaledDAE, equilibration_scales
from repro.linalg.sparse_tools import kron_diffmat
from repro.linalg.spectral import PeriodicCollocationSystem
from repro.mpde import additive_two_tone_forcing
from repro.mpde.envelope import MpdeEnvelopeOptions, _MpdeEnvelopeStepper
from repro.phase_conditions import as_phase_condition
from repro.spectral.grid import collocation_grid
from repro.steadystate import dc_operating_point
from repro.steadystate.harmonic_balance import _AutonomousHBSystem
from repro.wampde.quasiperiodic import _QuasiperiodicSystem

BATCH_METHODS = (
    "q_batch", "f_batch", "qf_batch", "dq_dx_batch", "df_dx_batch",
)

#: What ``residual(z)`` then ``jacobian(z)`` may cost.
ONE_EVALUATION = {"qf_batch": 1, "dq_dx_batch": 1, "df_dx_batch": 1}


class CountingDae:
    """Proxy counting the batched evaluations an engine makes through it."""

    def __init__(self, dae):
        self._dae = dae
        self.n = dae.n
        self.variable_names = dae.variable_names
        self.calls = collections.Counter()

    def __getattr__(self, name):
        value = getattr(self._dae, name)
        if name not in BATCH_METHODS:
            return value

        def counted(states):
            self.calls[name] += 1
            return value(states)

        return counted


def derivative_terms(diffmat, q, n):
    """``|D| @ |Q|``, flat: the summed magnitudes of ``(D ⊗ I) q``."""
    return (np.abs(diffmat) @ np.abs(q).reshape(-1, n)).ravel()


def assert_within_rounding(actual, expected, scale):
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= 1e-12 * scale)


def dense(matrix):
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)


# -- autonomous harmonic balance ---------------------------------------------


@pytest.fixture(scope="module")
def hb_case(vco_initial_condition):
    """The equilibrated VCO system autonomous HB solves, off its solution."""
    params, samples, f0 = vco_initial_condition
    unforced = MemsVcoDae(params, constant_control=True)
    scale, equation_scale = equilibration_scales(unforced, samples, f0)

    def build(inner):
        return _AutonomousHBSystem(
            ScaledDAE(inner, variable_scale=scale,
                      equation_scale=equation_scale),
            samples.shape[0], as_phase_condition("fourier"), 0.0,
        )

    rng = np.random.default_rng(5)
    states = samples / scale * (1.0 + 1e-3 * rng.normal(size=samples.shape))
    z = np.append(states.ravel(), f0 * 1.01)
    return build, unforced, z


class TestAutonomousHB:
    def test_matches_reference_formula(self, hb_case):
        build, unforced, z = hb_case
        system = build(unforced)
        dae = system.dae
        n = dae.n
        states = z[:-1].reshape(-1, n)
        nu = z[-1]
        d_big = kron_diffmat(system.diffmat, n, ordering="point")
        q = dae.q_batch(states).ravel()
        f = dae.f_batch(states).ravel()
        d1q = d_big @ q
        terms = derivative_terms(system.diffmat, q, n)

        expected = np.append(
            nu * d1q + f - system.b_const,
            as_phase_condition("fourier").residual(states),
        )
        scale = np.append(
            nu * terms + np.abs(f) + np.abs(system.b_const),
            np.abs(system.phase_row) @ np.abs(z[:-1]),
        )
        assert_within_rounding(system.residual(z), expected, scale)
        frequency_column = dense(system.jacobian(z))[:-1, -1]
        assert_within_rounding(frequency_column, d1q, terms)

    def test_residual_then_jacobian_evaluate_once(self, hb_case):
        build, unforced, z = hb_case
        counting = CountingDae(unforced)
        system = build(counting)
        system.residual(z)
        system.jacobian(z)
        assert counting.calls == ONE_EVALUATION
        # q and f depend on the samples alone: a new frequency reuses
        # them, new samples are evaluated afresh.
        new_frequency = z.copy()
        new_frequency[-1] *= 1.01
        system.residual(new_frequency)
        assert counting.calls["qf_batch"] == 1
        system.residual(z * (1.0 + 1e-9))
        assert counting.calls["qf_batch"] == 2


# -- MPDE envelope -----------------------------------------------------------


@pytest.fixture(scope="module")
def mixer():
    """The RC-diode mixer: 0.6 V bias + 0.05 V at 100 kHz (t1), a 0.4 V
    LO at 1 kHz (t2); ``(dae, forcing, x_dc)``."""
    dae = rc_diode_mixer_circuit().to_dae()
    n = dae.n

    def fast(t1):
        b = np.zeros(n)
        b[-1] = 0.6 + 0.05 * np.sin(TWO_PI * 1e5 * t1)
        return b

    def slow(t2):
        b = np.zeros(n)
        b[-1] = 0.4 * np.sin(TWO_PI * 1e3 * t2)
        return b

    forcing = additive_two_tone_forcing(fast, slow, 1e-5, 1e-3, n)
    return dae, forcing, dc_operating_point(dae)


def mpde_step_case(mixer, dae):
    """A stepper configured for its second step, and an iterate near it."""
    _inner, forcing, x_dc = mixer
    n0 = 9
    stepper = _MpdeEnvelopeStepper(
        dae, n0, forcing, 0.5, MpdeEnvelopeOptions()
    )
    t1 = collocation_grid(n0, forcing.period1)

    def b_at(t2):
        return np.stack([forcing(point, t2) for point in t1]).ravel()

    h = 2e-5
    x0 = np.tile(x_dc, (n0, 1))
    rhs_old, q_old = stepper.rhs_terms(x0, b_at(0.0))
    x1, _ = stepper.step(x0, q_old, rhs_old, b_at(h), h)
    rhs_old, q_old = stepper.rhs_terms(x1, b_at(h))
    b_new = b_at(2 * h)
    x2, _ = stepper.step(x1, q_old, rhs_old, b_new, h)
    rng = np.random.default_rng(7)
    z = (x2 * (1.0 + 1e-3 * rng.normal(size=x2.shape))).ravel()
    return stepper, z, (q_old, rhs_old, b_new, h)


class TestMpdeEnvelope:
    def test_matches_reference_formula(self, mixer):
        dae = mixer[0]
        stepper, z, (q_old, rhs_old, b_new, h) = mpde_step_case(mixer, dae)
        n = dae.n
        states = z.reshape(-1, n)
        d_big = kron_diffmat(stepper.diffmat, n, ordering="point")
        q = dae.q_batch(states).ravel()
        f = dae.f_batch(states).ravel()

        expected = (q - q_old) / h + 0.5 * (d_big @ q + f - b_new + rhs_old)
        scale = np.abs(q - q_old) / h + 0.5 * (
            derivative_terms(stepper.diffmat, q, n) + np.abs(f)
            + np.abs(b_new) + np.abs(rhs_old)
        )
        assert_within_rounding(stepper.residual(z), expected, scale)

    def test_residual_then_jacobian_evaluate_once(self, mixer):
        counting = CountingDae(mixer[0])
        stepper, z, _ = mpde_step_case(mixer, counting)
        counting.calls.clear()
        stepper.residual(z)
        stepper.jacobian(z)
        assert counting.calls == ONE_EVALUATION


# -- bi-periodic WaMPDE ------------------------------------------------------


@pytest.fixture(scope="module")
def qp_case(vco_initial_condition):
    """The forced VCO's bi-periodic system on 5 t2 slices, and an iterate
    near the free-running cycle."""
    params, samples, f0 = vco_initial_condition
    forced = MemsVcoDae(params)
    n1 = 5

    def build(dae):
        return _QuasiperiodicSystem(
            dae, params.control_period, samples.shape[0], n1,
            as_phase_condition("fourier"),
        )

    rng = np.random.default_rng(9)
    states = samples[None] * (
        1.0 + 1e-3 * rng.normal(size=(n1,) + samples.shape)
    )
    omegas = f0 * (1.0 + 1e-2 * rng.normal(size=n1))
    return build, forced, np.concatenate([states.ravel(), omegas])


class TestQuasiperiodicWampde:
    def test_matches_reference_formula(self, qp_case):
        build, dae, z = qp_case
        system = build(dae)
        n, n1, block, total = dae.n, system.n1, system.block, system.total
        states, omegas = system.split(z)
        flat_states = states.reshape(-1, n)
        d1_all = sp.kron(
            sp.identity(n1, format="csr"),
            kron_diffmat(system.diffmat1, n, ordering="point"),
            format="csr",
        )
        d2_all = kron_diffmat(system.diffmat2, block, ordering="point")
        q = dae.q_batch(flat_states).ravel()
        f = dae.f_batch(flat_states).ravel()
        d1q = d1_all @ q
        omega_expand = np.repeat(omegas, block)
        condition = as_phase_condition("fourier")

        expected = np.concatenate([
            omega_expand * d1q + d2_all @ q + f - system.b_flat,
            [condition.residual(states[i2]) for i2 in range(n1)],
        ])
        d1_terms = (
            np.abs(system.diffmat1) @ np.abs(q).reshape(n1, -1, n)
        ).ravel()
        d2_terms = derivative_terms(system.diffmat2, q, block)
        scale = np.concatenate([
            omega_expand * d1_terms + d2_terms + np.abs(f)
            + np.abs(system.b_flat),
            np.abs(z[:total]).reshape(n1, block)
            @ np.abs(system.phase_row_block),
        ])
        assert_within_rounding(system.residual(z), expected, scale)

        columns = dense(system.jacobian(z))[:total, total:]
        expected_columns = np.zeros((total, n1))
        column_scale = np.zeros((total, n1))
        for i2 in range(n1):
            rows = slice(i2 * block, (i2 + 1) * block)
            expected_columns[rows, i2] = d1q[rows]
            column_scale[rows, i2] = d1_terms[rows]
        assert_within_rounding(columns, expected_columns, column_scale)

    def test_residual_then_jacobian_evaluate_once(self, qp_case):
        build, dae, z = qp_case
        counting = CountingDae(dae)
        system = build(counting)
        system.residual(z)
        system.jacobian(z)
        assert counting.calls == ONE_EVALUATION


# -- forced periodic BVPs (FFT residual) -------------------------------------


def test_periodic_collocation_residual_evaluates_once(mixer):
    dae, forcing, x_dc = mixer
    counting = CountingDae(dae)
    grid = (5, 7)
    b_grid = forcing.grid(collocation_grid(grid[1], forcing.period1),
                          collocation_grid(grid[0], forcing.period2))
    system = PeriodicCollocationSystem(
        counting, grid, (forcing.period2, forcing.period1), b_grid.ravel(),
    )
    z = np.tile(x_dc, grid[0] * grid[1])
    system.residual(z)
    system.jacobian(z)
    assert counting.calls == ONE_EVALUATION
