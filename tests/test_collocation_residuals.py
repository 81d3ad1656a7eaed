"""One q/f evaluation per collocation residual, in every engine.

Autonomous harmonic balance, the WaMPDE and MPDE envelope steps and the
bi-periodic WaMPDE (all :class:`WarpedCollocationSystem`) take ``q`` and
``f`` from one ``qf_batch`` call, the point derivative of ``q`` as a dense
``D @ Q`` on the ``(points, n)`` samples and the phase residuals from the
stored phase rows; the Jacobian at the same iterate takes its frequency
columns from the memoised ``D q``.  Only the summation order differs from
the reference formula (separate q/f batches, a sparse ``kron(D, I)``
matvec, the condition's own residual), so the two agree to rounding,
relative to the size of the terms.
"""

import collections

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits.library import MemsVcoDae, rc_diode_mixer_circuit
from repro.constants import TWO_PI
from repro.dae.scaled import ScaledDAE, equilibration_scales
from repro.linalg.collocation import WarpedCollocationSystem
from repro.linalg.solver_core import core_from_options
from repro.linalg.sparse_tools import kron_diffmat
from repro.linalg.spectral import PeriodicCollocationSystem
from repro.mpde import additive_two_tone_forcing
from repro.mpde.envelope import MpdeEnvelopeOptions
from repro.phase_conditions import as_phase_condition
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.spectral.grid import collocation_grid
from repro.steadystate import dc_operating_point
from repro.wampde.envelope import WampdeEnvelopeOptions, _EnvelopeStepper

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


# -- the floating-point grouping, written out --------------------------------
#
# The ``test_grouping_is_exact`` tests pin each engine's residual and Newton
# matrix bit for bit against these explicit formulas (``np.array_equal``, not
# a tolerance): a regrouping that keeps the residual within rounding of the
# reference formulas above can still move every workload's output bits.


def point_derivative(diffmat, q):
    """Flat ``D @ Q`` on each run of ``len(D)`` consecutive points of the
    ``(points, n)`` charges ``q``."""
    m = diffmat.shape[0]
    return (diffmat @ q.reshape(-1, m, q.shape[1])).ravel()


def collocation_matrix(coupling, dq, df, scale=1.0, outer=1.0,
                       diag_outer=None, columns=None, rows=None):
    """``outer * (scale * W[i, j] dq_j + [i == j] df_i) + [i == j]
    diag_outer_i``, block by block in that order, then the border columns
    and rows (the corner is zero)."""
    m, n, _ = dq.shape
    core = (coupling[:, None, :, None] * dq.transpose(1, 0, 2)[None]).reshape(
        m * n, m * n
    ) * scale
    blocks = [slice(i * n, (i + 1) * n) for i in range(m)]
    for i, block in enumerate(blocks):
        core[block, block] += df[i]
    core *= outer
    if diag_outer is not None:
        for i, block in enumerate(blocks):
            core[block, block] += diag_outer[i]
    if columns is None:
        return core
    k = columns.shape[1]
    return np.block([[core, columns], [rows, np.zeros((k, k))]])


# -- autonomous harmonic balance ---------------------------------------------


@pytest.fixture(scope="module")
def hb_case(vco_initial_condition):
    """The equilibrated VCO system autonomous HB solves, off its solution."""
    params, samples, f0 = vco_initial_condition
    unforced = MemsVcoDae(params, constant_control=True)
    scale, equation_scale = equilibration_scales(unforced, samples, f0)

    def build(inner):
        scaled = ScaledDAE(inner, variable_scale=scale,
                           equation_scale=equation_scale)
        system = WarpedCollocationSystem(
            scaled, samples.shape[0], condition=as_phase_condition("fourier"),
        )
        system.b = np.tile(scaled.b(0.0), samples.shape[0])
        return system

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
            nu * d1q + f - system.b,
            as_phase_condition("fourier").residual(states),
        )
        scale = np.append(
            nu * terms + np.abs(f) + np.abs(system.b),
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

    def test_grouping_is_exact(self, hb_case):
        build, unforced, z = hb_case
        system = build(unforced)
        dae = system.dae
        n = dae.n
        num = (z.size - 1) // n
        x, nu = z[:-1], z[-1]
        states = x.reshape(num, n)
        condition = as_phase_condition("fourier")
        phase_row = condition.gradient(num, n)
        diffmat = fourier_differentiation_matrix(num, period=1.0)
        q, f = dae.qf_batch(states)
        d1q = point_derivative(diffmat, q)

        expected = np.append(
            nu * d1q + f.ravel() - np.tile(dae.b(0.0), num),
            phase_row @ x - condition.target,
        )
        assert np.array_equal(system.residual(z), expected)
        matrix = collocation_matrix(
            diffmat, dae.dq_dx_batch(states), dae.df_dx_batch(states),
            scale=nu, columns=d1q[:, None], rows=phase_row[None, :],
        )
        assert np.array_equal(dense(system.jacobian(z)), matrix)


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


def mpde_step_case(mixer, dae, theta=0.5):
    """The MPDE envelope's system configured for its second step, and an
    iterate near it."""
    _inner, forcing, x_dc = mixer
    n0 = 9
    core = core_from_options(MpdeEnvelopeOptions())
    system = WarpedCollocationSystem(
        dae, n0, period1=forcing.period1, core=core
    )
    system.theta = theta
    t1 = collocation_grid(n0, forcing.period1)

    def b_at(t2):
        return np.stack([forcing(point, t2) for point in t1]).ravel()

    def step(x, q_old, rhs_old, b_new):
        system.b = b_new
        system.q_old, system.rhs_old, system.h = q_old, rhs_old, h
        return core.solve(system, x.ravel()).x.reshape(x.shape)

    h = 2e-5
    x0 = np.tile(x_dc, (n0, 1))
    rhs_old, q_old = system.fast_terms(x0, b_at(0.0))
    x1 = step(x0, q_old, rhs_old, b_at(h))
    rhs_old, q_old = system.fast_terms(x1, b_at(h))
    b_new = b_at(2 * h)
    x2 = step(x1, q_old, rhs_old, b_new)
    rng = np.random.default_rng(7)
    z = (x2 * (1.0 + 1e-3 * rng.normal(size=x2.shape))).ravel()
    return system, z, (q_old, rhs_old, b_new, h)


class TestMpdeEnvelope:
    def test_matches_reference_formula(self, mixer):
        dae = mixer[0]
        system, z, (q_old, rhs_old, b_new, h) = mpde_step_case(mixer, dae)
        n = dae.n
        states = z.reshape(-1, n)
        d_big = kron_diffmat(system.diffmat, n, ordering="point")
        q = dae.q_batch(states).ravel()
        f = dae.f_batch(states).ravel()

        expected = (q - q_old) / h + 0.5 * (d_big @ q + f - b_new + rhs_old)
        scale = np.abs(q - q_old) / h + 0.5 * (
            derivative_terms(system.diffmat, q, n) + np.abs(f)
            + np.abs(b_new) + np.abs(rhs_old)
        )
        assert_within_rounding(system.residual(z), expected, scale)

    def test_residual_then_jacobian_evaluate_once(self, mixer):
        counting = CountingDae(mixer[0])
        system, z, _ = mpde_step_case(mixer, counting)
        counting.calls.clear()
        system.residual(z)
        system.jacobian(z)
        assert counting.calls == ONE_EVALUATION

    @pytest.mark.parametrize("theta", [0.5, 1.0], ids=["trap", "be"])
    def test_grouping_is_exact(self, mixer, theta):
        dae, forcing, _x_dc = mixer
        system, z, (q_old, rhs_old, b_new, h) = mpde_step_case(
            mixer, dae, theta
        )
        n = dae.n
        n0 = z.size // n
        states = z.reshape(n0, n)
        diffmat = fourier_differentiation_matrix(n0, forcing.period1)
        q, f = dae.qf_batch(states)
        fast = point_derivative(diffmat, q) + f.ravel() - b_new
        # The WaMPDE envelope's grouping.  The MPDE's own trapezoidal
        # grouping, 0.5 * (fast + rhs_old), differs from it in the last
        # bit of 2 of these 27 entries.
        expected = (
            (q.ravel() - q_old) / h + theta * fast + (1.0 - theta) * rhs_old
        )
        assert np.array_equal(system.residual(z), expected)
        dq = dae.dq_dx_batch(states)
        matrix = collocation_matrix(
            diffmat, dq, dae.df_dx_batch(states), outer=theta,
            diag_outer=dq * (1.0 / h),
        )
        assert np.array_equal(dense(system.jacobian(z)), matrix)
        # The old-time terms of the next step, at the same samples.
        rhs, q_flat = system.fast_terms(states, b_new)
        assert np.array_equal(rhs, fast)
        assert np.array_equal(q_flat, q.ravel())


# -- WaMPDE envelope step ----------------------------------------------------


class TestWampdeEnvelopeStep:
    def test_grouping_is_exact(self, vco_initial_condition):
        params, samples, f0 = vco_initial_condition
        dae = MemsVcoDae(params)
        n = dae.n
        num_t1 = samples.shape[0]
        diffmat = fourier_differentiation_matrix(num_t1, period=1.0)
        condition = as_phase_condition("fourier")
        phase_row = condition.gradient(num_t1, n)

        def fast_terms(states, omega, t2):
            q, f = dae.qf_batch(states)
            fast = (omega * point_derivative(diffmat, q) + f.ravel()
                    - np.tile(dae.b(t2), num_t1))
            return fast, q.ravel()

        options = WampdeEnvelopeOptions()
        theta = options.theta
        stepper = _EnvelopeStepper(dae, num_t1, options)
        h = 2e-7
        rhs_old, q_old = stepper.rhs_terms(samples, f0, 0.0)
        expected_rhs, expected_q = fast_terms(samples, f0, 0.0)
        assert np.array_equal(rhs_old, expected_rhs)
        assert np.array_equal(q_old, expected_q)
        x_new, omega_new, _ = stepper.step(samples, f0, q_old, rhs_old, h, h)
        rng = np.random.default_rng(11)
        states = x_new * (1.0 + 1e-3 * rng.normal(size=x_new.shape))
        omega = omega_new * 1.01
        z = np.append(states.ravel(), omega)
        x = z[:-1]

        q, f = dae.qf_batch(states)
        d1q = point_derivative(diffmat, q)
        expected = np.append(
            (q.ravel() - q_old) / h
            + theta * (omega * d1q + f.ravel() - np.tile(dae.b(h), num_t1))
            + (1.0 - theta) * rhs_old,
            phase_row @ x - condition.target,
        )
        system = stepper.system
        assert np.array_equal(system.residual(z), expected)
        dq = dae.dq_dx_batch(states)
        matrix = collocation_matrix(
            diffmat, dq, dae.df_dx_batch(states), scale=omega, outer=theta,
            diag_outer=dq * (1.0 / h), columns=(theta * d1q)[:, None],
            rows=phase_row[None, :],
        )
        assert np.array_equal(dense(system.jacobian(z)), matrix)


# -- bi-periodic WaMPDE ------------------------------------------------------


@pytest.fixture(scope="module")
def qp_case(vco_initial_condition):
    """The forced VCO's bi-periodic system on 5 t2 slices, and an iterate
    near the free-running cycle."""
    params, samples, f0 = vco_initial_condition
    forced = MemsVcoDae(params)
    n1 = 5

    def build(dae):
        system = WarpedCollocationSystem(
            dae, samples.shape[0], condition=as_phase_condition("fourier"),
            diffmat2=fourier_differentiation_matrix(
                n1, period=params.control_period
            ),
        )
        system.b = np.stack([
            np.tile(dae.b(t), samples.shape[0])
            for t in collocation_grid(n1, params.control_period)
        ]).ravel()
        return system

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
        n, n1, block, total = dae.n, system.num_t2, system.block, system.total
        states, omegas = z[:total].reshape(n1, -1, n), z[total:]
        flat_states = states.reshape(-1, n)
        d1_all = sp.kron(
            sp.identity(n1, format="csr"),
            kron_diffmat(system.diffmat, n, ordering="point"),
            format="csr",
        )
        d2_all = kron_diffmat(system.diffmat2, block, ordering="point")
        q = dae.q_batch(flat_states).ravel()
        f = dae.f_batch(flat_states).ravel()
        d1q = d1_all @ q
        omega_expand = np.repeat(omegas, block)
        condition = as_phase_condition("fourier")

        expected = np.concatenate([
            omega_expand * d1q + d2_all @ q + f - system.b,
            [condition.residual(states[i2]) for i2 in range(n1)],
        ])
        d1_terms = (
            np.abs(system.diffmat) @ np.abs(q).reshape(n1, -1, n)
        ).ravel()
        d2_terms = derivative_terms(system.diffmat2, q, block)
        scale = np.concatenate([
            omega_expand * d1_terms + d2_terms + np.abs(f)
            + np.abs(system.b),
            np.abs(z[:total]).reshape(n1, block)
            @ np.abs(system.phase_row),
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

    def test_grouping_is_exact(self, qp_case, vco_initial_condition):
        build, dae, z = qp_case
        system = build(dae)
        period2 = vco_initial_condition[0].control_period
        n = dae.n
        n0 = vco_initial_condition[1].shape[0]
        n1 = 5
        block = n0 * n
        total = n1 * block
        x, omegas = z[:total], z[total:]
        states = x.reshape(n1 * n0, n)
        diffmat1 = fourier_differentiation_matrix(n0, period=1.0)
        diffmat2 = fourier_differentiation_matrix(n1, period=period2)
        condition = as_phase_condition("fourier")
        phase_row = condition.gradient(n0, n)
        b = np.stack([
            np.tile(dae.b(t), n0) for t in collocation_grid(n1, period2)
        ]).ravel()
        q, f = dae.qf_batch(states)
        d1q = point_derivative(diffmat1, q)
        d2q = (diffmat2 @ q.ravel().reshape(n1, block)).ravel()

        expected = np.concatenate([
            np.repeat(omegas, block) * d1q + d2q + f.ravel() - b,
            x.reshape(n1, block) @ phase_row - condition.target,
        ])
        assert np.array_equal(system.residual(z), expected)
        coupling = (
            np.repeat(omegas, n0)[:, None] * np.kron(np.eye(n1), diffmat1)
            + np.kron(diffmat2, np.eye(n0))
        )
        columns = np.zeros((total, n1))
        for i2 in range(n1):
            rows = slice(i2 * block, (i2 + 1) * block)
            columns[rows, i2] = d1q[rows]
        matrix = collocation_matrix(
            coupling, dae.dq_dx_batch(states), dae.df_dx_batch(states),
            columns=columns, rows=np.kron(np.eye(n1), phase_row),
        )
        assert np.array_equal(dense(system.jacobian(z)), matrix)


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
