"""WaMPDE with periodic boundary conditions in the slow time (paper §4.1).

Solves for ``xhat(t1, t2)`` that is (1, T2)-periodic together with the
T2-periodic local frequency ``omega(t2)`` — the representation that
captures FM- and AM-quasiperiodicity, mode locking (``omega`` constant and
equal to the forcing frequency) and period multiplication (``omega`` a
submultiple) as special cases, per the paper's §4.1 discussion.

Discretisation: spectral collocation on an odd ``N0 x N1`` tensor grid
(both axes periodic), one phase-condition row per t2 point, Newton on the
full coupled system.  A residual costs one batched ``qf_batch`` evaluation,
the dense products ``D1 @ Q`` within each t2 slice and ``D2 @ Q`` across
slices, and one product with the phase row for all slices; the Jacobian's
frequency columns reuse the memoised ``D1 q``
(:class:`~repro.linalg.collocation.IterateEvaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import SimulationError
from repro.linalg.collocation import IterateEvaluation, collocation_assembler
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    SolverOptionsMixin,
    core_from_options,
)
from repro.phase_conditions import as_phase_condition
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.spectral.grid import collocation_grid
from repro.utils.validation import check_odd, check_positive
from repro.wampde.bivariate import BivariateWaveform
from repro.wampde.warping import WarpingFunction


@dataclass
class WampdeQuasiperiodicOptions(SolverOptionsMixin):
    """Configuration for :func:`solve_wampde_quasiperiodic`.

    The ``newton``/``linear_solver``/``ladder`` fields come from the
    shared :class:`~repro.linalg.solver_core.SolverOptionsMixin`;
    ``newton_mode`` selects the
    :class:`repro.linalg.solver_core.SolverCore` Newton policy.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(atol=1e-8, max_iterations=60)
    )
    phase_condition: object = "fourier"
    phase_variable: int = 0
    newton_mode: str = "full"


class WampdeQuasiperiodicResult(SerializableMixin):
    """Bi-periodic WaMPDE solution.

    Attributes
    ----------
    t2:
        Slow-time collocation grid on ``[0, T2)``, shape ``(N1,)``.
    period2:
        Slow period ``T2``.
    omega:
        T2-periodic local frequency at the grid points [Hz].
    samples:
        Solution grid, shape ``(N1, N0, n)``.
    variable_names:
        Labels for the trailing axis.
    newton_iterations:
        Newton iterations used.
    """

    def __init__(self, t2, period2, omega, samples, variable_names,
                 newton_iterations, stats=None):
        self.t2 = np.asarray(t2, dtype=float)
        self.period2 = float(period2)
        self.omega = np.asarray(omega, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.variable_names = tuple(variable_names)
        self.newton_iterations = int(newton_iterations)
        self.stats = dict(stats or {})

    @property
    def mean_frequency(self):
        """The constant part ``omega_0`` of eq. (21) [Hz]."""
        return float(np.mean(self.omega))

    def frequency_modulation_depth(self):
        """Peak deviation of ``omega`` from its mean, normalised [—]."""
        mean = self.mean_frequency
        if mean == 0:
            return float("inf")
        return float(np.max(np.abs(self.omega - mean)) / abs(mean))

    def is_mode_locked(self, forcing_frequency, rtol=1e-3):
        """Entrainment test: omega constant and equal to the forcing rate."""
        return (
            self.frequency_modulation_depth() < rtol
            and abs(self.mean_frequency - forcing_frequency)
            < rtol * forcing_frequency
        )

    def bivariate(self, key):
        """Bivariate waveform with the t2 axis extended one wrap point."""
        if isinstance(key, str):
            key = self.variable_names.index(key)
        t2_ext = np.concatenate([self.t2, [self.period2]])
        data = np.vstack([self.samples[:, :, key], self.samples[:1, :, key]])
        return BivariateWaveform(t2_ext, data, name=self.variable_names[key])

    def warping(self, num_periods=1, phi0=0.0):
        """Warping function over ``num_periods`` repetitions of T2."""
        knots = [self.t2 + m * self.period2 for m in range(num_periods)]
        knots.append(np.array([num_periods * self.period2]))
        times = np.concatenate(knots)
        omegas = np.concatenate(
            [np.tile(self.omega, num_periods), [self.omega[0]]]
        )
        return WarpingFunction(times, omegas, phi0=phi0)

    def reconstruct(self, key, times):
        """Univariate ``x(t)`` over any time range (uses T2-periodicity)."""
        times = np.asarray(times, dtype=float)
        num_periods = int(np.ceil(times.max() / self.period2)) + 1
        warping = self.warping(num_periods=num_periods)
        waveform = self.bivariate(key)
        t1 = np.mod(warping.phi(times), 1.0)
        t2 = np.mod(times, self.period2)
        return waveform(t1, t2)


def envelope_to_quasiperiodic_guess(envelope_result, period2, num_t2,
                                    tail_start=None):
    """Build a quasiperiodic initial guess from a settled envelope run.

    The natural continuation strategy: after an envelope simulation has
    settled into its T2-periodic steady response, resample its last
    forcing period onto the quasiperiodic collocation grid.  Newton on
    the bi-periodic BVP then typically converges in a couple of
    iterations (cold starts from a t2-constant guess often fail for
    strongly modulated oscillators).

    Parameters
    ----------
    envelope_result:
        A :class:`repro.wampde.envelope.WampdeEnvelopeResult` whose tail
        is (close to) T2-periodic.
    period2:
        The forcing period T2.
    num_t2:
        Odd collocation count of the target quasiperiodic solve.
    tail_start:
        Absolute t2 where the sampled period begins; defaults to the last
        full forcing period, aligned to a multiple of T2 so the forcing
        phase of the guess matches the collocation grid.

    Returns
    -------
    tuple
        ``(initial_samples, omega0)`` shaped for
        :func:`solve_wampde_quasiperiodic`.
    """
    check_positive(period2, "period2")
    n1 = check_odd(num_t2, "num_t2")
    t2 = envelope_result.t2
    if tail_start is None:
        periods_in = int(np.floor((t2[-1] - t2[0]) / period2))
        if periods_in < 1:
            raise SimulationError(
                "envelope run is shorter than one forcing period; cannot "
                "extract a periodic tail"
            )
        tail_start = t2[0] + (periods_in - 1) * period2
    grid = collocation_grid(n1, period2)
    samples = np.empty(
        (n1,) + envelope_result.samples.shape[1:], dtype=float
    )
    omegas = np.empty(n1)
    for i, tau in enumerate(grid):
        t_abs = min(tail_start + tau, t2[-1])
        row = int(np.clip(np.searchsorted(t2, t_abs), 0, t2.size - 1))
        samples[i] = envelope_result.samples[row]
        omegas[i] = envelope_result.local_frequency(t_abs)
    return samples, omegas


class _QuasiperiodicSystem(CollocationSystem):
    """Bi-periodic WaMPDE system: N1 frequency unknowns + N1 phase rows.

    Core residual: ``omega(t2_i) * D1 q + D2 q + f - b(t2)`` over the
    flattened ``(N1, N0)`` grid, bordered by one frequency column and one
    phase-condition row per t2 slice.
    """

    def __init__(self, dae, period2, n0, n1, condition):
        self.dae = dae
        self.n0 = n0
        self.n1 = n1
        self.n = dae.n
        # The condition is linear: residual = phase_row . x - target.
        self.phase_row_block = condition.gradient(n0, self.n)
        self.target = condition.target
        self.block = n0 * self.n  # unknowns per t2 point
        self.total = n1 * self.block

        t2_grid = collocation_grid(n1, period2)
        self.diffmat1 = fourier_differentiation_matrix(n0, period=1.0)
        self.diffmat2 = fourier_differentiation_matrix(n1, period=period2)
        self.b_flat = np.stack(
            [np.tile(dae.b(t), n0) for t in t2_grid]
        ).ravel()
        # Flat q, f and D1 q (within each t2 slice), memoised on the
        # samples: jacobian(z) takes its frequency columns from the
        # residual just evaluated.
        self._evaluate = IterateEvaluation(dae, self.diffmat1)
        # One phase row per t2 slice, on that slice's unknowns.
        self.phase_rows = np.kron(np.eye(n1), self.phase_row_block)

        # Point-coupling matrices over the flattened (t2, t1) grid: the
        # fast axis couples points within one t2 slice, the slow axis
        # couples equal t1 indices across slices.  Their combination
        # drives the pattern-reuse Jacobian assembly (see
        # repro.linalg.collocation).
        self.w1 = np.kron(np.eye(n1), self.diffmat1)
        self.w2 = np.kron(self.diffmat2, np.eye(n0))
        self.assembler = collocation_assembler(
            n1 * n0,
            self.n,
            dq_mask=dae.dq_structure(),
            df_mask=dae.df_structure(),
            coupling_mask=(self.w1 != 0.0) | (self.w2 != 0.0),
            num_border=n1,
        )

    def split(self, z):
        states = z[:self.total].reshape(self.n1, self.n0, self.n)
        omegas = z[self.total:]
        return states, omegas

    def residual(self, z):
        states, omegas = self.split(z)
        flat_states = states.reshape(self.n1 * self.n0, self.n)
        q_flat, f_flat, d1q = self._evaluate(flat_states)
        d2q = (self.diffmat2 @ q_flat.reshape(self.n1, self.block)).ravel()
        core = (
            np.repeat(omegas, self.block) * d1q + d2q + f_flat - self.b_flat
        )
        phase = (
            z[:self.total].reshape(self.n1, self.block) @ self.phase_row_block
            - self.target
        )
        return np.concatenate([core, phase])

    def jacobian(self, z):
        n1, block, total = self.n1, self.block, self.total
        states, omegas = self.split(z)
        flat_states = states.reshape(n1 * self.n0, self.n)
        dq = self.dae.dq_dx_batch(flat_states)
        df = self.dae.df_dx_batch(flat_states)
        # omega(t2) row-scales the fast-axis coupling only.
        coupling = np.repeat(omegas, self.n0)[:, None] * self.w1 + self.w2

        _q_flat, _f_flat, d1q = self._evaluate(flat_states)
        columns = np.zeros((total, n1))
        for i2 in range(n1):
            sl = slice(i2 * block, (i2 + 1) * block)
            columns[sl, i2] = d1q[sl]

        return self.assembler.refresh(
            coupling,
            dq,
            diag_inner=df,
            border_columns=columns,
            border_rows=self.phase_rows,
        )

    def structure(self):
        return {"num_points": self.n1 * self.n0, "n_vars": self.n,
                "num_border": self.n1, "size": self.total + self.n1}


def solve_wampde_quasiperiodic(dae, period2, initial_samples, omega0,
                               num_t2=15, options=None, warm_start=None):
    """Solve the bi-periodic WaMPDE boundary-value problem.

    Parameters
    ----------
    dae:
        Forced autonomous system; ``b(t)`` must be ``period2``-periodic.
    period2:
        The forcing (slow) period T2.
    initial_samples:
        Starting guess: either ``(N0, n)`` — replicated across t2 — or a
        full ``(N1, N0, n)`` grid.  Use the unforced oscillator's HB
        solution.
    omega0:
        Starting local frequency [Hz] (scalar or length-``N1``).
    num_t2:
        Odd number of t2 collocation points ``N1``.
    options:
        :class:`WampdeQuasiperiodicOptions`.
    warm_start:
        Optional warm-start seed (duck-typed, typically
        :class:`repro.service.cache.WarmStart`): ``samples``/``omega0``
        supply the starting guess when the corresponding arguments are
        passed as ``None``.

    Returns
    -------
    WampdeQuasiperiodicResult
    """
    opts = options or WampdeQuasiperiodicOptions()
    check_positive(period2, "period2")
    n1 = check_odd(num_t2, "num_t2")

    if warm_start is not None:
        if initial_samples is None:
            initial_samples = getattr(warm_start, "samples", None)
        if omega0 is None:
            omega0 = getattr(warm_start, "omega0", None)
    if initial_samples is None or omega0 is None:
        raise SimulationError(
            "initial_samples and omega0 are required (directly or via "
            "warm_start)"
        )
    initial_samples = np.asarray(initial_samples, dtype=float)
    if initial_samples.ndim == 2:
        initial_samples = np.broadcast_to(
            initial_samples[None], (n1,) + initial_samples.shape
        ).copy()
    if initial_samples.ndim != 3 or initial_samples.shape[0] != n1:
        raise SimulationError(
            f"initial_samples must be (N0, n) or ({n1}, N0, n), got "
            f"{initial_samples.shape}"
        )
    _, n0, n = initial_samples.shape
    check_odd(n0, "N0 (t1 samples)")
    if n != dae.n:
        raise SimulationError(
            f"initial_samples has {n} variables, DAE has {dae.n}"
        )

    omega0 = np.asarray(omega0, dtype=float).ravel()
    if omega0.size == 1:
        omega0 = np.full(n1, omega0[0])
    if omega0.size != n1:
        raise SimulationError(
            f"omega0 must be scalar or length {n1}, got {omega0.size}"
        )

    condition = as_phase_condition(opts.phase_condition, opts.phase_variable)
    t2_grid = collocation_grid(n1, period2)

    system = _QuasiperiodicSystem(dae, period2, n0, n1, condition)
    core = core_from_options(opts)
    z0 = np.concatenate([initial_samples.ravel(), omega0])
    result = core.solve(system, z0)
    states, omegas = system.split(result.x)
    if np.any(omegas <= 0):
        raise SimulationError(
            "quasiperiodic WaMPDE converged to non-positive local frequency"
        )
    return WampdeQuasiperiodicResult(
        t2_grid, period2, omegas, states, dae.variable_names,
        result.iterations, core.stats.as_dict(),
    )
