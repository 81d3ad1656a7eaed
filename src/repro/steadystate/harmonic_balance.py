"""Harmonic balance by pseudo-spectral time collocation.

Instead of the classical frequency-domain bookkeeping, we solve the periodic
problem on an odd uniform time grid with the spectral differentiation matrix
— mathematically identical to harmonic balance with the same number of
harmonics (the discrete Fourier transform is a bijection between the two
representations), but every device evaluation stays in the time domain where
nonlinearities are cheap.  This is the standard "mixed frequency-time"
trick the paper alludes to in §4.1.

* :func:`harmonic_balance_forced` — period known (driven circuits).
* :func:`harmonic_balance_autonomous` — period unknown; adds the frequency
  unknown and a :mod:`repro.phase_conditions` anchor, i.e. exactly the
  ``N1 = 1`` special case of the WaMPDE quasiperiodic system.

Both solvers are thin :class:`~repro.linalg.solver_core.CollocationSystem`
implementations driven by the shared
:class:`~repro.linalg.solver_core.SolverCore` (pass ``solver_options`` to
pick the chord policy, a GMRES linear solver or the recovery ladder); the
per-solve :class:`~repro.linalg.solver_core.SolverStats` are reported on
:attr:`HBResult.stats`.

The forced solver picks its linear-algebra route by size.  From
:data:`MATRIX_FREE_MIN_UNKNOWNS` unknowns on, a full-Newton solve with the
default linear solver and ladder solves each Newton step by GMRES on the
matrix-free Jacobian of :mod:`repro.linalg.spectral` (FFT products, the
period-averaged Jacobian as preconditioner) and never builds the dense
differentiation matrix; if GMRES misses its budget, the rest of the solve
assembles the Jacobian and factorises it by sparse LU.  Smaller problems,
chord mode, explicit ladders and any explicit ``linear_solver`` keep the
assembled route: ``linear_solver="lu"`` always assembles.  Both routes
evaluate the residual's ``D q`` by FFT.

The autonomous solver works on a diagonally equilibrated view of the DAE
(:class:`~repro.dae.scaled.ScaledDAE` with
:func:`~repro.dae.scaled.equilibration_scales` taken once from the seed),
so its inf-norm convergence tests and line search weigh, say, a MEMS force
balance and an inductor voltage equally; the solution it returns is in the
caller's units.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.dae.scaled import ScaledDAE, equilibration_scales
from repro.errors import ConvergenceError
from repro.grids import stack_states as _stack, unstack_states as _unstack
from repro.linalg.collocation import CollocationJacobianAssembler
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    SolverCore,
    SolverCoreOptions,
)
from repro.linalg.sparse_tools import kron_diffmat
from repro.linalg.spectral import (
    SpectralCollocationOperator,
    SpectralNewtonSolver,
)
from repro.phase_conditions import as_phase_condition
from repro.spectral.diffmat import (
    fourier_differentiation_matrix,
    spectral_derivative,
)
from repro.spectral.grid import collocation_grid
from repro.spectral.interpolation import TrigInterpolant
from repro.utils.validation import check_odd, check_positive

#: Unknowns (samples x variables) from which a forced-HB solve with the
#: default linear solver takes the matrix-free route.  On the RC-diode
#: rectifier (3 variables, 0.3 V drive, 7 Newton iterations, one core of a
#: 2-core x86 host) the assembled route wins at 453 unknowns (41 vs 52 ms
#: per solve) and loses at 525 (57 vs 40 ms).
MATRIX_FREE_MIN_UNKNOWNS = 500


@dataclass
class HBResult(SerializableMixin):
    """Solution of a harmonic-balance problem.

    Attributes
    ----------
    samples:
        Steady-state waveform samples, shape ``(N, n)``; row ``j`` is the
        state at phase ``j/N`` of the period.
    period:
        Oscillation period (the forcing period for forced problems).
    frequency:
        ``1 / period`` [Hz].
    newton_iterations:
        Newton iterations used.
    stats:
        Uniform solver counters (see
        :class:`repro.linalg.solver_core.SolverStats`).
    """

    samples: np.ndarray
    period: float
    newton_iterations: int
    stats: dict = field(default_factory=dict)

    @property
    def frequency(self):
        return 1.0 / self.period

    @property
    def num_samples(self):
        return self.samples.shape[0]

    def interpolant(self, variable):
        """Trigonometric interpolant of one variable over the period."""
        return TrigInterpolant(self.samples[:, variable], period=self.period)

    def evaluate(self, times):
        """All variables evaluated at arbitrary ``times`` (trig interp)."""
        times = np.asarray(times, dtype=float)
        columns = [
            self.interpolant(k)(times) for k in range(self.samples.shape[1])
        ]
        return np.stack(columns, axis=-1)


def _make_core(solver_options, newton_options, default_newton):
    """Build the SolverCore for one HB solve from the two option channels.

    Newton tolerances resolve in precedence order: an explicit
    ``newton_options`` (the historical knob), then an explicitly set
    ``solver_options.newton`` (the field defaults to ``None``, so any
    instance — stock included — counts as explicit), then the engine
    default.  All other ``solver_options`` fields pass through unchanged.
    """
    opts = solver_options or SolverCoreOptions()
    newton = newton_options or opts.newton or default_newton
    return SolverCore(replace(opts, newton=newton))


class _ForcedHBSystem(CollocationSystem):
    """Collocation system ``D q(x) + f(x) - b = 0`` on a known period.

    The residual differentiates ``q`` by FFT.  With ``matrix_free`` the
    Jacobian is a :class:`~repro.linalg.spectral.SpectralCollocationOperator`
    until its first assembly (a GMRES miss); otherwise it is assembled.
    ``D`` and the assembler are built on the first assembly.
    """

    def __init__(self, dae, num, period, matrix_free=False):
        self.dae = dae
        self.num = num
        self.n = dae.n
        self.period = period
        self.matrix_free = matrix_free
        self.b_flat = dae.b_batch(collocation_grid(num, period)).ravel()
        self.diffmat = None
        self.assembler = None

    def residual(self, vec):
        states = _unstack(vec, self.num, self.n)
        derivative = spectral_derivative(
            self.dae.q_batch(states), self.period, axis=0
        )
        return (derivative + self.dae.f_batch(states)).ravel() - self.b_flat

    def jacobian(self, vec):
        states = _unstack(vec, self.num, self.n)
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        if self.matrix_free:
            return SpectralCollocationOperator(dq, df, self.period,
                                               self._assemble)
        return self._assemble(dq, df)

    def _assemble(self, dq, df):
        # One assembly ends the matrix-free route for the rest of the solve.
        self.matrix_free = False
        if self.assembler is None:
            self.diffmat = fourier_differentiation_matrix(self.num, self.period)
            self.assembler = CollocationJacobianAssembler(
                self.num, self.n, dq_mask=self.dae.dq_structure(),
                df_mask=self.dae.df_structure(),
            )
        return self.assembler.refresh(self.diffmat, dq, diag_inner=df)

    def structure(self):
        return {"num_points": self.num, "n_vars": self.n,
                "num_border": 0, "size": self.num * self.n}


def _warm_hb_samples(warm_start, num, n):
    """Warm-start waveform resampled onto the ``(num, n)`` HB grid.

    Accepts any object with a ``samples`` attribute (typically
    :class:`repro.service.cache.WarmStart`); a sample count mismatch is
    bridged by periodic linear resampling along the phase axis, so a seed
    settled at one collocation count still shortens Newton at another.
    """
    samples = getattr(warm_start, "samples", None) if warm_start else None
    if samples is None:
        return None
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != n:
        return None
    if samples.shape[0] == num:
        return samples
    m = samples.shape[0]
    phase_old = np.arange(m + 1) / m
    phase_new = np.arange(num) / num
    wrapped = np.vstack([samples, samples[:1]])
    return np.stack(
        [np.interp(phase_new, phase_old, wrapped[:, k]) for k in range(n)],
        axis=1,
    )


def harmonic_balance_forced(dae, period, num_samples=31, initial=None,
                            newton_options=None, solver_options=None,
                            warm_start=None):
    """Periodic steady state of a forced system via time collocation.

    Parameters
    ----------
    dae:
        The system; its ``b(t)`` must be ``period``-periodic for the result
        to be meaningful.
    period:
        Forcing period.
    num_samples:
        Odd collocation count (2M+1 → M harmonics).
    initial:
        Optional ``(N, n)`` starting waveform (e.g. transient samples).
    newton_options:
        Newton tolerances/budgets (historical knob).
    solver_options:
        :class:`repro.linalg.solver_core.SolverCoreOptions` — Newton
        policy, linear solver and recovery ladder.  With the defaults, a
        problem of at least :data:`MATRIX_FREE_MIN_UNKNOWNS` unknowns
        (``num_samples * dae.n``) takes the matrix-free GMRES route (see
        the module docstring); ``linear_solver="lu"`` forces the assembled
        Jacobian and sparse LU at any size.
    warm_start:
        Optional warm-start seed (duck-typed; ``samples`` supplies the
        starting waveform when ``initial`` is ``None``).

    Returns
    -------
    HBResult
        ``stats`` holds the :class:`~repro.linalg.solver_core.SolverStats`
        keys: ``solves``, ``iterations``, ``residual_evaluations``,
        ``jacobian_refreshes``, ``factorizations`` (sparse LU of assembled
        Jacobians: 0 on a matrix-free solve without a miss),
        ``krylov_iterations`` (GMRES inner iterations: 0 on the assembled
        route), ``fallbacks`` and ``wall_time_s``.
    """
    check_positive(period, "period")
    num = check_odd(num_samples, "num_samples")
    n = dae.n
    opts = solver_options or SolverCoreOptions()
    matrix_free = (
        opts.linear_solver is None
        and opts.mode == "full"
        and opts.ladder in (None, "default")
        and num * n >= MATRIX_FREE_MIN_UNKNOWNS
    )
    if matrix_free:
        opts = replace(opts, linear_solver=SpectralNewtonSolver())
    system = _ForcedHBSystem(dae, num, period, matrix_free)

    if initial is None:
        initial = _warm_hb_samples(warm_start, num, n)
    if initial is None:
        x0 = np.zeros((num, n))
    else:
        x0 = np.asarray(initial, dtype=float)
        if x0.shape != (num, n):
            raise ValueError(
                f"initial must have shape {(num, n)}, got {x0.shape}"
            )
    core = _make_core(
        opts, newton_options, NewtonOptions(atol=1e-9, max_iterations=60),
    )
    result = core.solve(system, _stack(x0))
    return HBResult(
        _unstack(result.x, num, n), float(period), result.iterations,
        core.stats.as_dict(),
    )


class _AutonomousHBSystem(CollocationSystem):
    """Bordered system: ``nu * D1 q + f - b = 0`` plus a phase anchor."""

    def __init__(self, dae, num, condition, forcing_time):
        self.dae = dae
        self.num = num
        self.n = dae.n
        self.condition = condition
        self.phase_row = condition.gradient(num, self.n)
        self.b_const = np.tile(dae.b(forcing_time), num)
        self.diffmat = fourier_differentiation_matrix(num, period=1.0)
        self.d_big = kron_diffmat(self.diffmat, self.n, ordering="point")
        self.assembler = CollocationJacobianAssembler(
            num,
            self.n,
            dq_mask=dae.dq_structure(),
            df_mask=dae.df_structure(),
            num_border=1,
        )

    def residual(self, vec):
        states = _unstack(vec[:-1], self.num, self.n)
        nu = vec[-1]
        q_flat = _stack(self.dae.q_batch(states))
        f_flat = _stack(self.dae.f_batch(states))
        core = nu * (self.d_big @ q_flat) + f_flat - self.b_const
        return np.concatenate([core, [self.condition.residual(states)]])

    def jacobian(self, vec):
        states = _unstack(vec[:-1], self.num, self.n)
        nu = vec[-1]
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        q_flat = _stack(self.dae.q_batch(states))
        freq_column = self.d_big @ q_flat
        # nu * (d_big @ dq) + df, bordered by frequency column + phase row.
        return self.assembler.refresh(
            self.diffmat,
            dq,
            diag_inner=df,
            coupling_scale=nu,
            border_columns=freq_column[:, None],
            border_rows=self.phase_row[None, :],
        )

    def structure(self):
        return {"num_points": self.num, "n_vars": self.n,
                "num_border": 1, "size": self.num * self.n + 1}


def harmonic_balance_autonomous(dae, frequency_guess, initial=None,
                                phase_condition="fourier",
                                phase_variable=0, num_samples=31,
                                newton_options=None, forcing_time=0.0,
                                solver_options=None, warm_start=None):
    """Limit cycle *and* frequency of an autonomous oscillator.

    Works in normalised time ``t1 in [0, 1)`` where the waveform has period
    1; the physical problem is ``nu * d/dt1 q(xhat) + f(xhat) = b`` with the
    frequency ``nu`` unknown.  One phase-condition row (see
    :mod:`repro.phase_conditions`) closes the system; the bordered Jacobian
    (collocation core + frequency column + phase row) is assembled with the
    pattern-reuse
    :class:`~repro.linalg.collocation.CollocationJacobianAssembler`.

    Newton runs on the DAE equilibrated by
    :func:`~repro.dae.scaled.equilibration_scales` at the seed waveform and
    ``frequency_guess``: unknowns are divided by ``S``, equations
    multiplied by ``R``, and ``nu`` is left unscaled.  A solution does not
    depend on the choice of units, and ``newton_options.atol`` bounds the
    *equilibrated* residual (each collocation equation measured relative to
    its largest Jacobian term).

    Parameters
    ----------
    dae:
        Autonomous system; ``b`` is evaluated at ``forcing_time`` and held
        constant (pass the unforced variant of a forced circuit).
    frequency_guess:
        Starting frequency [Hz].
    initial:
        ``(N, n)`` starting waveform on the normalised grid — autonomous HB
        has no useful zero initial guess (zero is the unstable equilibrium),
        so a starting waveform is required, either here or via
        ``warm_start``; transient samples work well.
    phase_condition:
        Spec accepted by :func:`repro.phase_conditions.as_phase_condition`.
    phase_variable:
        Variable the default phase condition applies to.
    solver_options:
        :class:`repro.linalg.solver_core.SolverCoreOptions` — Newton
        policy, linear solver and recovery ladder.
    warm_start:
        Optional warm-start seed (duck-typed): ``samples`` supplies the
        waveform when ``initial`` is ``None``, and ``omega0`` overrides a
        missing ``frequency_guess`` (pass ``frequency_guess=None``).

    Returns
    -------
    HBResult
        With ``period = 1 / nu`` and samples on the normalised grid.
    """
    if frequency_guess is None and warm_start is not None:
        frequency_guess = getattr(warm_start, "omega0", None)
    check_positive(frequency_guess, "frequency_guess")
    num = check_odd(num_samples, "num_samples")
    n = dae.n
    condition = as_phase_condition(phase_condition, variable=phase_variable)

    if initial is None:
        initial = _warm_hb_samples(warm_start, num, n)
    if initial is None:
        raise ValueError(
            "autonomous HB needs a starting waveform: pass initial= or a "
            "warm_start carrying samples"
        )
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (num, n):
        raise ValueError(f"initial must have shape {(num, n)}, got {initial.shape}")

    scale, equation_scale = equilibration_scales(dae, initial, frequency_guess)
    if condition.target:
        condition = copy.copy(condition)
        condition.target /= scale[condition.variable]
    system = _AutonomousHBSystem(
        ScaledDAE(dae, variable_scale=scale, equation_scale=equation_scale),
        num, condition, forcing_time,
    )
    z0 = np.concatenate([_stack(initial / scale), [float(frequency_guess)]])
    core = _make_core(
        solver_options, newton_options,
        NewtonOptions(atol=1e-9, max_iterations=80),
    )
    result = core.solve(system, z0)
    nu = float(result.x[-1])
    if nu <= 0:
        raise ConvergenceError(
            f"autonomous HB converged to non-positive frequency {nu:g}; "
            "the initial waveform probably collapsed to the DC equilibrium"
        )
    samples = _unstack(result.x[:-1], num, n) * scale
    return HBResult(samples, 1.0 / nu, result.iterations,
                    core.stats.as_dict())
