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
  ``N1 = 1`` special case of the WaMPDE quasiperiodic system, and it solves
  that system: one slice of
  :class:`~repro.linalg.collocation.WarpedCollocationSystem` with neither a
  t2 derivative nor a t2 step.

Both solvers are :class:`~repro.linalg.solver_core.CollocationSystem`
implementations driven by the shared
:class:`~repro.linalg.solver_core.SolverCore` (pass ``solver_options`` to
pick the chord policy, a GMRES linear solver or the recovery ladder); the
per-solve :class:`~repro.linalg.solver_core.SolverStats` are reported on
:attr:`HBResult.stats`.

The forced solver picks its linear-algebra route by size, by the rule it
shares with the bi-periodic MPDE
(:func:`~repro.linalg.spectral.takes_matrix_free_route`).  From
:data:`~repro.linalg.spectral.MATRIX_FREE_MIN_COUPLING` point-coupling
nonzeros on (``N²`` for ``N`` samples), a full-Newton solve with the
default linear solver and ladder solves each Newton step inexactly, by
GMRES on the matrix-free Jacobian of :mod:`repro.linalg.spectral` (FFT
products, the period-averaged Jacobian as preconditioner, Eisenstat–Walker
forcing terms), and never builds the dense differentiation matrix; if
GMRES misses its budget, the rest of the solve assembles the Jacobian and
factorises it by sparse LU.  Smaller problems, chord mode, explicit ladders
and any explicit ``linear_solver`` keep the assembled route:
``linear_solver="lu"`` always assembles.  Both routes evaluate the
residual's ``D q`` by FFT.

The autonomous solver works on a diagonally equilibrated view of the DAE
(:class:`~repro.dae.scaled.ScaledDAE` with
:func:`~repro.dae.scaled.equilibration_scales` taken once from the seed),
so its inf-norm convergence tests and line search weigh, say, a MEMS force
balance and an inductor voltage equally; the solution it returns is in the
caller's units.  Each of its residuals costs one batched ``qf_batch``
evaluation, a dense derivative ``D1 @ Q`` of the ``(N, n)`` charge samples
and a dot with the stored phase row; the Jacobian at the same iterate takes
its frequency column from that memoised ``D1 q``
(:class:`~repro.linalg.collocation.IterateEvaluation`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.dae.scaled import ScaledDAE, equilibration_scales
from repro.errors import ConvergenceError
from repro.grids import stack_states as _stack, unstack_states as _unstack
from repro.linalg.collocation import WarpedCollocationSystem
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverCore, SolverCoreOptions
from repro.linalg.spectral import (
    PeriodicCollocationSystem,
    SpectralNewtonSolver,
    takes_matrix_free_route,
)
from repro.phase_conditions import as_phase_condition
from repro.spectral.grid import collocation_grid
from repro.spectral.interpolation import TrigInterpolant
from repro.utils.validation import check_odd, check_positive


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


class _ForcedHBSystem(PeriodicCollocationSystem):
    """Collocation system ``D q(x) + f(x) - b = 0`` on a known period."""

    def __init__(self, dae, num, period, matrix_free=False):
        super().__init__(
            dae, (num,), (period,),
            dae.b_batch(collocation_grid(num, period)).ravel(), matrix_free,
        )


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
        problem of at least
        :data:`~repro.linalg.spectral.MATRIX_FREE_MIN_COUPLING`
        ``num_samples²`` takes the matrix-free GMRES route (see the module
        docstring); ``linear_solver="lu"`` forces the assembled Jacobian
        and sparse LU at any size.
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
    matrix_free = takes_matrix_free_route(
        (num,), opts.linear_solver, opts.mode, opts.ladder
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
    (collocation core + frequency column + phase row) is assembled by
    :func:`~repro.linalg.collocation.collocation_assembler` (dense at the
    usual sizes, sparse with pattern reuse for large circuits).

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
    scaled = ScaledDAE(dae, variable_scale=scale,
                       equation_scale=equation_scale)
    system = WarpedCollocationSystem(scaled, num, condition=condition)
    system.b = np.tile(scaled.b(forcing_time), num)
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
