"""Bi-periodic MPDE boundary-value solver (AM-quasiperiodic steady state).

:func:`solve_mpde_quasiperiodic` solves ``(D1 + D2) q(x) + f(x) - b = 0``
on the ``N1 x N0`` tensor grid of the two forcing periods, the 2-D case of
:class:`~repro.linalg.spectral.PeriodicCollocationSystem` (forced harmonic
balance is the 1-D case).  The residual differentiates ``q`` by FFT along
both axes.  The linear-algebra route follows the rule forced harmonic
balance uses (:func:`~repro.linalg.spectral.takes_matrix_free_route`).
From :data:`~repro.linalg.spectral.MATRIX_FREE_MIN_COUPLING` point-coupling
nonzeros on (``N1 N0 (N1 + N0 - 1)``; from a 19 x 19 grid when square), a
full-Newton solve with the default linear solver and ladder solves each
Newton step inexactly by GMRES on the matrix-free Jacobian, preconditioned
by the Jacobian averaged along the axis where it varies least and exact
along the other.  Nothing of size ``(N1 N0)²`` is built unless GMRES misses
its budget; then the rest of the solve assembles the Jacobian and
factorises it by sparse LU.  Smaller grids, chord mode, explicit ladders
and any explicit ``linear_solver`` keep the assembled route:
``linear_solver="lu"`` always assembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import SimulationError
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverOptionsMixin, core_from_options
from repro.linalg.spectral import (
    PeriodicCollocationSystem,
    SpectralNewtonSolver,
    takes_matrix_free_route,
)
from repro.spectral.grid import collocation_grid
from repro.utils.validation import check_odd
from repro.wampde.bivariate import BivariateWaveform


@dataclass
class MpdeQuasiperiodicOptions(SolverOptionsMixin):
    """Configuration for :func:`solve_mpde_quasiperiodic`.

    The ``newton``/``linear_solver``/``ladder`` fields come
    from the shared
    :class:`~repro.linalg.solver_core.SolverOptionsMixin`;
    ``newton_mode`` selects the
    :class:`repro.linalg.solver_core.SolverCore` Newton policy.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(atol=1e-9, max_iterations=60)
    )
    newton_mode: str = "full"


class MpdeQuasiperiodicResult(SerializableMixin):
    """Bi-periodic MPDE solution.

    Attributes
    ----------
    t1, t2:
        Collocation grids on ``[0, T1)`` and ``[0, T2)``.
    samples:
        Shape ``(N1, N0, n)``.
    variable_names:
        Labels for the trailing axis.
    """

    def __init__(self, t1, t2, period1, period2, samples, variable_names,
                 newton_iterations, stats=None):
        self.t1 = np.asarray(t1, dtype=float)
        self.t2 = np.asarray(t2, dtype=float)
        self.period1 = float(period1)
        self.period2 = float(period2)
        self.samples = np.asarray(samples, dtype=float)
        self.variable_names = tuple(variable_names)
        self.newton_iterations = int(newton_iterations)
        self.stats = dict(stats or {})

    def bivariate(self, key):
        """Bivariate waveform (t2 axis wrapped for interpolation).

        Evaluation through this container is spectral in t1 but linear in
        t2; use :meth:`interpolant` for full bi-spectral accuracy.
        """
        if isinstance(key, str):
            key = self.variable_names.index(key)
        t2_ext = np.concatenate([self.t2, [self.period2]])
        data = np.vstack([self.samples[:, :, key], self.samples[:1, :, key]])
        return BivariateWaveform(
            t2_ext,
            data,
            name=self.variable_names[key],
            t1_period=self.period1,
        )

    def interpolant(self, key):
        """Bi-periodic trigonometric interpolant (spectral in both axes)."""
        from repro.spectral import BiTrigInterpolant

        if isinstance(key, str):
            key = self.variable_names.index(key)
        return BiTrigInterpolant(
            self.samples[:, :, key], self.period1, self.period2
        )

    def reconstruct(self, key, times):
        """Univariate ``x(t) = xhat(t mod T1, t mod T2)`` (paper Fig 3 path)."""
        times = np.asarray(times, dtype=float)
        return self.interpolant(key)(times, times)


def solve_mpde_quasiperiodic(dae, forcing, num_t1=15, num_t2=15,
                             initial=None, options=None):
    """Solve the bi-periodic MPDE collocation system.

    Parameters
    ----------
    dae:
        System providing ``q``/``f`` and Jacobians (its own ``b`` is
        ignored; the bivariate ``forcing`` replaces it).
    forcing:
        A :class:`~repro.mpde.forcing.BivariateForcing`.
    num_t1, num_t2:
        Odd collocation counts along the fast/slow axes.
    initial:
        Optional ``(N1, N0, n)`` or ``(n,)`` starting guess (a DC point is
        broadcast across the grid).
    options:
        :class:`MpdeQuasiperiodicOptions`.  With the defaults, a grid of at
        least :data:`~repro.linalg.spectral.MATRIX_FREE_MIN_COUPLING`
        point-coupling nonzeros takes the matrix-free GMRES route (see the
        module docstring); ``linear_solver="lu"`` forces the assembled
        Jacobian and sparse LU at any size.

    Returns
    -------
    MpdeQuasiperiodicResult
        ``stats`` holds the :class:`~repro.linalg.solver_core.SolverStats`
        keys; ``factorizations`` is 0 and ``krylov_iterations`` positive on
        a matrix-free solve without a GMRES miss.
    """
    opts = options or MpdeQuasiperiodicOptions()
    n0 = check_odd(num_t1, "num_t1")
    n1 = check_odd(num_t2, "num_t2")
    n = dae.n
    if forcing.n != n:
        raise SimulationError(
            f"forcing has length {forcing.n}, DAE has {n} unknowns"
        )

    t1_grid = collocation_grid(n0, forcing.period1)
    t2_grid = collocation_grid(n1, forcing.period2)
    b_grid = forcing.grid(t1_grid, t2_grid)  # (N1, N0, n)

    if initial is None:
        z0 = np.zeros(n1 * n0 * n)
    else:
        initial = np.asarray(initial, dtype=float)
        if initial.shape == (n,):
            z0 = np.tile(initial, n1 * n0)
        elif initial.shape == (n1, n0, n):
            z0 = initial.ravel().copy()
        else:
            raise SimulationError(
                f"initial must have shape ({n},) or ({n1}, {n0}, {n}), "
                f"got {initial.shape}"
            )

    grid = (n1, n0)
    matrix_free = takes_matrix_free_route(
        grid, opts.linear_solver, opts.newton_mode, opts.ladder
    )
    if matrix_free:
        opts = replace(opts, linear_solver=SpectralNewtonSolver())
    system = PeriodicCollocationSystem(
        dae, grid, (forcing.period2, forcing.period1),
        np.asarray(b_grid, dtype=float).ravel(), matrix_free,
    )
    core = core_from_options(opts)
    result = core.solve(system, z0)
    samples = result.x.reshape(n1, n0, n)
    return MpdeQuasiperiodicResult(
        t1_grid,
        t2_grid,
        forcing.period1,
        forcing.period2,
        samples,
        dae.variable_names,
        result.iterations,
        core.stats.as_dict(),
    )
