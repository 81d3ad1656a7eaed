"""Bi-periodic MPDE boundary-value solver (AM-quasiperiodic steady state)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.api.serialize import SerializableMixin
from repro.errors import SimulationError
from repro.linalg.collocation import CollocationJacobianAssembler
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    SolverOptionsMixin,
    core_from_options,
)
from repro.linalg.sparse_tools import kron_diffmat
from repro.spectral.diffmat import fourier_differentiation_matrix
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


class _BiperiodicSystem(CollocationSystem):
    """Bi-periodic MPDE collocation system for the shared solver core.

    The residual is ``(D1 + D2) q(x) + f(x) - b`` over the flattened
    ``(N1, N0)`` tensor grid; the Jacobian is assembled pattern-reuse from
    the dense point-coupling matrix of ``D1 + D2``.
    """

    def __init__(self, dae, forcing, n0, n1, b_grid):
        self.dae = dae
        self.n0 = n0
        self.n1 = n1
        self.n = dae.n
        block = n0 * self.n
        diffmat1 = fourier_differentiation_matrix(n0, forcing.period1)
        diffmat2 = fourier_differentiation_matrix(n1, forcing.period2)
        d1_all = sp.kron(
            sp.identity(n1, format="csr"),
            kron_diffmat(diffmat1, self.n, ordering="point"),
            format="csr",
        )
        d2_all = kron_diffmat(diffmat2, block, ordering="point")
        self.d_sum = (d1_all + d2_all).tocsr()
        # Dense point-coupling matrix of d_sum for the pattern-reuse
        # assembler.
        self.coupling = (
            np.kron(np.eye(n1), diffmat1)
            + np.kron(diffmat2, np.eye(n0))
        )
        self.assembler = CollocationJacobianAssembler(
            n1 * n0,
            self.n,
            dq_mask=dae.dq_structure(),
            df_mask=dae.df_structure(),
            coupling_mask=self.coupling != 0.0,
        )
        self.b_flat = np.asarray(b_grid, dtype=float).ravel()

    def residual(self, z):
        states = z.reshape(self.n1 * self.n0, self.n)
        q_flat = self.dae.q_batch(states).ravel()
        f_flat = self.dae.f_batch(states).ravel()
        return self.d_sum @ q_flat + f_flat - self.b_flat

    def jacobian(self, z):
        states = z.reshape(self.n1 * self.n0, self.n)
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        return self.assembler.refresh(self.coupling, dq, diag_inner=df)

    def structure(self):
        return {"num_points": self.n1 * self.n0, "n_vars": self.n,
                "num_border": 0, "size": self.n1 * self.n0 * self.n}


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

    Returns
    -------
    MpdeQuasiperiodicResult
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

    block = n0 * n
    total = n1 * block

    if initial is None:
        z0 = np.zeros(total)
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

    core = core_from_options(opts)
    result = core.solve(_BiperiodicSystem(dae, forcing, n0, n1, b_grid), z0)
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
