"""Matrix-free collocation Jacobian on a 1-D or 2-D periodic grid.

Two forced periodic boundary-value problems share one discretisation:
forced harmonic balance solves ``D q(x) + f(x) - b = 0`` on ``N`` uniform
samples of one period, and the bi-periodic MPDE solves
``(D1 + D2) q(x) + f(x) - b = 0`` on an ``N1 x N0`` tensor grid.  Their
Newton matrix

    J  =  Σ_axis (D_axis ⊗ I) blockdiag(dq_i) + blockdiag(df_i)

is dense in the Fourier coupling along every grid line:
:func:`coupling_nonzeros` candidate ``(n, n)`` blocks that
:class:`~repro.linalg.collocation.CollocationJacobianAssembler` refreshes
and SuperLU factorises on every Newton iteration.  The paper notes that
iterative linear techniques [Saa96] let large systems be handled
efficiently; this module is that route, for both problems.

:class:`PeriodicCollocationSystem`
    The shared :class:`~repro.linalg.solver_core.CollocationSystem`: an FFT
    residual, and a Jacobian that is a :class:`SpectralCollocationOperator`
    until its first assembly.  The dense point coupling and the assembler
    are built on that first assembly.

:class:`SpectralCollocationOperator`
    ``J v = Σ_axis D_axis (dq v) + df v`` as pointwise ``(n, n)`` products
    and one real-FFT pair per axis
    (:func:`repro.spectral.diffmat.spectral_derivative`), in ``O(N n²)``
    memory.  Its preconditioner averages ``dq`` and ``df`` along one grid
    axis and keeps them exact along the other: block diagonal in the
    harmonics ``k`` of the averaged axis, with one dense complex block of
    ``N_other n`` unknowns per harmonic (``n x n`` on a 1-D grid, where the
    average is over the whole period).  The averaged axis is the one along
    which the Jacobian varies least.  The preconditioner is exact when
    ``dq`` and ``df`` do not vary along that axis, so a Newton iteration
    from a DC seed takes one GMRES iteration; it weakens as a strong drive
    makes them vary.

:class:`SpectralNewtonSolver`
    The ``(jacobian, rhs) -> step`` linear solver of the route: GMRES
    (:class:`~repro.linalg.gmres.GmresLinearSolver`) on the operator within
    :data:`KRYLOV_BUDGET` inner iterations, to a relative residual set per
    Newton step by Eisenstat–Walker forcing (an inexact Newton method).  On
    a miss the operator is assembled, which also switches its owner to
    assembled Jacobians for the rest of the solve, and the step falls to
    direct LU (:class:`~repro.linalg.lu_cache.ReusableLUSolver`), as does
    every assembled matrix after it.  A solve therefore wastes at most one
    Krylov budget.

:func:`takes_matrix_free_route`
    The one route rule: default solver options and at least
    :data:`MATRIX_FREE_MIN_COUPLING` point-coupling nonzeros.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from repro.errors import ConvergenceError
from repro.linalg.collocation import collocation_assembler
from repro.linalg.gmres import GmresLinearSolver
from repro.linalg.lu_cache import ReusableLUSolver
from repro.linalg.solver_core import CollocationSystem
from repro.spectral.diffmat import (
    fourier_differentiation_matrix,
    spectral_derivative,
)

#: Krylov subspace size between GMRES restarts.  Under Eisenstat–Walker
#: forcing the RC-diode rectifier's hardest Newton step needs 15-18 inner
#: iterations at the benchmark's 0.285-0.315 V drive and 49-59 at 0.4 V
#: (301-801 samples); a restart of 40 makes 0.4 V at 801 samples miss the
#: budget.
KRYLOV_RESTART = 60

#: GMRES inner iterations allowed per Newton step before the step falls to
#: the assembled matrix: two restart cycles, because scipy checks the true
#: residual only at the end of a cycle and one cycle may stop early on its
#: preconditioned estimate.  From 1.0 V the averaged preconditioner fails
#: the rectifier (its third Newton step would need 287 inner iterations at
#: 1.0 V and over 600 at 2.0 V), so a larger budget only wastes more before
#: the fall to sparse LU.  The one wasted budget makes 1.0 V at 301 samples
#: 1.5x slower than ``linear_solver="lu"`` (161-171 vs 110-113 ms); at 801
#: samples the two are level (1.23 vs 1.19-1.27 s).
KRYLOV_BUDGET = 2 * KRYLOV_RESTART

#: Largest GMRES forcing term (the relative residual a Newton step is
#: solved to), and the first step's.  On the rectifier at 301 samples it
#: takes 8 Newton iterations and 72 GMRES iterations at 0.3 V (7 and 178
#: with exact solves), 11 Newton iterations at 1.0 V and 19 at 2.0 V
#: (``"lu"``: 10 and 17).  A cap of 0.5 lets the early steps wander (31
#: and 38 iterations); 0.01 does not converge at 2.0 V in 60.
FORCING_TERM_MAX = 0.2

#: Point-coupling nonzeros (:func:`coupling_nonzeros`) from which a forced
#: periodic BVP with default solver options takes the matrix-free route.
#: On one core of a 2-core x86 host (BLAS on one thread) the route breaks
#: even on the 3-variable rectifier (0.3 V) at 101 samples (10,201: 18.9
#: vs 20.2 ms per solve), and wins 1.4x at 111 (12,321) and 3x at 151.  On
#: the 3-variable diode mixer (LO 0.38-0.42 V) it breaks even at 15 x 15
#: (6,525: 1.07-1.11x) and wins 1.6-1.8x at 19 x 19 (13,357).  A drive
#: strong enough to make GMRES miss once (:data:`KRYLOV_BUDGET`) costs
#: most at the small end: the rectifier at 1.0 V takes 70 ms at 111
#: samples against 35 ms for ``"lu"``, and is level with it at 801.
MATRIX_FREE_MIN_COUPLING = 12_000


def coupling_nonzeros(grid):
    """Nonzero point couplings of ``Σ_axis D_axis`` on a periodic grid.

    Every point couples to itself and to each other point on its grid
    lines: ``N²`` for ``N`` samples, ``N1 N0 (N1 + N0 - 1)`` for an
    ``N1 x N0`` grid.
    """
    return int(np.prod(grid)) * (sum(grid) - len(grid) + 1)


def takes_matrix_free_route(grid, linear_solver, mode, ladder):
    """Whether a forced periodic BVP solves matrix-free (the route rule).

    Only a full-Newton solve with the default linear solver and ladder on a
    grid of at least :data:`MATRIX_FREE_MIN_COUPLING` point-coupling
    nonzeros does; an explicit ``linear_solver`` (``"lu"`` included), chord
    mode or an explicit ladder keeps the assembled route.
    """
    return (
        linear_solver is None
        and mode == "full"
        and ladder in (None, "default")
        and coupling_nonzeros(grid) >= MATRIX_FREE_MIN_COUPLING
    )


def grid_derivative(samples, periods):
    """``Σ_axis ∂/∂t_axis`` of ``grid + (n,)`` periodic samples by FFT."""
    return sum(
        spectral_derivative(samples, period, axis=axis)
        for axis, period in enumerate(periods)
    )


def coupling_matrix(grid, periods):
    """Dense ``(M, M)`` point coupling ``Σ_axis D_axis`` of a grid."""
    total = 0.0
    for axis, period in enumerate(periods):
        before = int(np.prod(grid[:axis]))
        after = int(np.prod(grid[axis + 1:]))
        diffmat = fourier_differentiation_matrix(grid[axis], period)
        total = total + np.kron(
            np.kron(np.eye(before), diffmat), np.eye(after)
        )
    return total


def _blockwise(blocks, vectors):
    """``blocks[..., :, :] @ vectors[..., :]`` over the leading axes."""
    return np.einsum("...ij,...j->...i", blocks, vectors)


def _averaged_axis(dq, df, periods):
    """The grid axis along which ``dq`` and ``df`` vary least.

    Variation is the largest deviation from the axis mean, with ``dq``
    weighted by the axis's ``2π/T`` as ``D_axis`` weighs it.
    """
    def variation(axis):
        weight = 2.0 * np.pi / periods[axis]
        return (
            weight * np.abs(dq - dq.mean(axis=axis, keepdims=True)).max()
            + np.abs(df - df.mean(axis=axis, keepdims=True)).max()
        )

    return min(range(len(periods)), key=variation)


def _averaged_jacobian(dq, df, periods, axis):
    """``(K, R n, R n)`` Jacobian per harmonic ``k`` of the averaged axis.

    ``jω_k <dq> + D_other <dq> + <df>``, the averages taken along ``axis``
    at each of the ``R`` points of the other axis (``R = 1`` on a 1-D
    grid, which has no ``D_other``).
    """
    grid, n = dq.shape[:-2], dq.shape[-1]
    mean_dq = dq.mean(axis=axis).reshape(-1, n, n)
    mean_df = df.mean(axis=axis).reshape(-1, n, n)
    rest = mean_dq.shape[0]
    other = np.zeros((rest, rest))
    for index, period in enumerate(periods):
        if index != axis:
            other = fourier_differentiation_matrix(grid[index], period)
    eye = np.eye(rest)
    size = rest * n
    local = (
        np.einsum("ij,jab->iajb", other, mean_dq)
        + np.einsum("ij,jab->iajb", eye, mean_df)
    ).reshape(size, size)
    capacitive = np.einsum("ij,jab->iajb", eye, mean_dq).reshape(size, size)
    omega = 2.0 * np.pi / periods[axis] * np.arange(grid[axis] // 2 + 1)
    return local + 1j * omega[:, None, None] * capacitive


def _solve_harmonics(inverse, shape, axis, residual):
    """Apply the averaged Jacobian's inverse to ``residual``.

    A module function over the inverse alone (not a bound method), so the
    preconditioner holds no reference back to its operator: operators die
    by refcount as soon as their Newton step is done.
    """
    values = np.moveaxis(residual.reshape(shape), axis, 0)
    harmonics = np.fft.rfft(values, axis=0)
    solved = _blockwise(inverse, harmonics.reshape(len(inverse), -1))
    values = np.fft.irfft(solved.reshape(harmonics.shape), n=values.shape[0],
                          axis=0)
    return np.moveaxis(values, 0, axis).ravel()


class SpectralCollocationOperator(spla.LinearOperator):
    """The collocation Jacobian ``Σ_axis D_axis (dq v) + df v`` by FFT.

    Parameters
    ----------
    dq, df:
        ``grid + (n, n)`` pointwise Jacobians ``dq/dx`` and ``df/dx`` at
        the points of a 1-D ``(N,)`` or 2-D ``(N1, N0)`` grid of odd sizes;
        unknowns are point-major, points in C order.
    periods:
        Period of each grid axis (the scale of its ``D``); a number for a
        1-D grid.
    assemble:
        Callable ``(dq, df) -> sparse matrix`` building the same Jacobian
        explicitly; :meth:`assemble` calls it when GMRES misses.

    Attributes
    ----------
    averaged_axis:
        The grid axis the preconditioner averages along.
    preconditioner:
        :class:`~scipy.sparse.linalg.LinearOperator` applying the inverse
        of the averaged Jacobian, or ``None`` when that average is
        singular.
    """

    def __init__(self, dq, df, periods, assemble):
        self.dq = dq
        self.df = df
        self.periods = tuple(np.atleast_1d(periods).tolist())
        self._assemble = assemble
        size = dq.size // dq.shape[-1]
        super().__init__(float, (size, size))
        self.averaged_axis = _averaged_axis(dq, df, self.periods)
        try:
            inverse = np.linalg.inv(_averaged_jacobian(
                dq, df, self.periods, self.averaged_axis
            ))
        except np.linalg.LinAlgError:
            self.preconditioner = None
        else:
            self.preconditioner = spla.LinearOperator(
                self.shape, dtype=float, matvec=partial(
                    _solve_harmonics, inverse, dq.shape[:-1],
                    self.averaged_axis,
                ),
            )

    def _matvec(self, v):
        v = v.reshape(self.dq.shape[:-1])
        flux = grid_derivative(_blockwise(self.dq, v), self.periods)
        return (flux + _blockwise(self.df, v)).ravel()

    def assemble(self):
        """The same Jacobian as an assembled sparse matrix."""
        return self._assemble(self.dq, self.df)


class SpectralNewtonSolver:
    """Newton-step solver of the matrix-free route (see the module docstring).

    Each call solves ``J s = rhs`` by GMRES to the relative residual
    ``η_k`` of Eisenstat and Walker's choice 2 (SIAM J. Sci. Comput. 17,
    1996), ``η_k = 0.9 (‖F_k‖ / ‖F_{k-1}‖)²`` in 2-norms of the right-hand
    sides (``newton_solve`` passes ``-F_k``), raised to ``0.9 η_{k-1}²``
    when that exceeds 0.1, and kept between GMRES's exact-solve tolerance
    and :data:`FORCING_TERM_MAX`, where the first step starts.  One
    instance serves one nonlinear solve.

    Attributes
    ----------
    stats:
        ``factorizations`` — sparse LU factorisations of assembled
        matrices; ``krylov_iterations`` — GMRES inner iterations.
    """

    def __init__(self):
        self.krylov = GmresLinearSolver(
            restart=KRYLOV_RESTART, maxiter=KRYLOV_BUDGET // KRYLOV_RESTART,
            preconditioner=None,
        )
        self.exact_rtol = self.krylov.rtol
        self.direct = ReusableLUSolver()
        self.stats = {"factorizations": 0, "krylov_iterations": 0}
        self._last = None

    def _forcing_term(self, rhs):
        norm = float(np.linalg.norm(rhs))
        eta = FORCING_TERM_MAX
        if self._last is not None:
            last_norm, last_eta = self._last
            eta = 0.9 * (norm / last_norm) ** 2
            if 0.9 * last_eta ** 2 > 0.1:
                eta = max(eta, 0.9 * last_eta ** 2)
            eta = min(max(eta, self.exact_rtol), FORCING_TERM_MAX)
        self._last = (norm, eta)
        return eta

    def __call__(self, jacobian, rhs):
        if isinstance(jacobian, SpectralCollocationOperator):
            if jacobian.preconditioner is not None:
                self.krylov.rtol = self._forcing_term(rhs)
                try:
                    return self.krylov(jacobian, rhs)
                except ConvergenceError:
                    pass
                finally:
                    self.stats["krylov_iterations"] = (
                        self.krylov.stats["krylov_iterations"]
                    )
            jacobian = jacobian.assemble()
        step = self.direct(jacobian, rhs)
        self.stats["factorizations"] = self.direct.stats["factorizations"]
        return step


class PeriodicCollocationSystem(CollocationSystem):
    """``Σ_axis D_axis q(x) + f(x) - b = 0`` on a 1-D or 2-D periodic grid.

    The residual differentiates ``q`` by FFT along each axis.  With
    ``matrix_free`` the Jacobian is a :class:`SpectralCollocationOperator`
    until its first assembly (a GMRES miss); otherwise it is assembled.
    The dense point coupling and the assembler are built on the first
    assembly.

    Parameters
    ----------
    dae:
        System providing ``q``/``f`` and their Jacobians.
    grid:
        Odd point counts per axis; states are point-major in C order.
    periods:
        Period of each axis.
    b_flat:
        The flattened forcing samples.
    matrix_free:
        Start on the matrix-free route (see :func:`takes_matrix_free_route`).
    """

    def __init__(self, dae, grid, periods, b_flat, matrix_free=False):
        self.dae = dae
        self.grid = tuple(grid)
        self.periods = tuple(periods)
        self.n = dae.n
        self.num_points = int(np.prod(self.grid))
        self.b_flat = b_flat
        self.matrix_free = matrix_free
        self.coupling = None
        self.assembler = None

    def residual(self, z):
        states = z.reshape(self.num_points, self.n)
        q, f = self.dae.qf_batch(states)
        derivative = grid_derivative(
            q.reshape(self.grid + (self.n,)), self.periods
        )
        return (derivative.reshape(states.shape) + f).ravel() - self.b_flat

    def jacobian(self, z):
        states = z.reshape(self.num_points, self.n)
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        if self.matrix_free:
            shape = self.grid + dq.shape[1:]
            return SpectralCollocationOperator(
                dq.reshape(shape), df.reshape(shape), self.periods,
                self._assemble,
            )
        return self._assemble(dq, df)

    def _assemble(self, dq, df):
        # One assembly ends the matrix-free route for the rest of the solve.
        self.matrix_free = False
        n = self.n
        if self.assembler is None:
            self.coupling = coupling_matrix(self.grid, self.periods)
            self.assembler = collocation_assembler(
                self.num_points, n, dq_mask=self.dae.dq_structure(),
                df_mask=self.dae.df_structure(),
                coupling_mask=self.coupling != 0.0,
            )
        return self.assembler.refresh(
            self.coupling, dq.reshape(-1, n, n),
            diag_inner=df.reshape(-1, n, n),
        )

    def structure(self):
        return {"num_points": self.num_points, "n_vars": self.n,
                "num_border": 0, "size": self.num_points * self.n}
