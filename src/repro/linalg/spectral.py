"""Matrix-free collocation Jacobian on a 1-D periodic grid.

Forced harmonic balance solves ``D q(x) + f(x) - b = 0`` on ``N`` uniform
samples of one period.  Its Newton matrix

    J  =  (D ⊗ I) blockdiag(dq_i) + blockdiag(df_i)

is dense in the Fourier coupling: ``N² n²`` candidate entries that
:class:`~repro.linalg.collocation.CollocationJacobianAssembler` refreshes
and SuperLU factorises on every Newton iteration.  The paper notes that
iterative linear techniques [Saa96] let large systems be handled
efficiently; this module is that route.

:class:`SpectralCollocationOperator`
    ``J v = D (dq v) + df v`` as two pointwise ``(n, n)`` products and one
    real-FFT pair (:func:`repro.spectral.diffmat.spectral_derivative`), in
    ``O(N n²)`` memory.  Its preconditioner is the period-averaged Jacobian
    ``jω_k <dq> + <df>``, block diagonal in the harmonics and inverted once
    per harmonic ``k = 0..M``.  It is exact when ``dq`` and ``df`` do not
    vary over the period, so a Newton iteration from a DC seed takes one
    GMRES iteration; it weakens as a strong drive makes them vary.

:class:`SpectralNewtonSolver`
    The ``(jacobian, rhs) -> step`` linear solver of the route: GMRES
    (:class:`~repro.linalg.gmres.GmresLinearSolver`) on the operator within
    :data:`KRYLOV_BUDGET` inner iterations.  On a miss the operator is
    assembled, which also switches its owner to assembled Jacobians for the
    rest of the solve, and the step falls to sparse LU
    (:class:`~repro.linalg.lu_cache.ReusableLUSolver`), as does every
    assembled matrix after it.  A solve therefore wastes at most one
    Krylov budget.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.errors import ConvergenceError
from repro.linalg.gmres import GmresLinearSolver
from repro.linalg.lu_cache import ReusableLUSolver
from repro.spectral.diffmat import spectral_derivative

#: Krylov subspace size between GMRES restarts.  On the RC-diode
#: rectifier at the benchmark's 0.285-0.315 V drive the hardest Newton step
#: (the second) needs 45-66 inner iterations; a shorter restart of 40 makes
#: 0.315 V miss the budget.
KRYLOV_RESTART = 60

#: GMRES inner iterations allowed per Newton step before the step falls to
#: the assembled matrix: two restart cycles, because scipy checks the true
#: residual only at the end of a cycle and one cycle may stop early on its
#: preconditioned estimate.  The same rectifier needs more at 0.4 V (173)
#: and from 1.0 V up, where the wasted budget makes a 301-sample solve
#: 1.2-1.3x slower than assembling from the start (155 vs 134 ms).
KRYLOV_BUDGET = 2 * KRYLOV_RESTART


def _blockwise(blocks, vectors):
    """``blocks[i] @ vectors[i]`` for ``(N, n, n)`` blocks, ``(N, n)`` vectors."""
    return np.einsum("kij,kj->ki", blocks, vectors)


class SpectralCollocationOperator(spla.LinearOperator):
    """The collocation Jacobian ``D (dq v) + df v`` as an FFT product.

    Parameters
    ----------
    dq, df:
        ``(N, n, n)`` pointwise Jacobians ``dq/dx`` and ``df/dx`` at the
        ``N`` (odd) collocation points; unknowns are point-major.
    period:
        Period of the grid (the scale of ``D``).
    assemble:
        Callable ``(dq, df) -> sparse matrix`` building the same Jacobian
        explicitly; :meth:`assemble` calls it when GMRES misses.

    Attributes
    ----------
    preconditioner:
        :class:`~scipy.sparse.linalg.LinearOperator` applying the inverse
        of the period-averaged Jacobian, or ``None`` when that average is
        singular.
    """

    def __init__(self, dq, df, period, assemble):
        self.dq = dq
        self.df = df
        self.period = period
        self._assemble = assemble
        num, n = dq.shape[:2]
        super().__init__(float, (num * n, num * n))
        omega = 2.0 * np.pi / period * np.arange(num // 2 + 1)
        averaged = 1j * omega[:, None, None] * dq.mean(axis=0) + df.mean(axis=0)
        try:
            self._inverse = np.linalg.inv(averaged)
        except np.linalg.LinAlgError:
            self.preconditioner = None
        else:
            self.preconditioner = spla.LinearOperator(
                self.shape, matvec=self._precondition, dtype=float
            )

    def _matvec(self, v):
        v = v.reshape(self.dq.shape[:2])
        derivative = spectral_derivative(
            _blockwise(self.dq, v), self.period, axis=0
        )
        return (derivative + _blockwise(self.df, v)).ravel()

    def _precondition(self, r):
        num, n = self.dq.shape[:2]
        harmonics = np.fft.rfft(r.reshape(num, n), axis=0)
        solved = _blockwise(self._inverse, harmonics)
        return np.fft.irfft(solved, n=num, axis=0).ravel()

    def assemble(self):
        """The same Jacobian as an assembled sparse matrix."""
        return self._assemble(self.dq, self.df)


class SpectralNewtonSolver:
    """Newton-step solver of the matrix-free route (see the module docstring).

    Attributes
    ----------
    stats:
        ``factorizations`` — sparse LU factorisations of assembled
        matrices; ``krylov_iterations`` — GMRES inner iterations.
    """

    def __init__(self):
        # GMRES's default rtol (1e-10) keeps the steps close enough to
        # sparse LU that Newton takes the same iterations.
        self.krylov = GmresLinearSolver(
            restart=KRYLOV_RESTART, maxiter=KRYLOV_BUDGET // KRYLOV_RESTART,
            preconditioner=None,
        )
        self.direct = ReusableLUSolver()
        self.stats = {"factorizations": 0, "krylov_iterations": 0}

    def __call__(self, jacobian, rhs):
        if isinstance(jacobian, SpectralCollocationOperator):
            if jacobian.preconditioner is not None:
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
