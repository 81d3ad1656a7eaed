"""Damped Newton–Raphson for square nonlinear systems.

The solver is deliberately simple and predictable: full Newton steps with a
residual-monotonicity line search (step halving).  Every engine in this
library — DC operating point, transient time steps, shooting, harmonic
balance, MPDE and WaMPDE collocation — funnels through this one kernel, so
its convergence reporting is uniform everywhere.

For step-sequenced solves (transient time stepping), where consecutive
Newton systems are nearly identical, :class:`StaleJacobianNewton` provides
the classic chord/modified-Newton alternative: one factorised Jacobian is
reused across iterations *and* across accepted steps, refactorising only
when convergence slows or the caller invalidates it (e.g. on a step-size
change).  For the smooth, small-step systems of circuit transient analysis
this removes nearly all Jacobian evaluations and factorisations from the
hot loop at the cost of an occasional extra residual evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.constants import (
    DEFAULT_NEWTON_ATOL,
    DEFAULT_NEWTON_MAXITER,
    DEFAULT_NEWTON_RTOL,
)
from repro.errors import ConvergenceError, SingularJacobianError
from repro.linalg.lu_cache import FrozenFactorization


@dataclass
class NewtonOptions:
    """Tuning knobs for :func:`newton_solve`.

    Attributes
    ----------
    atol:
        Absolute tolerance on the residual infinity-norm.
    rtol:
        Relative tolerance on the Newton update (per component, relative to
        the iterate).
    max_iterations:
        Iteration budget before raising/reporting failure.
    max_step_halvings:
        Line-search depth; 0 disables damping.
    raise_on_failure:
        When True (default) a non-convergent solve raises
        :class:`repro.errors.ConvergenceError`; when False the best iterate
        is returned with ``converged=False``.
    """

    atol: float = DEFAULT_NEWTON_ATOL
    rtol: float = DEFAULT_NEWTON_RTOL
    max_iterations: int = DEFAULT_NEWTON_MAXITER
    max_step_halvings: int = 12
    raise_on_failure: bool = True


@dataclass
class NewtonResult:
    """Outcome of a Newton solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        Whether both residual and update tests passed.
    iterations:
        Newton iterations performed.
    residual_norm:
        Infinity-norm of the final residual.
    residual_history:
        Residual norm per iteration (including the initial guess).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: list = field(default_factory=list)


def update_is_small(update, x_new, rtol):
    """The Newton update test: ``|update| <= rtol * max(|x_new|, 1)``.

    Every Newton driver calls this (:func:`newton_solve`,
    :class:`StaleJacobianNewton` and the lock-step ensemble chord), and
    the C chord's ``small_update_`` transcribes it.  ``update`` and
    ``x_new`` are one iterate ``(n,)`` or a batch ``(B, n)``; the
    verdict is one bool, or one per row.  The floor of 1 means unknowns
    far below unit scale never constrain it.
    """
    # The ndarray method, not np.all: the chord calls this once per
    # iteration, and np.all's dispatch costs ~40% more per call.
    return (
        np.abs(update) <= rtol * np.maximum(np.abs(x_new), 1.0)
    ).all(axis=-1)


def _default_linear_solve(jacobian, rhs):
    """Solve ``jacobian @ dx = rhs`` by dense or sparse LU."""
    if sp.issparse(jacobian):
        return spla.spsolve(sp.csc_matrix(jacobian), rhs)
    return np.linalg.solve(np.asarray(jacobian, dtype=float), rhs)


def newton_solve(residual, jacobian, x0, options=None, linear_solver=None):
    """Solve ``residual(x) = 0`` starting from ``x0``.

    Parameters
    ----------
    residual:
        Callable ``x -> F(x)`` returning a 1-D array.
    jacobian:
        Callable ``x -> dF/dx`` returning a dense array or scipy sparse
        matrix of shape ``(n, n)``.
    x0:
        Initial guess (1-D, length n).
    options:
        :class:`NewtonOptions`; defaults are suitable for circuit residuals.
    linear_solver:
        Optional callable ``(J, rhs) -> dx`` replacing the default LU solve
        (e.g. :class:`repro.linalg.gmres.GmresLinearSolver`).

    Returns
    -------
    NewtonResult

    Raises
    ------
    ConvergenceError
        If the iteration stalls and ``options.raise_on_failure`` is True.
    SingularJacobianError
        If the linear solve produces non-finite updates.
    """
    opts = options or NewtonOptions()
    solve = linear_solver or _default_linear_solve

    x = np.array(x0, dtype=float).ravel()
    f = np.asarray(residual(x), dtype=float).ravel()
    if f.size != x.size:
        raise ValueError(
            f"residual returned length {f.size} for iterate of length {x.size}"
        )
    norm = float(np.linalg.norm(f, ord=np.inf))
    history = [norm]
    if not np.isfinite(norm):
        # A non-finite starting residual cannot contract (NaN comparisons
        # are all False): fail immediately instead of burning the whole
        # iteration budget on doomed factorisations and line searches.
        if opts.raise_on_failure:
            raise ConvergenceError(
                f"non-finite initial residual (norm {norm}) — "
                f"evaluation produced NaN/Inf at the starting point",
                iterations=0,
                residual_norm=norm,
            )
        return NewtonResult(x, False, 0, norm, history)

    for iteration in range(1, opts.max_iterations + 1):
        if norm <= opts.atol:
            return NewtonResult(x, True, iteration - 1, norm, history)

        jac = jacobian(x)
        try:
            dx = np.asarray(solve(jac, -f), dtype=float).ravel()
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            # scipy raises RuntimeError on singular sparse LU; numpy raises
            # LinAlgError on singular dense solves.
            raise SingularJacobianError(
                f"linear solve failed at Newton iteration {iteration}: {exc}",
                iterations=iteration,
                residual_norm=norm,
            ) from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError(
                f"non-finite Newton update at iteration {iteration} "
                f"(residual norm {norm:.3e})",
                iterations=iteration,
                residual_norm=norm,
            )

        # Line search: halve the step until the residual norm decreases
        # (or accept the full step if damping is disabled).  When the search
        # exhausts its budget, the smallest trial already evaluated is kept —
        # Newton may still escape a locally non-monotone region — rather than
        # spending another residual evaluation on a further-halved step.
        step = 1.0
        for halving in range(opts.max_step_halvings + 1):
            x_trial = x + step * dx
            f_trial = np.asarray(residual(x_trial), dtype=float).ravel()
            norm_trial = float(np.linalg.norm(f_trial, ord=np.inf))
            if np.isfinite(norm_trial) and (norm_trial < norm or norm <= opts.atol):
                break
            if halving < opts.max_step_halvings:
                step *= 0.5

        update_small = update_is_small(step * dx, x_trial, opts.rtol)
        x, f, norm = x_trial, f_trial, norm_trial
        history.append(norm)

        if norm <= opts.atol or (update_small and np.isfinite(norm)):
            return NewtonResult(x, True, iteration, norm, history)

    if opts.raise_on_failure:
        raise ConvergenceError(
            f"Newton failed to converge in {opts.max_iterations} iterations "
            f"(residual norm {norm:.3e})",
            iterations=opts.max_iterations,
            residual_norm=norm,
        )
    return NewtonResult(x, False, opts.max_iterations, norm, history)


class StaleJacobianNewton:
    """Chord (modified-Newton) driver reusing one factorised Jacobian.

    One instance lives for a whole step sequence (e.g. a transient run).
    Each :meth:`solve` iterates with the *current* factorisation — possibly
    computed several accepted steps ago — and refactorises at the current
    iterate only when

    * no factorisation exists yet (first step, or after :meth:`invalidate`);
    * the residual fails to contract by at least ``contraction`` per
      iteration (the stale Jacobian has drifted too far); or
    * an iteration goes uphill / produces a non-finite update.

    Callers must :meth:`invalidate` when the system itself changes shape or
    scaling discontinuously (the transient engine does so on significant
    ``dt`` changes).  Convergence criteria match :func:`newton_solve`:
    residual infinity-norm below ``options.atol``, or a relative update
    below ``options.rtol``.

    Parameters
    ----------
    options:
        :class:`NewtonOptions` (``raise_on_failure`` is honoured).
    contraction:
        Target per-iteration residual reduction factor; a stale
        factorisation achieving worse than this is refreshed.  The default
        0.1 keeps typical transient steps at two chord iterations.
    """

    def __init__(self, options=None, contraction=0.1):
        self.options = options or NewtonOptions()
        self.contraction = float(contraction)
        self._factor = FrozenFactorization()
        self._have = False
        self.stats = {
            "factorizations": 0,
            "iterations": 0,
            "residual_evaluations": 0,
        }

    def invalidate(self):
        """Drop the stored factorisation; the next solve refactorises."""
        self._have = False

    def adopt(self, factorization):
        """Adopt an externally factorised Jacobian (e.g. the exact step
        Jacobian a sensitivity sweep computes at every accepted point)."""
        self._factor = factorization
        self._have = True

    def _refactor(self, jacobian, x, iterations=0,
                  residual_norm=float("nan")):
        try:
            self._factor.factor(jacobian(x))
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            self._have = False
            raise SingularJacobianError(
                f"chord-Newton refactorisation failed: {exc}",
                iterations=iterations,
                residual_norm=residual_norm,
            ) from exc
        self._have = True
        self.stats["factorizations"] += 1

    def solve(self, residual, jacobian, x0):
        """Solve ``residual(x) = 0`` from ``x0`` with the chord policy.

        ``jacobian`` is only called when the policy decides to refactorise.
        Returns a :class:`NewtonResult`; on failure the factorisation is
        dropped so the next attempt starts fresh.
        """
        opts = self.options
        stats = self.stats
        atol = opts.atol
        x = np.asarray(x0, dtype=float).ravel()
        f = np.asarray(residual(x), dtype=float).ravel()
        stats["residual_evaluations"] += 1
        norm = float(np.abs(f).max()) if f.size else 0.0
        history = [norm]
        if norm <= atol:
            return NewtonResult(x, True, 0, norm, history)
        if not np.isfinite(norm):
            # Mirrors newton_solve: a NaN/Inf starting residual is a dead
            # end for the chord iteration too.  The stored factorisation
            # is kept — the factors are not to blame for a bad evaluation.
            if opts.raise_on_failure:
                raise ConvergenceError(
                    f"non-finite initial residual (norm {norm}) — "
                    f"evaluation produced NaN/Inf at the starting point",
                    iterations=0,
                    residual_norm=norm,
                )
            return NewtonResult(x, False, 0, norm, history)

        fresh = False
        if not self._have:
            self._refactor(jacobian, x, residual_norm=norm)
            fresh = True

        iteration = 0
        while iteration < opts.max_iterations:
            iteration += 1
            stats["iterations"] += 1
            dx = self._factor.solve(f)
            if not np.isfinite(dx).all():
                if fresh:
                    self._have = False
                    raise SingularJacobianError(
                        f"non-finite chord-Newton update at iteration "
                        f"{iteration} (residual norm {norm:.3e})",
                        iterations=iteration,
                        residual_norm=norm,
                    )
                self._refactor(jacobian, x, iterations=iteration,
                               residual_norm=norm)
                fresh = True
                continue
            x_new = x - dx
            f_new = np.asarray(residual(x_new), dtype=float).ravel()
            stats["residual_evaluations"] += 1
            norm_new = float(np.abs(f_new).max())

            if norm_new <= atol:
                history.append(norm_new)
                return NewtonResult(x_new, True, iteration, norm_new, history)

            if not (norm_new < norm):  # uphill, stalled, or non-finite
                if not fresh:
                    # Blame staleness first: refactorise at the current
                    # iterate and retry the iteration.
                    self._refactor(jacobian, x, iterations=iteration,
                                   residual_norm=norm)
                    fresh = True
                    continue
                # Fresh Jacobian and still no descent: damped line search,
                # keeping the smallest trial if the budget is exhausted
                # (mirrors newton_solve).
                step = 0.5
                for halving in range(opts.max_step_halvings):
                    x_new = x - step * dx
                    f_new = np.asarray(residual(x_new), dtype=float).ravel()
                    stats["residual_evaluations"] += 1
                    norm_new = float(np.abs(f_new).max())
                    if np.isfinite(norm_new) and norm_new < norm:
                        break
                    if halving < opts.max_step_halvings - 1:
                        step *= 0.5

            update_small = update_is_small(x_new - x, x_new, opts.rtol)
            slow = norm_new > self.contraction * norm
            x, f, norm = x_new, f_new, norm_new
            history.append(norm)
            if norm <= atol or (update_small and np.isfinite(norm)):
                return NewtonResult(x, True, iteration, norm, history)
            if slow and not fresh:
                self._refactor(jacobian, x, iterations=iteration,
                               residual_norm=norm)
                fresh = True

        self.invalidate()
        if opts.raise_on_failure:
            raise ConvergenceError(
                f"chord Newton failed to converge in {opts.max_iterations} "
                f"iterations (residual norm {norm:.3e})",
                iterations=opts.max_iterations,
                residual_norm=norm,
            )
        return NewtonResult(x, False, opts.max_iterations, norm, history)
