"""Deterministic fault injection for solvers, DAEs and linear solvers.

Robustness code is only trustworthy if its failure paths run in CI, and
real numerical failures are too fragile to reproduce on demand.  These
wrappers inject failures *deterministically*: every injection site is
keyed by a 0-based call index (or, for forcing terms, a time window), so
a test states exactly which evaluation goes bad and the same evaluation
goes bad on every run, platform and thread count.

:class:`FaultyDAE`
    Wraps a :class:`~repro.dae.base.SemiExplicitDAE`; injects NaN
    evaluations, singular Jacobians and NaN forcing windows at the DAE
    boundary (what the transient/envelope engines see).
:class:`FaultySystem`
    Wraps a :class:`~repro.linalg.solver_core.CollocationSystem`;
    injects at the nonlinear-system boundary (what ``SolverCore`` sees) —
    the right level for exercising individual recovery-ladder rungs.
:class:`FaultyLinearSolver`
    Wraps a ``(matrix, rhs) -> x`` callable; fails chosen linear solves
    by raising (singular-like) or returning NaN (breakdown-like).

No wrapper mutates its wrappee, and none consults a clock or RNG.
"""

from __future__ import annotations

import numpy as np


def _as_call_set(calls):
    """Normalise a call-index spec (int, iterable or None) to a set."""
    if calls is None:
        return frozenset()
    if isinstance(calls, (int, np.integer)):
        return frozenset({int(calls)})
    return frozenset(int(c) for c in calls)


class FaultyDAE:
    """DAE proxy injecting failures at chosen evaluation counts.

    Parameters
    ----------
    dae:
        The wrapped :class:`~repro.dae.base.SemiExplicitDAE`.
    nan_q_calls, nan_f_calls:
        0-based call indices of ``q``/``f`` whose first output entry is
        replaced by NaN.  ``qf`` shares both counters (one ``qf`` call
        advances the ``q`` and the ``f`` count by one), so injection is
        independent of whether the engine uses the fused evaluation.
    singular_df_calls:
        Call indices of ``df_dx`` returning an all-zero matrix (exactly
        singular) instead of the true Jacobian.
    nan_b_window:
        ``(t_lo, t_hi)`` — forcing evaluations with
        ``t_lo <= t <= t_hi`` return all-NaN vectors, in ``b`` and
        ``b_batch`` alike.  The deterministic way to poison a chosen
        *time region* of a transient run regardless of step count.

    Attributes
    ----------
    calls:
        Per-method evaluation counters (``{"q": ..., "f": ...,
        "b": ..., "df_dx": ...}``), for asserting how far an engine got.
    """

    def __init__(self, dae, nan_q_calls=None, nan_f_calls=None,
                 singular_df_calls=None, nan_b_window=None):
        self._dae = dae
        self.n = dae.n
        self.variable_names = dae.variable_names
        self.nan_q_calls = _as_call_set(nan_q_calls)
        self.nan_f_calls = _as_call_set(nan_f_calls)
        self.singular_df_calls = _as_call_set(singular_df_calls)
        self.nan_b_window = (
            (float(nan_b_window[0]), float(nan_b_window[1]))
            if nan_b_window is not None else None
        )
        self.calls = {"q": 0, "f": 0, "b": 0, "df_dx": 0}

    def __getattr__(self, name):
        return getattr(self._dae, name)

    def _maybe_nan(self, values, counter, inject_calls):
        index = self.calls[counter]
        self.calls[counter] = index + 1
        if index in inject_calls:
            values = np.array(values, dtype=float)
            values.flat[0] = np.nan
        return values

    def q(self, x):
        return self._maybe_nan(self._dae.q(x), "q", self.nan_q_calls)

    def f(self, x):
        return self._maybe_nan(self._dae.f(x), "f", self.nan_f_calls)

    def qf(self, x):
        q, f = self._dae.qf(x)
        return (
            self._maybe_nan(q, "q", self.nan_q_calls),
            self._maybe_nan(f, "f", self.nan_f_calls),
        )

    def df_dx(self, x):
        index = self.calls["df_dx"]
        self.calls["df_dx"] = index + 1
        jac = self._dae.df_dx(x)
        if index in self.singular_df_calls:
            return np.zeros_like(np.asarray(jac, dtype=float))
        return jac

    def _in_window(self, t):
        window = self.nan_b_window
        return window is not None and window[0] <= t <= window[1]

    def b(self, t):
        self.calls["b"] += 1
        values = self._dae.b(t)
        if self._in_window(float(t)):
            values = np.full_like(np.asarray(values, dtype=float), np.nan)
        return values

    def b_batch(self, times):
        values = np.array(self._dae.b_batch(times), dtype=float)
        window = self.nan_b_window
        if window is not None:
            times = np.asarray(times, dtype=float)
            mask = (times >= window[0]) & (times <= window[1])
            values[mask] = np.nan
        return values


class FaultySystem:
    """Nonlinear-system proxy injecting failures at chosen call counts.

    Parameters
    ----------
    system:
        The wrapped :class:`~repro.linalg.solver_core.CollocationSystem`.
    nan_residual_calls:
        0-based residual-call indices whose first output entry becomes
        NaN.
    singular_jacobian_calls:
        Jacobian-call indices returning an all-zero (exactly singular)
        matrix.
    scale_jacobian_calls:
        ``{call_index: factor}`` — Jacobian calls returning the true
        matrix times ``factor`` (a controlled way to make a chord factor
        arbitrarily stale or a Newton step arbitrarily short).

    Attributes
    ----------
    residual_calls, jacobian_calls:
        Evaluation counters, for asserting rung escalation.
    """

    def __init__(self, system, nan_residual_calls=None,
                 singular_jacobian_calls=None, scale_jacobian_calls=None):
        self.system = system
        self.nan_residual_calls = _as_call_set(nan_residual_calls)
        self.singular_jacobian_calls = _as_call_set(singular_jacobian_calls)
        self.scale_jacobian_calls = {
            int(k): float(v)
            for k, v in (scale_jacobian_calls or {}).items()
        }
        self.residual_calls = 0
        self.jacobian_calls = 0

    def residual(self, z):
        index = self.residual_calls
        self.residual_calls = index + 1
        values = self.system.residual(z)
        if index in self.nan_residual_calls:
            values = np.array(values, dtype=float)
            values.flat[0] = np.nan
        return values

    def jacobian(self, z):
        index = self.jacobian_calls
        self.jacobian_calls = index + 1
        jac = self.system.jacobian(z)
        if index in self.singular_jacobian_calls:
            dense = np.zeros(
                getattr(jac, "shape", (np.size(z), np.size(z)))
            )
            return dense
        factor = self.scale_jacobian_calls.get(index)
        if factor is not None:
            # Densify before scaling: assembler-owned sparse matrices must
            # not be mutated, and `factor * sparse` copies anyway.
            jac = factor * np.asarray(
                jac.toarray() if hasattr(jac, "toarray") else jac,
                dtype=float,
            )
        return jac

    def structure(self):
        return self.system.structure()


class FaultyLinearSolver:
    """Linear-solver proxy failing chosen solves deterministically.

    Parameters
    ----------
    inner:
        The wrapped ``(matrix, rhs) -> x`` callable (default: dense/
        sparse LU via numpy/scipy, matching the Newton default).
    fail_calls:
        0-based solve indices that fail.
    mode:
        ``"raise"`` — raise ``RuntimeError`` (what scipy does for a
        singular sparse LU, routed to ``SingularJacobianError`` by the
        Newton kernels); ``"nan"`` — return an all-NaN update (iterative
        breakdown, caught by the non-finite update checks).
    """

    def __init__(self, inner=None, fail_calls=None, mode="raise"):
        if mode not in ("raise", "nan"):
            raise ValueError(f"mode must be 'raise' or 'nan', got {mode!r}")
        if inner is None:
            from repro.linalg.newton import _default_linear_solve

            inner = _default_linear_solve
        self.inner = inner
        self.fail_calls = _as_call_set(fail_calls)
        self.mode = mode
        self.calls = 0

    def __call__(self, matrix, rhs):
        index = self.calls
        self.calls = index + 1
        if index in self.fail_calls:
            if self.mode == "raise":
                raise RuntimeError(
                    f"injected linear-solver failure at call {index}"
                )
            return np.full(np.shape(rhs), np.nan)
        return self.inner(matrix, rhs)

    def invalidate(self):
        invalidate = getattr(self.inner, "invalidate", None)
        if invalidate is not None:
            invalidate()
