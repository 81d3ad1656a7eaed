"""Continuation embeddings expressed as ``CollocationSystem`` wrappers.

Continuation methods recover a hard root-finding problem ``F(z) = 0`` by
solving a *family* of easier problems that deform into it.  Each family
member here is a thin :class:`~repro.linalg.solver_core.CollocationSystem`
wrapper around the original system — the wrapped residual/Jacobian feed
the ordinary Newton machinery, so no new solver exists, only new systems:

:class:`GminShiftedSystem`
    ``F(z) + gmin * z = 0`` — the SPICE gmin step.  A shunt conductance
    from every unknown to ground makes the Jacobian diagonally dominant;
    relaxing ``gmin`` toward zero walks back to the original problem.
:class:`SourceScaledSystem`
    ``F(z) + (1 - scale) * source = 0`` — source stepping.  With
    ``F(z) = f(z) - b`` and ``source = b`` this is ``f(z) - scale * b``:
    ramp the excitation from zero (where the origin usually solves the
    system) up to full strength.
:class:`PseudoTransientSystem`
    ``F(z) + (z - z_ref) / dtau = 0`` — one implicit-Euler step of the
    artificial flow ``dz/dtau = -F(z)``.  Small ``dtau`` makes the
    iteration matrix ``J + I/dtau`` well conditioned near ``z_ref``;
    growing ``dtau`` geometrically turns the march back into plain
    Newton.  This is the right embedding for envelope/HB initial points,
    where there is no source to ramp.

:func:`pseudo_transient_march` drives the last embedding through any
``solve(system, z0) -> NewtonResult`` callable (a bound
``SolverCore.solve``, or a closure over :func:`newton_solve` — the
recovery ladder uses the latter so a continuation rung does not recurse
into the ladder that invoked it).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _shift_diagonal(jac, value):
    """``jac + value * I`` without mutating an assembler-owned matrix."""
    if sp.issparse(jac):
        return (jac + value * sp.identity(jac.shape[0], jac.dtype)).tocsc()
    jac = np.asarray(jac, dtype=float)
    return jac + value * np.eye(jac.shape[0])


class _WrappedSystem:
    """Base for continuation wrappers: forward the structure report.

    Implements the :class:`repro.linalg.solver_core.CollocationSystem`
    contract structurally (the core reads ``residual``/``jacobian`` as
    attributes) — deliberately not by inheritance, so this module stays
    importable from ``solver_core`` itself.
    """

    def __init__(self, base):
        self.base = base

    def structure(self):
        structure = dict(self.base.structure())
        structure["continuation"] = type(self).__name__
        return structure


class GminShiftedSystem(_WrappedSystem):
    """``F(z) + gmin * z = 0``: shunt conductance on every unknown."""

    def __init__(self, base, gmin):
        super().__init__(base)
        self.gmin = float(gmin)

    def residual(self, z):
        r = np.asarray(self.base.residual(z), dtype=float)
        if self.gmin:
            r = r + self.gmin * z
        return r

    def jacobian(self, z):
        jac = self.base.jacobian(z)
        if self.gmin:
            jac = _shift_diagonal(jac, self.gmin)
        return jac


class SourceScaledSystem(_WrappedSystem):
    """``F(z) + (1 - scale) * source = 0``: ramped excitation.

    ``source`` is the full-strength excitation vector the residual
    already subtracts (so ``scale=1`` reproduces the original system and
    ``scale=0`` removes the excitation entirely).
    """

    def __init__(self, base, source, scale):
        super().__init__(base)
        self.source = np.asarray(source, dtype=float)
        self.scale = float(scale)

    def residual(self, z):
        r = np.asarray(self.base.residual(z), dtype=float)
        if self.scale != 1.0:
            r = r + (1.0 - self.scale) * self.source
        return r

    def jacobian(self, z):
        return self.base.jacobian(z)


class PseudoTransientSystem(_WrappedSystem):
    """``F(z) + (z - z_ref) / dtau = 0``: implicit-Euler pseudo-time step."""

    def __init__(self, base, z_ref, dtau):
        super().__init__(base)
        self.z_ref = np.asarray(z_ref, dtype=float).ravel()
        self.dtau = float(dtau)
        if not self.dtau > 0.0:
            raise ValueError(f"dtau must be positive, got {dtau!r}")

    def residual(self, z):
        r = np.asarray(self.base.residual(z), dtype=float)
        return r + (z - self.z_ref) / self.dtau

    def jacobian(self, z):
        return _shift_diagonal(self.base.jacobian(z), 1.0 / self.dtau)


def pseudo_transient_march(solve, system, z0, stages=5, dtau=1e-2,
                           grow=10.0):
    """March ``dz/dtau = -F(z)`` until plain Newton takes over.

    Parameters
    ----------
    solve:
        ``(system, z0) -> NewtonResult`` — must *return* a non-converged
        result rather than raise (``raise_on_failure=False`` semantics).
    system:
        The target :class:`~repro.linalg.solver_core.CollocationSystem`.
    z0:
        Start point of the march.
    stages:
        Pseudo-time steps before the final plain solve.
    dtau:
        Initial pseudo-time step, multiplied by ``grow`` per stage.

    Returns
    -------
    (NewtonResult, list[tuple[float, NewtonResult]])
        The final plain-system result (non-converged if any stage died),
        and the per-stage ``(dtau, result)`` trail for diagnostics.
    """
    z = np.asarray(z0, dtype=float).ravel()
    trail = []
    for _ in range(max(int(stages), 0)):
        stage = PseudoTransientSystem(system, z, dtau)
        result = solve(stage, z)
        trail.append((dtau, result))
        if not result.converged:
            return result, trail
        z = result.x
        dtau *= grow
    return solve(system, z), trail
