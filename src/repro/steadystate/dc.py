"""DC operating point: solve ``f(x) = b(t0)`` with all dynamics frozen."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverOptionsMixin, core_from_options
from repro.resilience.continuation import (
    GminShiftedSystem,
    SourceScaledSystem,
)
from repro.resilience.recovery import RecoveryAttempt, RecoveryLog


@dataclass
class DcOptions(SolverOptionsMixin):
    """Configuration for :func:`dc_operating_point`.

    The ``newton``/``linear_solver``/``ladder`` fields come
    from the shared
    :class:`~repro.linalg.solver_core.SolverOptionsMixin` (the DC solve
    keeps its own gmin/source escalation in addition to the core ladder).

    Attributes
    ----------
    newton:
        Newton options for the direct attempt.
    newton_mode:
        Newton policy of the shared
        :class:`repro.linalg.solver_core.SolverCore` (``"full"`` is right
        for the continuation ladder: every stage reshapes the system).
    gmin_steps:
        Number of gmin-stepping continuation stages tried if the direct
        solve fails (0 disables).
    gmin_start:
        Initial shunt conductance for gmin stepping.
    source_steps:
        Number of source-stepping stages tried if gmin stepping also fails.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(raise_on_failure=False)
    )
    newton_mode: str = "full"
    gmin_steps: int = 8
    gmin_start: float = 1e-2
    source_steps: int = 8


class _DcSystem:
    """The plain DC system ``f(x) - b(t0) = 0`` (dense Jacobian).

    The continuation stages are :class:`GminShiftedSystem` /
    :class:`SourceScaledSystem` wrappers around this one object — the
    SPICE gmin/source ladders expressed as system embeddings rather than
    bespoke residual closures.
    """

    def __init__(self, dae, b0):
        self.dae = dae
        self.b0 = b0

    def residual(self, x):
        return self.dae.f(x) - self.b0

    def jacobian(self, x):
        return np.asarray(self.dae.df_dx(x), dtype=float)

    def structure(self):
        return {"size": self.dae.n, "dense": True}


def _record(log, stage, rung, result, detail):
    log.extend([RecoveryAttempt(
        solve=stage,
        rung=rung,
        converged=result.converged,
        iterations=result.iterations,
        residual_norm=result.residual_norm,
        detail=detail,
    )])


def dc_operating_point(dae, t0=0.0, x0=None, options=None):
    """Find ``x`` with ``f(x) = b(t0)`` (the quiescent point of the DAE).

    Tries a direct Newton solve first, then gmin stepping, then source
    stepping — the standard SPICE escalation ladder, with each
    continuation stage expressed as a
    :mod:`repro.resilience.continuation` system wrapper.  On total
    failure the raised :class:`~repro.errors.ConvergenceError` carries
    the final iteration count, residual norm and the
    :class:`~repro.resilience.recovery.RecoveryLog` of every stage tried
    (as ``exc.recovery``).

    Returns
    -------
    numpy.ndarray
        The operating point.

    Raises
    ------
    ConvergenceError
        If every strategy fails.
    """
    opts = options or DcOptions()
    x = np.zeros(dae.n) if x0 is None else np.array(x0, dtype=float).ravel()
    core = core_from_options(opts)
    base = _DcSystem(dae, dae.b(t0))
    log = RecoveryLog()

    def attempt(system, start, gmin, scale):
        # The continuation parameters reshape the system between attempts;
        # registering them drops any chord factors carried across stages.
        core.note_parameters(gmin=gmin, source_scale=scale)
        return core.solve(system, start)

    result = attempt(base, x, 0.0, 1.0)
    if result.converged:
        return result.x
    _record(log, 0, "newton", result, "direct Newton")

    # gmin stepping: solve with a large shunt conductance, then relax it.
    if opts.gmin_steps > 0:
        x_cont = x.copy()
        gmins = np.geomspace(opts.gmin_start, 1e-12, opts.gmin_steps)
        ok = True
        for stage, gmin in enumerate(gmins, start=1):
            result = attempt(
                GminShiftedSystem(base, float(gmin)), x_cont, float(gmin), 1.0
            )
            _record(log, stage, "continuation", result, f"gmin={gmin:.3e}")
            if not result.converged:
                ok = False
                break
            x_cont = result.x
        if ok:
            result = attempt(base, x_cont, 0.0, 1.0)
            _record(log, opts.gmin_steps + 1, "continuation", result,
                    "gmin ladder final plain solve")
            if result.converged:
                return result.x

    # Source stepping: ramp b from 0 to full strength.
    if opts.source_steps > 0:
        x_cont = np.zeros(dae.n)
        ok = True
        scales = np.linspace(0.0, 1.0, opts.source_steps + 1)[1:]
        for stage, scale in enumerate(scales, start=1):
            result = attempt(
                SourceScaledSystem(base, base.b0, float(scale)), x_cont,
                0.0, float(scale),
            )
            _record(log, stage, "continuation", result,
                    f"source_scale={scale:.3f}")
            if not result.converged:
                ok = False
                break
            x_cont = result.x
        if ok:
            return x_cont

    raise ConvergenceError(
        "DC operating point failed: direct Newton, gmin stepping and source "
        "stepping all diverged",
        iterations=result.iterations,
        residual_norm=result.residual_norm,
        recovery=log,
    )
