"""Drivers wiring built kernels into the engines.

:class:`CompiledSweepRunner` / :class:`EnsembleSweepRunner`
    Own the state arrays of one compiled transient march (history ring,
    frozen dense LU, chord bookkeeping registers, counters) and run
    whole chunks of steps per call through the generated serial
    ``sweep`` / ``sweep_adaptive`` or lock-step ``sweep_ens`` entry
    points.  The engines chunk calls at checkpoint boundaries and hand
    any non-converged step back to the python slow path, so the
    recovery ladder, checkpointing and failure semantics are unchanged.
:class:`EnvelopeSweepRunner`
    The same for the fixed-step WaMPDE envelope: a ``[samples, omega]``
    predictor ring, the bordered step matrix's LAPACK LU factors and the
    ``h``/``omega`` registers, advanced by the ``envelope_sweep`` entry
    point of the envelope unit (built on first use, apart from the sweep
    unit; see :mod:`repro.kernels.backends`).
:func:`autonomous_hb_kernel` / :func:`solve_autonomous_hb`
    The compiled route of one autonomous harmonic-balance solve: the
    whole damped Newton solve in one ``hb_solve`` call of the sweep unit
    (the unit the settle transient before it has built).
:class:`KernelizedDAE`
    A DAE proxy replacing the batched evaluations (``q_batch`` /
    ``f_batch`` / ``qf_batch`` / ``dq_dx_batch`` / ``df_dx_batch``) with
    compiled loops; everything else — forcing terms, structures, names —
    delegates to the wrapped DAE.  Used by the WaMPDE envelope and the
    ensemble lock-step engine.
"""

from __future__ import annotations

import time
from functools import cache

import numpy as np

from repro.errors import ValidationError
from repro.linalg.collocation import DENSE_MAX_UNKNOWNS
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import INVALIDATE_RTOL, SolverStats
from repro.spectral.diffmat import fourier_differentiation_matrix

from .backends import KernelBuildError, build_kernel, resolve_mode
from .registry import spec_for_dae

#: Kernels stay dense; beyond this many unknowns the O(n^3) in-kernel LU
#: loses to the sparse python path anyway.
MAX_KERNEL_UNKNOWNS = 64

#: counters layout: [steps, iterations, residual_evals, factorizations,
#: solves, rejected_steps]; the last only ``sweep_adaptive`` counts.
_N_COUNTERS = 6


def _new_info(requested):
    return {
        "requested": "auto" if requested is None else str(requested),
        "mode": "python",
        "compiled_steps": 0,
        "python_steps": 0,
        "compile_time_s": 0.0,
    }


def _build_eligible(info, veto, find_spec, spec_veto=None, unit="sweep"):
    """The eligibility ladder every compiled route climbs, then the build.

    In order: the resolved backend (an explicitly requested unavailable
    one raises :class:`~repro.errors.ConfigurationError` here, whatever
    the rest), the caller's ``veto``, the kernel spec from
    ``find_spec()``, the caller's ``spec_veto(spec)``, the dense size
    limit, and the build of ``unit`` (an ``auto`` request stays on NumPy
    when it fails).  Returns the built kernel, or ``None`` with
    ``info["reason"]`` saying why the route stays on NumPy.
    """
    requested = info["requested"]
    mode, reason = resolve_mode(requested)
    if mode == "python":
        info["reason"] = reason
        return None
    spec = None
    if veto is None:
        spec, veto = find_spec()
    if veto is None and spec_veto is not None:
        veto = spec_veto(spec)
    if veto is None and spec.n > MAX_KERNEL_UNKNOWNS:
        veto = (
            f"{spec.n} unknowns exceed the dense-kernel limit "
            f"({MAX_KERNEL_UNKNOWNS})"
        )
    if veto is not None:
        info["reason"] = veto
        return None
    try:
        built = build_kernel(spec, unit)
    except KernelBuildError as exc:
        if requested != "auto":
            raise
        info["reason"] = f"kernel build failed: {exc}"
        return None
    info["mode"] = built.mode
    info["compile_time_s"] = round(built.compile_time_s, 6)
    return built


def _integrator_id(integrator):
    """The ``integ`` code of the C step terms, or ``None``."""
    from repro.transient.integrators import (
        BackwardEuler,
        Bdf2,
        Trapezoidal,
    )

    return {BackwardEuler: 0, Trapezoidal: 1, Bdf2: 2}.get(type(integrator))


def _march_veto(opts, integrator, blocked, what):
    """Why a transient march cannot run ``what``, or ``None``."""
    if blocked is not None:
        return blocked
    if not opts.stale_jacobian or opts.linear_solver is not None:
        return f"{what} requires the chord (frozen-LU) path"
    if _integrator_id(integrator) is None:
        return (
            f"no compiled sweep for integrator {type(integrator).__name__}"
        )
    return None


class _SweepRunner:
    """State shared by the compiled marches: ring, chord state, counters.

    The history ring holds up to three ``(t, x, q, f - b)`` entries,
    oldest first, each of ``rows`` stacked states: ``()`` for the serial
    sweeps, ``(B,)`` for the lock-step ensemble (the serial ring is the
    ``B = 1`` case of the C runtime's ``(3, B, n)`` ring).
    """

    def __init__(self, built, opts, integrator, rows, dopts=(), iopts=()):
        n = built.spec.n
        self.impl = built.impl
        self.n = n
        newton = opts.newton or NewtonOptions()
        self.h_t = np.zeros(3)
        self.h_x = np.zeros((3,) + rows + (n,))
        self.h_q = np.zeros_like(self.h_x)
        self.h_fb = np.zeros_like(self.h_x)
        # hstate[0] = occupied ring entries.
        self.hstate = np.zeros(1, dtype=np.int64)
        # flags = [have_factors, rebuild_factors_from_meta_on_entry]
        self.flags = np.zeros(2, dtype=np.int64)
        self.A = np.zeros(rows + (n, n))
        self.piv = np.zeros(rows + (n,), dtype=np.int64)
        # [alpha, beta, x rows...] of the matrix the frozen LU holds.
        self.jac_meta = np.zeros(2 + self.h_x[0].size)
        # [params_alpha, last_alpha, live_dt]; nan = unset (the python
        # controllers' note_parameters bookkeeping; live_dt is the
        # adaptive sweep's).
        self.reg = np.full(3, np.nan)
        # [newton_atol, newton_rtol, contraction, param_rtol, *dopts]
        self.dopts = np.array([
            newton.atol, newton.rtol, float(opts.refresh_contraction),
            INVALIDATE_RTOL, *dopts,
        ])
        self.iopts = np.array([
            newton.max_iterations, newton.max_step_halvings,
            _integrator_id(integrator), *iopts,
        ], dtype=np.int64)
        self.counters = np.zeros(_N_COUNTERS, dtype=np.int64)
        self.out_x = np.empty((0,) + rows + (n,))
        # xc, xn, dxs, rc, rn, qv, fv, rhs, then flat dq and df scratch.
        self.work = tuple(np.empty(rows + (n,)) for _ in range(8)) + (
            np.empty(n * n), np.empty(n * n),
        )
        self.last_wall = 0.0

    def _load_ring(self, history):
        hc = min(len(history), 3)
        self.hstate[0] = hc
        for j, (ht, hx, hq, hfb) in enumerate(history[-hc:]):
            self.h_t[j] = ht
            self.h_x[j] = hx
            self.h_q[j] = hq
            self.h_fb[j] = hfb

    def export_history(self):
        hc = int(self.hstate[0])
        return [
            (float(self.h_t[j]), self.h_x[j].copy(), self.h_q[j].copy(),
             self.h_fb[j].copy())
            for j in range(hc)
        ]

    def reset_counters(self):
        self.counters[:] = 0


class CompiledSweepRunner(_SweepRunner):
    """State + dispatch for one compiled serial transient march.

    Drives two generated entry points over the same state arrays: the
    fixed-step ``sweep`` (grid forcing) and the adaptive-step
    ``sweep_adaptive`` (constant forcing row, in-kernel local-error dt
    controller; the live dt persists in ``reg[2]`` across calls).
    """

    def __init__(self, built, opts, integrator):
        super().__init__(
            built, opts, integrator, (),
            # err_atol, err_rtol, dt_min, dt_max, t_stop: read by the
            # adaptive sweep only.
            dopts=(
                float(getattr(opts, "atol", 1e-9)),
                float(getattr(opts, "rtol", 1e-6)),
                float(getattr(opts, "dt_min", 1e-18)),
                float(getattr(opts, "dt_max", np.inf)),
                0.0,
            ),
            iopts=(int(getattr(integrator, "order", 1)),),
        )
        self.p = np.ascontiguousarray(built.spec.params_rows[0])
        self.out_t = np.empty(0)

    def load(self, history, controller):
        """Seed ring + chord state from the engine's live bookkeeping."""
        self._load_ring(history)
        meta = controller.core.factor_metadata()
        if meta is not None:
            alpha, beta, xj = meta
            self.jac_meta[0] = alpha
            self.jac_meta[1] = beta
            self.jac_meta[2:] = xj
            self.flags[:] = 1  # held; rebuild the LU from meta on entry
        else:
            self.flags[:] = 0
        if controller._last_alpha is not None:
            self.reg[1] = float(controller._last_alpha)
        alpha_param = controller.core._params.get("alpha")
        if alpha_param is not None:
            self.reg[0] = float(alpha_param)

    def run(self, t_grid, b_grid, gi_start, gi_end):
        count = gi_end - gi_start
        if self.out_x.shape[0] < count:
            self.out_x = np.empty((count, self.n))
        start = time.perf_counter()
        status = self.impl.sweep(
            t_grid, b_grid, gi_start, gi_end,
            self.h_t, self.h_x, self.h_q, self.h_fb, self.hstate,
            self.flags, self.A, self.piv, self.jac_meta, self.reg,
            self.dopts, self.iopts, self.p, self.out_x, self.counters,
            *self.work,
        )
        self.last_wall = time.perf_counter() - start
        return int(status)

    def run_adaptive(self, b_row, t_stop, max_accept):
        """March up to ``max_accept`` accepted adaptive steps.

        ``reg[2]`` carries the live dt in and out, so chunked calls
        continue the dt sequence exactly where the previous chunk (or
        the python controller, via the caller seeding ``reg[2]``) left
        it.
        """
        if self.out_t.shape[0] < max_accept:
            self.out_t = np.empty(max_accept)
            self.out_x = np.empty((max_accept, self.n))
        self.dopts[8] = float(t_stop)
        start = time.perf_counter()
        status = self.impl.sweep_adaptive(
            b_row, max_accept,
            self.h_t, self.h_x, self.h_q, self.h_fb, self.hstate,
            self.flags, self.A, self.piv, self.jac_meta, self.reg,
            self.dopts, self.iopts, self.p, self.out_t, self.out_x,
            self.counters, *self.work,
        )
        self.last_wall = time.perf_counter() - start
        return int(status)

    def sync_controller(self, controller):
        """Push ring-side chord state back into the python controller.

        After this the controller's checkpoint/warm exports describe the
        same frozen matrix the kernel holds (refactorised python-side
        from the (alpha, beta, x) metadata when a NumPy step needs it —
        deterministic, so a resumed run reproduces the uninterrupted
        trajectory bit for bit).
        """
        core = controller.core
        if self.flags[0]:
            meta = (float(self.jac_meta[0]), float(self.jac_meta[1]),
                    self.jac_meta[2:].copy())
            core.refactor_at(meta, controller.matrix_at)
        else:
            core.invalidate()
        if np.isfinite(self.reg[1]):
            controller._last_alpha = float(self.reg[1])
        if np.isfinite(self.reg[0]):
            core._params["alpha"] = float(self.reg[0])


def prepare_transient_runner(dae, opts, integrator, blocked=None):
    """Resolve/compile the serial sweep kernel for one transient run.

    One runner serves both serial entry points: the fixed-step
    ``sweep`` and the adaptive ``sweep_adaptive``.  Returns
    ``(runner, info)``; ``runner`` is ``None`` whenever the run stays on
    the python path, with ``info["reason"]`` saying why.  An explicitly
    requested unavailable backend raises
    :class:`~repro.errors.ConfigurationError` (from ``resolve_mode``)
    regardless of eligibility, so misconfiguration surfaces eagerly.
    """
    info = _new_info(getattr(opts, "kernel", "auto"))
    built = _build_eligible(
        info, _march_veto(opts, integrator, blocked, "compiled sweep"),
        lambda: spec_for_dae(dae),
        lambda spec: (
            "per-scenario parameter stacks run through the batched "
            "ensemble path" if spec.stacked else None
        ),
    )
    if built is None:
        return None, info
    return CompiledSweepRunner(built, opts, integrator), info


class EnsembleSweepRunner(_SweepRunner):
    """State + dispatch for one compiled batched lock-step ensemble march.

    The generated ``sweep_ens`` advances all ``B`` scenarios through
    whole chunks of the shared fixed-step grid: one (3, B, n) history
    ring, a (B, n, n) frozen-LU factor stack, per-scenario convergence /
    abandonment masks and per-scenario iteration counters (``iters_b``).
    Scenarios the vectorised chord cannot converge hand the whole step
    back to the python engine, whose per-scenario ``SolverCore`` rescue
    path is unchanged.
    """

    def __init__(self, built, opts, integrator, batch):
        self.batch = int(batch)
        super().__init__(built, opts, integrator, (self.batch,))
        P = np.ascontiguousarray(built.spec.params_rows)
        self.P = P
        self.pstride = P.shape[1] if P.shape[0] > 1 else 0
        self.iters_b = np.zeros(self.batch, dtype=np.int64)
        self.masks = np.zeros((6, self.batch), dtype=np.int64)
        self.fwork = np.zeros((3, self.batch))

    def load(self, history, controller):
        """Seed the ring from the engine's live history.

        The chord enters cold (``flags[0] = 0``): the engine only
        reloads after python-handled steps, and the python chord always
        invalidates its factor stack on the handback that caused them —
        so the kernel's first step refactorises exactly where the python
        march would.  The ensemble controller tracks one alpha, so both
        alpha registers carry it.
        """
        self._load_ring(history)
        self.flags[:] = 0
        alpha = controller._alpha
        self.reg[:2] = np.nan if alpha is None else float(alpha)

    def run(self, t_grid, b_grid, gi_start, gi_end):
        count = gi_end - gi_start
        if self.out_x.shape[0] < count:
            self.out_x = np.empty((count, self.batch, self.n))
        start = time.perf_counter()
        status = self.impl.sweep_ens(
            t_grid, b_grid, gi_start, gi_end, self.batch, self.pstride,
            self.h_t, self.h_x, self.h_q, self.h_fb, self.hstate,
            self.flags, self.A, self.piv, self.jac_meta, self.reg,
            self.dopts, self.iopts, self.P, self.out_x, self.counters,
            self.iters_b, *self.work, self.masks, self.fwork,
        )
        self.last_wall = time.perf_counter() - start
        return int(status)

    def reset_counters(self):
        super().reset_counters()
        self.iters_b[:] = 0

    def sync_controller(self, controller):
        """Push the tracked integrator weight back into the controller.

        The factor stack itself never crosses back (the python chord
        re-enters cold after any handback, matching ``load``); only the
        ``_notify_alpha`` bookkeeping must stay continuous so a python
        step after a handback judges dt jumps against the kernel's last
        weight.
        """
        if np.isfinite(self.reg[0]):
            controller._alpha = float(self.reg[0])
        if not self.flags[0]:
            controller.chord.invalidate()


def prepare_ensemble_runner(ensemble, opts, integrator, blocked=None):
    """Resolve/compile the batched lock-step sweep for one ensemble run.

    Returns ``(runner, info)`` exactly like
    :func:`prepare_transient_runner`; ``runner`` is ``None`` whenever the
    march stays on the NumPy lock-step path, with ``info["reason"]``
    recording the machine-readable cause.
    """
    info = _new_info(getattr(opts, "kernel", "auto"))
    built = _build_eligible(
        info,
        _march_veto(opts, integrator, blocked, "compiled ensemble sweep"),
        ensemble.kernel_spec, unit="ensemble",
    )
    if built is None:
        return None, info
    runner = EnsembleSweepRunner(built, opts, integrator, ensemble.batch_size)
    return runner, info


class EnvelopeSweepRunner:
    """State + dispatch for one compiled fixed-step WaMPDE envelope march.

    ``envelope_sweep`` advances whole chunks of envelope steps per call:
    the quadratic predictor over a ring of ``[samples, omega]`` rows, the
    theta-step residual of the step's
    :class:`~repro.linalg.collocation.WarpedCollocationSystem`, chord
    iterations on LAPACK LU factors of the bordered step matrix (assembled
    and refactorised in C), the ``h``/``omega`` jump test of
    :meth:`~repro.linalg.solver_core.SolverCore.note_parameters` and the
    ``omega > 0`` check.  The factors' ``(z, h)`` metadata and the
    registered parameters cross to the march's
    :class:`~repro.linalg.solver_core.SolverCore` in :meth:`load` and
    :meth:`sync`.  One runner serves one run: ctypes releases the GIL
    during the call, so it must not be shared across threads.
    """

    def __init__(self, built, system, core, h):
        m, n = system.num_t1, system.n
        size = m * n + 1
        newton = core.options.newton or NewtonOptions()
        self.impl = built.impl
        self.shape = (m, n)
        self.ring_t = np.zeros(3)
        self.ring_z = np.zeros((3, size))
        # hstate[0] = occupied ring entries.
        self.hstate = np.zeros(1, dtype=np.int64)
        # flags = [have_factors, rebuild_factors_from_meta_on_entry]
        self.flags = np.zeros(2, dtype=np.int64)
        self.A = np.zeros((size, size))
        self.ipiv = np.zeros(size, dtype=np.intc)
        # [h, z] of the matrix the factors hold.
        self.jac_meta = np.zeros(size + 1)
        # The registered [h, omega]; nan = unset.
        self.reg = np.full(2, np.nan)
        self.dopts = np.array([
            newton.atol, newton.rtol, float(core.options.contraction),
            INVALIDATE_RTOL, float(system.theta), float(h),
            float(system.target),
        ])
        self.iopts = np.array([
            newton.max_iterations, newton.max_step_halvings, m,
        ], dtype=np.int64)
        self.p = np.ascontiguousarray(built.spec.params_rows[0])
        self.D1 = np.ascontiguousarray(system.diffmat, dtype=float)
        self.phase = np.ascontiguousarray(system.phase_row, dtype=float)
        self.counters = np.zeros(_N_COUNTERS, dtype=np.int64)
        self.out_z = np.empty((0, size))
        # Two iterates (z and r: size; q, f and D1 q: m n), the update,
        # q_old, rhs_old, the step-start metadata, dq and df per point.
        self.work = np.empty(
            2 * (2 * size + 3 * (size - 1)) + size + 2 * (size - 1)
            + size + 1 + 2 * m * n * n
        )
        self.last_wall = 0.0

    def load(self, history, core):
        """Seed the ring, factors and registers from the live march.

        Held factors are rebuilt in C from the core's ``(z, h)``
        metadata on entry, so a resumed or warm-started run factorises
        the matrix the exporting run's kernel held.
        """
        hc = min(len(history), 3)
        self.hstate[0] = hc
        for j, (t, z) in enumerate(history[-hc:]):
            self.ring_t[j] = t
            self.ring_z[j] = z
        meta = core.factor_metadata()
        if meta is not None:
            z, h = meta
            self.jac_meta[0] = h
            self.jac_meta[1:] = z
            self.flags[:] = 1
        else:
            self.flags[:] = 0
        params = core.export_warm_state()["params"]
        self.reg[:] = [params.get("h", np.nan), params.get("omega", np.nan)]

    def run(self, t2_grid, b_grid, g_start, g_end):
        """March steps ``g_start .. g_end - 1`` of the grid; returns the
        status (0, or the failing step's code, that step uncommitted)."""
        count = g_end - g_start
        if self.out_z.shape[0] < count:
            self.out_z = np.empty((count, self.ring_z.shape[1]))
        start = time.perf_counter()
        status = self.impl.envelope_sweep(
            t2_grid, b_grid, g_start, g_end, self.ring_t, self.ring_z,
            self.hstate, self.flags, self.A, self.ipiv, self.jac_meta,
            self.reg, self.dopts, self.iopts, self.p, self.D1, self.phase,
            self.out_z, self.counters, self.work,
        )
        self.last_wall = time.perf_counter() - start
        return int(status)

    def columns(self, done):
        """The ``(omega, samples)`` of the last run's ``done`` steps."""
        rows = self.out_z[:done]
        return rows[:, -1], rows[:, :-1].reshape((done,) + self.shape)

    def export_history(self):
        """The ring as the driver's ``[(t2, [samples, omega])]`` history."""
        return [(float(self.ring_t[j]), self.ring_z[j].copy())
                for j in range(int(self.hstate[0]))]

    def sync(self, core, matrix_at):
        """Push the factors' metadata and the registers to ``core``.

        The core then holds factors of the matrix at the kernel's
        ``(z, h)`` (factorised by NumPy only if a NumPy step after a
        handback needs them) or none, so its checkpoints, warm exports
        and that step see the kernel's chord state.
        """
        if self.flags[0]:
            meta = (self.jac_meta[1:].copy(), float(self.jac_meta[0]))
            core.refactor_at(meta, matrix_at)
        else:
            core.invalidate()
        core.adopt_warm_state({"params": {
            key: float(value) for key, value in zip(("h", "omega"), self.reg)
            if np.isfinite(value)
        }})


def prepare_envelope_runner(dae, info, system, core, h, blocked=None):
    """Build the compiled route of one fixed-step WaMPDE envelope run.

    ``dae`` and ``info`` come from :func:`maybe_kernelize_batch`: the
    route needs its :class:`KernelizedDAE` (a resolved C backend and a
    spec without parameter stacks); ``blocked`` is the caller's own
    veto.  Returns ``(runner, info)``, the info gaining
    ``compiled_steps``/``python_steps``; ``runner`` is ``None`` when the
    march stays on the NumPy stepper, with ``info["reason"]`` saying
    why.
    """
    info = dict(info, compiled_steps=0, python_steps=0)
    if not isinstance(dae, KernelizedDAE):
        return None, info
    veto = blocked
    if veto is None and core.mode != "chord":
        veto = ("the compiled envelope march runs chord Newton on the "
                "default linear solver")
    if veto is None and core.ladder[0] != "chord":
        veto = "the compiled envelope march needs a ladder starting at 'chord'"
    if veto is None and system.total + 1 > DENSE_MAX_UNKNOWNS:
        veto = (f"{system.total + 1} envelope unknowns exceed the dense "
                f"limit ({DENSE_MAX_UNKNOWNS})")
    if veto is None:
        try:
            built = build_kernel(dae._spec, unit="envelope")
        except KernelBuildError as exc:
            if info["requested"] != "auto":
                raise
            veto = f"kernel build failed: {exc}"
    if veto is not None:
        info["mode"] = "python"
        info["reason"] = veto
        return None, info
    info["compile_time_s"] = round(
        info["compile_time_s"] + built.compile_time_s, 6
    )
    return EnvelopeSweepRunner(built, system, core, h), info


@cache
def _unit_diffmat(num):
    """The period-1 t1 differentiation matrix of ``num`` samples, built
    once per ``num`` and read-only."""
    diffmat = fourier_differentiation_matrix(num)
    diffmat.flags.writeable = False
    return diffmat


def autonomous_hb_kernel(dae, options, size):
    """The compiled route of one autonomous harmonic-balance solve.

    ``options`` are the solve's
    :class:`~repro.linalg.solver_core.SolverCoreOptions` and ``size`` its
    unknowns (``N n + 1``).  The solve runs compiled when ``"auto"``
    resolves to C (``$REPRO_KERNEL`` included), the options are the
    default full Newton (mode ``"full"``, linear solver ``None`` or
    ``"lu"``, ladder ``None`` or ``"default"``), ``dae`` lowers through
    :func:`spec_for_dae` with one parameter row and the bordered matrix
    is dense (``size <= DENSE_MAX_UNKNOWNS``).  Returns ``(built,
    reason)``: the sweep unit, or ``None`` and why the solve stays on
    NumPy.
    """
    info = _new_info("auto")
    veto = None
    if (options.mode != "full" or options.linear_solver not in (None, "lu")
            or options.ladder not in (None, "default")):
        veto = ("the compiled HB solve runs full Newton on the default "
                "linear solver and ladder")
    elif size > DENSE_MAX_UNKNOWNS:
        veto = (f"{size} HB unknowns exceed the dense limit "
                f"({DENSE_MAX_UNKNOWNS})")
    built = _build_eligible(
        info, veto, lambda: spec_for_dae(dae),
        lambda spec: (
            "per-scenario parameter stacks have no compiled HB solve"
            if spec.stacked else None
        ),
    )
    return built, info.get("reason")


def solve_autonomous_hb(built, z, data, num, newton):
    """One autonomous HB solve through the sweep unit's ``hb_solve``.

    ``z`` is the equilibrated ``[samples, nu]`` start, solved in place;
    ``data`` is ``[atol, rtol, target, b, S, R, phase row]`` (see
    :mod:`repro.kernels.codegen`) and ``newton`` gives the budgets.  The
    buffers are the call's own: ctypes releases the GIL during it.
    Returns ``(status, stats)``: ``hb_solve``'s status and, for status 0,
    the :class:`~repro.linalg.solver_core.SolverStats` the NumPy core
    would report.
    """
    n = built.spec.n
    size = z.size
    counters = np.zeros(4, dtype=np.int64)
    start = time.perf_counter()
    status = built.impl.hb_solve(
        z, data, np.ascontiguousarray(built.spec.params_rows[0]),
        _unit_diffmat(num),
        np.array([newton.max_iterations, newton.max_step_halvings, num],
                 dtype=np.int64),
        counters,
        np.empty(size * size + 2 * (2 * size + 3 * (size - 1)) + size
                 + 2 * num * n * n),
        np.empty(size, dtype=np.intc),
    )
    wall = time.perf_counter() - start
    _, iterations, residuals, factorizations = (int(c) for c in counters)
    return status, SolverStats(
        solves=1, iterations=iterations, residual_evaluations=residuals,
        jacobian_refreshes=factorizations, factorizations=factorizations,
        wall_time_s=wall,
    )


class _BatchWork:
    """One batch size's arrays for a :class:`KernelizedDAE`, with the
    compiled calls bound to them."""

    __slots__ = ("X", "Q", "F", "DQ", "DF", "qf", "jac")

    def __init__(self, impl, params, batch, n):
        self.X = np.empty((batch, n))
        self.Q = np.empty((batch, n))
        self.F = np.empty((batch, n))
        self.DQ = np.empty((batch, n, n))
        self.DF = np.empty((batch, n, n))
        self.qf, self.jac = impl.bind_batch(
            self.X, params, self.Q, self.F, self.DQ, self.DF
        )


class KernelizedDAE:
    """DAE proxy with compiled batched evaluations.

    Scalar evaluations, forcing terms, structures and names delegate to
    the wrapped DAE, so engines see an interchangeable object; only the
    hot batched loops change implementation.

    Each batch size gets one workspace — input states, the four outputs
    and the compiled calls bound to them — built on its first call, so
    a call copies the states in, runs the bound call and returns copies
    of the outputs (callers keep results across calls).  The workspace
    makes a proxy unsafe to share across threads (ctypes releases the
    GIL during the call); the engines build one per run.
    """

    def __init__(self, dae, built):
        self._dae = dae
        self._impl = built.impl
        self._spec = built.spec
        self._params = np.ascontiguousarray(built.spec.params_rows)
        self._work = {}
        self.n = dae.n
        self.variable_names = dae.variable_names

    def __getattr__(self, name):
        return getattr(self._dae, name)

    def _bound(self, states):
        """The workspace of this batch size, holding ``states``."""
        X = np.asarray(states, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValidationError(
                f"batched states must have shape (batch, {self.n}), got "
                f"{X.shape}"
            )
        batch = X.shape[0]
        rows = self._params.shape[0]
        if rows > 1 and batch != rows:
            raise ValidationError(
                f"stacked-parameter kernel expects batches of {rows} "
                f"states, got {batch}"
            )
        work = self._work.get(batch)
        if work is None:
            work = self._work[batch] = _BatchWork(
                self._impl, self._params, batch, self.n
            )
        work.X[...] = X
        return work

    def qf_batch(self, states):
        work = self._bound(states)
        work.qf()
        return work.Q.copy(), work.F.copy()

    def q_batch(self, states):
        return self.qf_batch(states)[0]

    def f_batch(self, states):
        return self.qf_batch(states)[1]

    def dq_dx_batch(self, states):
        work = self._bound(states)
        work.jac()
        return work.DQ.copy()

    def df_dx_batch(self, states):
        work = self._bound(states)
        work.jac()
        return work.DF.copy()


def maybe_kernelize_batch(dae, kernel_option, expected_batch=None):
    """Wrap ``dae`` in a :class:`KernelizedDAE` when possible.

    Returns ``(dae_or_proxy, info)``.  ``"auto"`` kernelises whenever a
    compiled backend is available — the envelope engines and the
    ensemble engine (for its python-handled steps) all default on;
    ``kernel="python"`` is the escape hatch back to the NumPy batch
    path.
    """
    info = _new_info(kernel_option)
    del info["compiled_steps"], info["python_steps"]
    built = _build_eligible(
        info, None, lambda: spec_for_dae(dae),
        lambda spec: (
            "per-scenario parameter stacks do not match this batch layout"
            if spec.stacked and (
                expected_batch is None
                or spec.params_rows.shape[0] != expected_batch
            ) else None
        ),
    )
    if built is None:
        return dae, info
    return KernelizedDAE(dae, built), info
