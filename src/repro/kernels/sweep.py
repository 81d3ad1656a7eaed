"""Drivers wiring built kernels into the engines.

:class:`CompiledSweepRunner`
    Owns the state arrays of one fixed-step transient march (history
    ring, frozen dense LU, chord bookkeeping registers, counters) and
    runs N grid steps per :meth:`run` call through the generated
    ``sweep`` entry point.  The transient engine chunks calls at
    checkpoint boundaries and hands any non-converged step back to the
    python slow path, so the recovery ladder, checkpointing and failure
    semantics are unchanged.
:class:`KernelizedDAE`
    A DAE proxy replacing the batched evaluations (``q_batch`` /
    ``f_batch`` / ``qf_batch`` / ``dq_dx_batch`` / ``df_dx_batch``) with
    compiled loops; everything else — forcing terms, structures, names —
    delegates to the wrapped DAE.  Used by the WaMPDE envelope and the
    ensemble lock-step engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ValidationError
from repro.linalg.newton import NewtonOptions

from .backends import KernelBuildError, build_kernel, resolve_mode
from .registry import spec_for_dae

#: Kernels stay dense; beyond this many unknowns the O(n^3) in-kernel LU
#: loses to the sparse python path anyway.
MAX_KERNEL_UNKNOWNS = 64

#: counters layout: [steps, iterations, residual_evals, factorizations,
#: solves, reserved]
_N_COUNTERS = 6


def _new_info(requested):
    return {
        "requested": "auto" if requested is None else str(requested),
        "mode": "python",
        "compiled_steps": 0,
        "python_steps": 0,
        "compile_time_s": 0.0,
    }


def _build_with_fallback(spec, requested, info):
    """Build ``spec``, leaving auto requests on python on failure."""
    try:
        return build_kernel(spec)
    except KernelBuildError as exc:
        if requested != "auto":
            raise
        info["reason"] = f"kernel build failed: {exc}"
        return None


class CompiledSweepRunner:
    """State + dispatch for one compiled serial transient march.

    Drives two generated entry points over the same state arrays: the
    fixed-step ``sweep`` (grid forcing) and the adaptive-step
    ``sweep_adaptive`` (constant forcing row, in-kernel local-error dt
    controller; the live dt persists in ``reg[2]`` across calls).
    """

    def __init__(self, built, opts, integrator_id, order=1):
        spec = built.spec
        n = spec.n
        self.impl = built.impl
        self.n = n
        newton = opts.newton or NewtonOptions()
        # History ring, oldest-first; hstate[0] = occupied rows.
        self.h_t = np.zeros(3)
        self.h_x = np.zeros((3, n))
        self.h_q = np.zeros((3, n))
        self.h_fb = np.zeros((3, n))
        self.hstate = np.zeros(1, dtype=np.int64)
        # flags = [have_factors, refactor_from_meta_on_entry]
        self.flags = np.zeros(2, dtype=np.int64)
        self.A = np.zeros((n, n))
        self.piv = np.zeros(n, dtype=np.int64)
        # [alpha, beta, x...] of the matrix the frozen LU was built from.
        self.jac_meta = np.zeros(2 + n)
        # [params_alpha, last_alpha, live_dt]; nan = unset (mirrors the
        # python controller's note_parameters bookkeeping).
        self.reg = np.full(3, np.nan)
        # [newton_atol, newton_rtol, contraction, param_rtol,
        #  err_atol, err_rtol, dt_min, dt_max, t_stop] — the serial
        # fixed-step sweep reads only the first four.
        self.dopts = np.array([
            newton.atol, newton.rtol,
            float(opts.refresh_contraction), 0.25,
            float(getattr(opts, "atol", 1e-9)),
            float(getattr(opts, "rtol", 1e-6)),
            float(getattr(opts, "dt_min", 1e-18)),
            float(getattr(opts, "dt_max", np.inf)),
            0.0,
        ])
        self.iopts = np.array([
            newton.max_iterations, newton.max_step_halvings, integrator_id,
            int(order),
        ], dtype=np.int64)
        self.p = np.ascontiguousarray(spec.params_rows[0])
        self.counters = np.zeros(_N_COUNTERS, dtype=np.int64)
        self.out_t = np.empty(0)
        self.out_x = np.empty((0, n))
        self.scratch = tuple(np.empty(n) for _ in range(8)) + (
            np.empty(n * n), np.empty(n * n),
        )
        self.last_wall = 0.0

    def load(self, history, controller):
        """Seed ring + chord state from the engine's live bookkeeping."""
        hc = min(len(history), 3)
        self.hstate[0] = hc
        for j, (ht, hx, hq, hfb) in enumerate(history[-hc:]):
            self.h_t[j] = ht
            self.h_x[j] = hx
            self.h_q[j] = hq
            self.h_fb[j] = hfb
        meta = controller.core.factor_metadata()
        if meta is not None:
            alpha, beta, xj = meta
            self.jac_meta[0] = alpha
            self.jac_meta[1] = beta
            self.jac_meta[2:] = xj
            self.flags[0] = 1
            self.flags[1] = 1  # rebuild the LU from meta on entry
        else:
            self.flags[0] = 0
            self.flags[1] = 0
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
            *self.scratch,
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
            self.counters, *self.scratch,
        )
        self.last_wall = time.perf_counter() - start
        return int(status)

    def reset_counters(self):
        self.counters[:] = 0

    def export_history(self):
        hc = int(self.hstate[0])
        return [
            (float(self.h_t[j]), self.h_x[j].copy(), self.h_q[j].copy(),
             self.h_fb[j].copy())
            for j in range(hc)
        ]

    def sync_controller(self, controller):
        """Push ring-side chord state back into the python controller.

        After this the controller's checkpoint/warm exports describe the
        same frozen matrix the kernel holds (refactorised python-side
        from the (alpha, beta, x) metadata — deterministic, so a resumed
        run reproduces the uninterrupted trajectory bit for bit).
        """
        core = controller.core
        if self.flags[0]:
            meta = (self.jac_meta[0], self.jac_meta[1], self.jac_meta[2:])
            core.refactor_at(meta, controller.matrix_at)
        else:
            core.invalidate()
        if np.isfinite(self.reg[1]):
            controller._last_alpha = float(self.reg[1])
        if np.isfinite(self.reg[0]):
            core._params["alpha"] = float(self.reg[0])


def prepare_transient_runner(dae, opts, integrator, blocked=None):
    """Resolve/compile the fixed-step sweep kernel for one transient run.

    Returns ``(runner, info)``; ``runner`` is ``None`` whenever the run
    stays on the python path, with ``info["reason"]`` saying why.  An
    explicitly requested unavailable backend raises
    :class:`~repro.errors.ConfigurationError` (from ``resolve_mode``)
    regardless of eligibility, so misconfiguration surfaces eagerly.
    """
    from repro.transient.integrators import (
        BackwardEuler,
        Bdf2,
        Trapezoidal,
    )

    requested = getattr(opts, "kernel", "auto")
    mode, reason = resolve_mode(requested)
    info = _new_info(requested)
    if mode == "python":
        info["reason"] = reason
        return None, info
    if blocked is not None:
        info["reason"] = blocked
        return None, info
    if not opts.stale_jacobian or opts.linear_solver is not None:
        info["reason"] = "compiled sweep requires the chord (frozen-LU) path"
        return None, info
    integrator_id = {BackwardEuler: 0, Trapezoidal: 1, Bdf2: 2}.get(
        type(integrator)
    )
    if integrator_id is None:
        info["reason"] = (
            f"no compiled sweep for integrator "
            f"{type(integrator).__name__}"
        )
        return None, info
    spec, why = spec_for_dae(dae)
    if spec is None:
        info["reason"] = why
        return None, info
    if spec.stacked:
        info["reason"] = (
            "per-scenario parameter stacks run through the batched "
            "ensemble path"
        )
        return None, info
    if spec.n > MAX_KERNEL_UNKNOWNS:
        info["reason"] = (
            f"{spec.n} unknowns exceed the dense-kernel limit "
            f"({MAX_KERNEL_UNKNOWNS})"
        )
        return None, info
    built = _build_with_fallback(spec, info["requested"], info)
    if built is None:
        return None, info
    runner = CompiledSweepRunner(
        built, opts, integrator_id, order=getattr(integrator, "order", 1)
    )
    info["mode"] = built.mode
    info["compile_time_s"] = round(built.compile_time_s, 6)
    return runner, info


class EnsembleSweepRunner:
    """State + dispatch for one compiled batched lock-step ensemble march.

    The generated ``sweep_ens`` advances all ``B`` scenarios through
    whole chunks of the shared fixed-step grid: one (3, B, n) history
    ring, a (B, n, n) frozen-LU factor stack, per-scenario convergence /
    abandonment masks and per-scenario iteration counters (``iters_b``).
    Scenarios the vectorised chord cannot converge hand the whole step
    back to the python engine, whose per-scenario ``SolverCore`` rescue
    path is unchanged.
    """

    def __init__(self, built, opts, integrator_id, batch):
        spec = built.spec
        n = spec.n
        self.impl = built.impl
        self.n = n
        self.batch = int(batch)
        B = self.batch
        newton = opts.newton or NewtonOptions()
        self.h_t = np.zeros(3)
        self.h_x = np.zeros((3, B, n))
        self.h_q = np.zeros((3, B, n))
        self.h_fb = np.zeros((3, B, n))
        self.hstate = np.zeros(1, dtype=np.int64)
        # flags = [have_factors, refactor_stack_from_meta_on_entry]
        self.flags = np.zeros(2, dtype=np.int64)
        self.A = np.zeros((B, n, n))
        self.piv = np.zeros((B, n), dtype=np.int64)
        # [alpha, beta, x rows...] of the frozen factor stack.
        self.jac_meta = np.zeros(2 + B * n)
        # [tracked_alpha]; nan = unset (the ensemble controller's
        # _notify_alpha bookkeeping).
        self.reg = np.full(1, np.nan)
        self.dopts = np.array([
            newton.atol, newton.rtol,
            float(opts.refresh_contraction), 0.25,
        ])
        self.iopts = np.array([
            newton.max_iterations, newton.max_step_halvings, integrator_id,
        ], dtype=np.int64)
        P = np.ascontiguousarray(spec.params_rows)
        self.P = P
        self.pstride = P.shape[1] if P.shape[0] > 1 else 0
        self.counters = np.zeros(_N_COUNTERS, dtype=np.int64)
        self.iters_b = np.zeros(B, dtype=np.int64)
        self.out_x = np.empty((0, B, n))
        self.work = tuple(np.empty((B, n)) for _ in range(8)) + (
            np.empty(n * n), np.empty(n * n),
        )
        self.masks = np.zeros((6, B), dtype=np.int64)
        self.fwork = np.zeros((3, B))
        self.last_wall = 0.0

    def load(self, history, controller):
        """Seed the ring from the engine's live history.

        The chord enters cold (``flags[0] = 0``): the engine only
        reloads after python-handled steps, and the python chord always
        invalidates its factor stack on the handback that caused them —
        so the kernel's first step refactorises exactly where the python
        march would.
        """
        hc = min(len(history), 3)
        self.hstate[0] = hc
        for j, (ht, hx, hq, hfb) in enumerate(history[-hc:]):
            self.h_t[j] = ht
            self.h_x[j] = hx
            self.h_q[j] = hq
            self.h_fb[j] = hfb
        self.flags[0] = 0
        self.flags[1] = 0
        alpha = controller._alpha
        self.reg[0] = np.nan if alpha is None else float(alpha)

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
        self.counters[:] = 0
        self.iters_b[:] = 0

    def export_history(self):
        hc = int(self.hstate[0])
        return [
            (float(self.h_t[j]), self.h_x[j].copy(), self.h_q[j].copy(),
             self.h_fb[j].copy())
            for j in range(hc)
        ]

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
    from repro.transient.integrators import (
        BackwardEuler,
        Bdf2,
        Trapezoidal,
    )

    requested = getattr(opts, "kernel", "auto")
    mode, reason = resolve_mode(requested)
    info = _new_info(requested)
    if mode == "python":
        info["reason"] = reason
        return None, info
    if blocked is not None:
        info["reason"] = blocked
        return None, info
    if not opts.stale_jacobian or opts.linear_solver is not None:
        info["reason"] = (
            "compiled ensemble sweep requires the chord (frozen-LU) path"
        )
        return None, info
    integrator_id = {BackwardEuler: 0, Trapezoidal: 1, Bdf2: 2}.get(
        type(integrator)
    )
    if integrator_id is None:
        info["reason"] = (
            f"no compiled sweep for integrator "
            f"{type(integrator).__name__}"
        )
        return None, info
    spec, why = ensemble.kernel_spec()
    if spec is None:
        info["reason"] = why
        return None, info
    if spec.n > MAX_KERNEL_UNKNOWNS:
        info["reason"] = (
            f"{spec.n} unknowns exceed the dense-kernel limit "
            f"({MAX_KERNEL_UNKNOWNS})"
        )
        return None, info
    built = _build_with_fallback(spec, info["requested"], info)
    if built is None:
        return None, info
    runner = EnsembleSweepRunner(
        built, opts, integrator_id, ensemble.batch_size
    )
    info["mode"] = built.mode
    info["compile_time_s"] = round(built.compile_time_s, 6)
    return runner, info


class KernelizedDAE:
    """DAE proxy with compiled batched evaluations.

    Scalar evaluations, forcing terms, structures and names delegate to
    the wrapped DAE, so engines see an interchangeable object; only the
    hot batched loops change implementation.
    """

    def __init__(self, dae, built):
        self._dae = dae
        self._impl = built.impl
        self._spec = built.spec
        self._params = np.ascontiguousarray(built.spec.params_rows)
        self.n = dae.n
        self.variable_names = dae.variable_names

    def __getattr__(self, name):
        return getattr(self._dae, name)

    def _states(self, states):
        X = np.ascontiguousarray(np.asarray(states, dtype=float))
        if self._params.shape[0] > 1 and X.shape[0] != self._params.shape[0]:
            raise ValidationError(
                f"stacked-parameter kernel expects batches of "
                f"{self._params.shape[0]} states, got {X.shape[0]}"
            )
        return X

    def qf_batch(self, states):
        X = self._states(states)
        batch = X.shape[0]
        Q = np.empty((batch, self.n))
        F = np.empty((batch, self.n))
        self._impl.eval_qf_batch(X, self._params, Q, F)
        return Q, F

    def q_batch(self, states):
        return self.qf_batch(states)[0]

    def f_batch(self, states):
        return self.qf_batch(states)[1]

    def dq_dx_batch(self, states):
        return self._jac_batch(states)[0]

    def df_dx_batch(self, states):
        return self._jac_batch(states)[1]

    def _jac_batch(self, states):
        X = self._states(states)
        batch = X.shape[0]
        DQ = np.empty((batch, self.n * self.n))
        DF = np.empty((batch, self.n * self.n))
        self._impl.eval_jac_batch(X, self._params, DQ, DF)
        return (DQ.reshape(batch, self.n, self.n),
                DF.reshape(batch, self.n, self.n))


def maybe_kernelize_batch(dae, kernel_option, expected_batch=None):
    """Wrap ``dae`` in a :class:`KernelizedDAE` when possible.

    Returns ``(dae_or_proxy, info)``.  ``"auto"`` kernelises whenever a
    compiled backend is available — the envelope engines and the
    ensemble engine (for its python-handled steps) all default on;
    ``kernel="python"`` is the escape hatch back to the NumPy batch
    path.
    """
    requested = "auto" if kernel_option is None else str(kernel_option)
    mode, reason = resolve_mode(requested)
    info = _new_info(requested)
    del info["compiled_steps"], info["python_steps"]
    if mode == "python":
        info["reason"] = reason
        return dae, info
    spec, why = spec_for_dae(dae)
    if spec is None:
        info["reason"] = why
        return dae, info
    if spec.stacked and (expected_batch is None
                         or spec.params_rows.shape[0] != expected_batch):
        info["reason"] = (
            "per-scenario parameter stacks do not match this batch layout"
        )
        return dae, info
    if spec.n > MAX_KERNEL_UNKNOWNS:
        info["reason"] = (
            f"{spec.n} unknowns exceed the dense-kernel limit "
            f"({MAX_KERNEL_UNKNOWNS})"
        )
        return dae, info
    built = _build_with_fallback(spec, requested, info)
    if built is None:
        return dae, info
    info["mode"] = built.mode
    info["compile_time_s"] = round(built.compile_time_s, 6)
    return KernelizedDAE(dae, built), info
