"""Transient simulation driver.

The inner loop is built around *reuse*:

* the step Jacobian ``alpha * dQ + beta * dF`` is assembled through a
  :class:`repro.linalg.transient_assembler.TransientStepAssembler` whose
  structure is computed once per run from the DAE's structural masks;
* the per-step Newton solve runs through the shared
  :class:`repro.linalg.solver_core.SolverCore` — the same driver the
  collocation engines use — defaulting to the stale-Jacobian chord policy
  (:class:`repro.linalg.newton.StaleJacobianNewton`): one factorisation is
  reused across Newton iterations *and* accepted steps, refreshed only on
  slow convergence or a step-size change, with a damped full-Newton
  fallback whose freshly factorised Jacobian the chord policy adopts;
* in fixed-step runs the forcing ``b(t)`` is evaluated for the whole grid
  in one batched call up front, and each accepted step reuses the ``q`` /
  ``f`` values of its final Newton residual for the integrator history
  instead of re-evaluating them.

:func:`simulate_transient_with_sensitivity` additionally propagates the
forward sensitivity ``dX/dx0`` (and optionally the period derivative)
alongside the state — the single-sweep monodromy used by
:mod:`repro.steadystate.shooting`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, SimulationError
from repro.kernels.registry import constant_forcing_row
from repro.kernels.sweep import prepare_transient_runner
from repro.linalg.lu_cache import FrozenFactorization
from repro.linalg.newton import NewtonOptions, NewtonResult
from repro.linalg.solver_core import (
    FunctionSystem,
    SolverCore,
    SolverCoreOptions,
    SolverOptionsMixin,
)
from repro.linalg.transient_assembler import TransientStepAssembler
from repro.resilience.checkpoint import Checkpoint, CheckpointManager
from repro.transient.integrators import get_integrator
from repro.transient.results import TransientResult
from repro.utils.validation import check_positive

#: Forcing grids beyond this many steps are evaluated per step instead of
#: being precomputed (memory guard for extreme horizons).
_MAX_FORCING_GRID = 4_000_000

#: Accepted-step capacity of one compiled adaptive chunk (bounds the
#: kernel's out_t/out_x allocation; checkpoint cadence cuts chunks
#: shorter anyway).
_ADAPTIVE_CHUNK = 65_536


@dataclass
class TransientOptions(SolverOptionsMixin):
    """Configuration for :func:`simulate_transient`.

    The ``newton``/``linear_solver``/``ladder`` fields come from the
    shared :class:`~repro.linalg.solver_core.SolverOptionsMixin`.

    Attributes
    ----------
    integrator:
        ``"be"``, ``"trap"`` or ``"bdf2"`` (or an Integrator instance).
    dt:
        Fixed step size (required when ``adaptive`` is False).
    adaptive:
        Enable proportional step control from a predictor-corrector error
        estimate.
    rtol, atol:
        Local-error weights for the adaptive controller.
    dt_min, dt_max:
        Step bounds for the adaptive controller.
    newton:
        Options for the per-step Newton solve.  The default keeps
        ``raise_on_failure=False`` so the engine owns failure handling:
        a diverged step halves ``dt`` and retries, and when the controller
        hits ``dt_min`` a :class:`~repro.errors.SimulationError` carrying
        the step index, time and last Newton residual is raised — Newton
        divergence is never silently swallowed.
    max_steps:
        Hard limit on accepted steps (guards against runaway loops).
    store_every:
        Keep every k-th accepted point (1 = keep all).
    stale_jacobian:
        Use the chord/modified-Newton policy (factorisation reuse across
        iterations and steps).  Disable to recover one fresh Jacobian per
        Newton iteration.
    refresh_contraction:
        Chord policy knob: refactorise when the residual contracts slower
        than this factor per iteration.
    linear_solver:
        Optional ``(matrix, rhs) -> x`` callable for the Newton linear
        solves (e.g. :class:`repro.linalg.gmres.GmresLinearSolver` with a
        frozen-LU preconditioner for large circuits).  Implies full-Newton
        iterations (a fresh Jacobian per iteration, assembled through the
        pattern-reuse :class:`~repro.linalg.transient_assembler.\
TransientStepAssembler`); if the solver exposes ``invalidate()`` it is
        called on significant step-size changes.
    ladder:
        Recovery-ladder spec forwarded to the step
        :class:`~repro.linalg.solver_core.SolverCore` (``None`` — the
        historical policy; ``"extended"`` — Jacobian refresh, GMRES retry
        and pseudo-transient continuation appended; or an explicit rung
        tuple, see :class:`~repro.linalg.solver_core.SolverCoreOptions`).
    checkpoint_every:
        Accepted steps between resumable snapshots (0 disables periodic
        snapshots; a failing run still attaches a final checkpoint to its
        :class:`~repro.errors.SimulationError`).
    checkpoint_path:
        Optional file path the latest snapshot is spooled to (atomic
        write-and-rename), for crash recovery across processes.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(raise_on_failure=False)
    )
    integrator: object = "trap"
    dt: float | None = None
    adaptive: bool = False
    rtol: float = 1e-6
    atol: float = 1e-9
    dt_min: float = 1e-18
    dt_max: float = np.inf
    max_steps: int = 20_000_000
    store_every: int = 1
    stale_jacobian: bool = True
    refresh_contraction: float = 0.05
    checkpoint_every: int = 0
    checkpoint_path: object = None


class _StepController:
    """Per-run Newton machinery shared by all steps of one transient run.

    Owns the pattern-reuse Jacobian assembler and a
    :class:`repro.linalg.solver_core.SolverCore` carrying the whole Newton
    policy — the same core every collocation engine uses: chord with a
    damped full-Newton fallback (the engine default), full Newton with an
    optional custom linear solver, dt-jump invalidation via
    ``note_parameters``, and the uniform
    :class:`~repro.linalg.solver_core.SolverStats` surfaced as
    ``result.stats["solver"]``.  The controller itself only adapts the
    step residual/Jacobian closures and the engine's failure semantics
    (a step must *return* non-convergence so the dt controller can react).
    """

    def __init__(self, dae, opts):
        self.dae = dae
        self.opts = opts
        self.assembler = TransientStepAssembler(
            dae.dq_structure(), dae.df_structure()
        )
        mode = (
            "chord"
            if opts.stale_jacobian and opts.linear_solver is None
            else "full"
        )
        self.core = SolverCore(SolverCoreOptions(
            mode=mode,
            newton=opts.newton,
            linear_solver=opts.linear_solver,
            contraction=opts.refresh_contraction,
            # The engine's historical dt policy: drop frozen factors when
            # the integrator weight alpha ~ 1/dt jumps by more than 25%.
            invalidate_rtol=0.25,
            ladder=getattr(opts, "ladder", None),
        ))
        self._last_alpha = None
        # (alpha, beta, x) of the most recent step-Jacobian assembly — the
        # metadata a checkpoint stores instead of the (unpicklable)
        # factorisation itself.  Refreshed inside the jacobian closure, so
        # it tracks exactly the matrix the chord policy holds factors of.
        self._jac_meta = None

    @property
    def fallbacks(self):
        """Steps that fell back to damped full Newton."""
        return self.core.stats.fallbacks

    def factorizations(self):
        """Total factorisations across the core's backends."""
        return self.core.stats.factorizations

    def invalidate(self):
        self.core.invalidate()

    def adopt(self, factorization):
        """Adopt an exact, externally factorised step Jacobian (chord)."""
        self.core.adopt_factorization(factorization)

    def factor_metadata(self):
        """Checkpointable description of the frozen chord factorisation.

        Returns ``(alpha, beta, x)`` — enough to re-assemble and
        refactorise the exact matrix the chord policy currently holds —
        or ``None`` when no factors are frozen (full mode, or right after
        an invalidation), in which case a resumed run starts unfactored
        exactly like the live run would have continued.
        """
        chord = self.core._chord
        if chord is not None and chord._have and self._jac_meta is not None:
            alpha, beta, x = self._jac_meta
            return (float(alpha), float(beta), np.array(x))
        return None

    def solver_snapshot(self):
        """Checkpointable solver-core bookkeeping (stats + parameters)."""
        return {
            "stats": self.core.stats.as_dict(),
            "params": dict(self.core._params),
            "last_alpha": self._last_alpha,
        }

    def restore(self, snapshot, factor_meta):
        """Rebuild the controller state captured by a checkpoint.

        Factorising the re-assembled matrix is deterministic (SuperLU/
        LAPACK on identical input), so after this call the chord policy
        makes bit-for-bit the decisions of the uninterrupted run.
        """
        stats = self.core.stats
        for key, value in snapshot["stats"].items():
            setattr(stats, key, value)
        self.core._params.update(snapshot["params"])
        self._last_alpha = snapshot["last_alpha"]
        if factor_meta is not None and self.core._chord is not None:
            alpha, beta, x = factor_meta
            matrix = self.assembler.refresh(
                alpha, self.dae.dq_dx(x), beta, self.dae.df_dx(x)
            )
            self.core.adopt_factorization(FrozenFactorization().factor(matrix))
            self._jac_meta = (alpha, beta, np.array(x, dtype=float))

    def solve_step(self, integrator, history, t_new, b_new, x_guess):
        """Solve one implicit step towards ``t_new``.

        Returns ``(result, q_new, fb_new, alpha, beta)`` where ``q_new`` /
        ``fb_new`` are ``q(x)`` and ``f(x) - b(t_new)`` at the final Newton
        iterate — exactly the history entries the next step consumes.
        """
        dae = self.dae
        alpha, rhs_const, beta = integrator.residual_terms(dae, history, t_new)
        if alpha != self._last_alpha:
            # Fixed-step runs keep one alpha; skip the (kwargs) call on
            # the unchanged common case.
            self.core.note_parameters(alpha=alpha)
            self._last_alpha = alpha
        stash = [None, None]

        def residual(x_trial):
            q, fv = dae.qf(x_trial)
            fb = fv - b_new
            stash[0] = q
            stash[1] = fb
            r = alpha * q
            r += rhs_const
            r += beta * fb
            return r

        assembler = self.assembler
        controller = self

        def jacobian(x_trial):
            controller._jac_meta = (
                alpha, beta, np.array(x_trial, dtype=float)
            )
            return assembler.refresh(
                alpha, dae.dq_dx(x_trial), beta, dae.df_dx(x_trial)
            )

        try:
            # The fallback restarts from the last accepted state rather
            # than the (possibly bad) predictor.
            result = self.core.solve(
                FunctionSystem(residual, jacobian), x_guess,
                fallback_z0=history[-1][1],
            )
        except ConvergenceError as exc:
            # Includes SingularJacobianError: a singular or non-finite step
            # Jacobian at some trial iterate is treated as a step failure —
            # a smaller dt makes the step matrix more diagonally dominant —
            # and surfaces as a SimulationError with step/time context if
            # the controller runs out of dt.
            result = NewtonResult(
                np.asarray(history[-1][1], dtype=float), False,
                exc.iterations or 0,
                float("nan") if exc.residual_norm is None
                else exc.residual_norm,
            )
        return result, stash[0], stash[1], alpha, beta


def _forcing_grid(dae, t_start, t_stop, dt, max_points=None):
    """Uniform step times and batched forcing values for a fixed-step run."""
    if max_points is None:
        max_points = _MAX_FORCING_GRID
    span = t_stop - t_start
    n_steps = max(int(np.ceil(span / dt - 1e-9)), 1)
    if n_steps > max_points:
        return None, None
    times = t_start + dt * np.arange(1, n_steps + 1)
    times[-1] = t_stop
    return times, dae.b_batch(times)


def _extrapolate(history, t_new):
    """Polynomial predictor through the last accepted states.

    Used as the Newton initial guess only — it changes how fast Newton
    reaches the step's solution, never the solution itself.
    """
    if len(history) >= 3:
        (ta, xa, _, _), (tb, xb, _, _), (tc, xc, _, _) = history[-3:]
        if ta != tb and tb != tc and ta != tc:
            la = (t_new - tb) * (t_new - tc) / ((ta - tb) * (ta - tc))
            lb = (t_new - ta) * (t_new - tc) / ((tb - ta) * (tb - tc))
            lc = (t_new - ta) * (t_new - tb) / ((tc - ta) * (tc - tb))
            return la * xa + lb * xb + lc * xc
    if len(history) >= 2:
        (t1, x1, _, _), (t2, x2, _, _) = history[-2:]
        if t2 != t1:
            return x2 + (x2 - x1) * ((t_new - t2) / (t2 - t1))
    return history[-1][1]


def simulate_transient(dae, x0, t_start, t_stop, options=None,
                       resume_from=None, warm_start=None):
    """Integrate ``d/dt q(x) + f(x) = b(t)`` from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    dae:
        A :class:`~repro.dae.base.SemiExplicitDAE`.
    x0:
        Initial state; assumed consistent (use
        :func:`repro.steadystate.dc.dc_operating_point` to get one).
        Ignored when ``resume_from`` is given.
    t_start, t_stop:
        Simulation window, ``t_stop > t_start``.  A resumed run must be
        called with the window of the original run.
    options:
        :class:`TransientOptions`.  ``checkpoint_every``/
        ``checkpoint_path`` control periodic snapshots; any
        :class:`~repro.errors.SimulationError` raised mid-run carries a
        final snapshot as ``exc.checkpoint`` and the accepted trajectory
        prefix as ``exc.partial_result``.
    resume_from:
        A :class:`~repro.resilience.Checkpoint` (or a path to one saved
        on disk) produced by a previous run with the same ``dae``,
        window and options.  The run continues from the snapshot and —
        because the snapshot carries the integrator history, controller
        parameters and frozen-factorisation metadata — produces a
        trajectory bit-identical with the uninterrupted run's.
    warm_start:
        Optional warm-start seed (duck-typed, typically
        :class:`repro.service.cache.WarmStart`): supplies ``x0`` when it
        is passed as ``None`` and pre-adopts a previously exported solver
        state plus frozen step-Jacobian metadata, so the run starts with
        chord factors in hand.  :meth:`SolverCore.note_parameters` still
        drops them on an ``alpha`` jump, so a badly matched seed degrades
        to a cold start.  Ignored when ``resume_from`` is given.

    Returns
    -------
    TransientResult
    """
    opts = options or TransientOptions()
    integrator = get_integrator(opts.integrator)
    if not t_stop > t_start:
        raise SimulationError(
            f"t_stop must exceed t_start, got [{t_start}, {t_stop}]"
        )
    if not opts.adaptive:
        if opts.dt is None:
            raise SimulationError("fixed-step transient requires options.dt")
        check_positive(opts.dt, "options.dt")

    controller = _StepController(dae, opts)
    manager = CheckpointManager(
        every=opts.checkpoint_every, path=opts.checkpoint_path
    )

    if resume_from is not None:
        if isinstance(resume_from, (str, os.PathLike)):
            resume_from = Checkpoint.load(resume_from)
        if resume_from.kind != "transient":
            raise SimulationError(
                f"cannot resume a transient run from a "
                f"{resume_from.kind!r} checkpoint"
            )
        payload = resume_from.payload
        t = float(resume_from.t)
        dt = float(resume_from.dt)
        history = [
            (float(ht), np.array(hx), np.array(hq), np.array(hfb))
            for ht, hx, hq, hfb in payload["history"]
        ]
        x = history[-1][1].copy()
        stored_t = list(payload["stored_t"])
        stored_x = [np.array(v) for v in payload["stored_x"]]
        stats = dict(payload["stats"])
        accepted_since_store = payload["accepted_since_store"]
        controller.restore(payload["solver"], payload.get("factor_meta"))
        t_grid = b_grid = None
        grid_idx = payload["grid_idx"]
        if payload["grid_active"] and not opts.adaptive:
            t_grid, b_grid = _forcing_grid(
                dae, t_start, t_stop, float(opts.dt)
            )
    else:
        if x0 is None and warm_start is not None:
            x0 = getattr(warm_start, "x0", None)
        if x0 is None:
            raise SimulationError(
                "x0 is required (directly or via warm_start)"
            )
        x = np.array(x0, dtype=float).ravel()
        if x.size != dae.n:
            raise SimulationError(
                f"initial state has length {x.size}, DAE has {dae.n} unknowns"
            )

        t = float(t_start)
        dt = (
            float(opts.dt) if opts.dt is not None
            else (t_stop - t_start) / 1000.0
        )
        if opts.adaptive:
            # The first step has no predictor and therefore no error
            # control; start tiny and let the controller grow the step
            # geometrically.
            dt = min(dt, (t_stop - t_start) * 1e-6)
            dt = max(dt, opts.dt_min)

        # History entries: (t, x, q, f - b) — integrators consume these.
        history = [(t, x.copy(), dae.q(x), dae.f(x) - dae.b(t))]

        # Fixed-step fast path: whole forcing grid in one batched call.
        t_grid = b_grid = None
        grid_idx = 0
        if not opts.adaptive:
            t_grid, b_grid = _forcing_grid(dae, t_start, t_stop, dt)

        stored_t = [t]
        stored_x = [x.copy()]
        stats = {
            "steps": 0,
            "rejected_steps": 0,
            "newton_iterations": 0,
            "newton_failures": 0,
            "newton_fallbacks": 0,
            "jacobian_factorizations": 0,
        }
        accepted_since_store = 0
        if warm_start is not None:
            warm_state = getattr(warm_start, "solver_state", None)
            if warm_state:
                controller.core.adopt_warm_state(warm_state)
            warm_meta = getattr(warm_start, "factor_meta", None)
            if warm_meta is not None and controller.core._chord is not None:
                w_alpha, w_beta, w_x = warm_meta
                matrix = controller.assembler.refresh(
                    w_alpha, dae.dq_dx(w_x), w_beta, dae.df_dx(w_x)
                )
                controller.core.adopt_factorization(
                    FrozenFactorization().factor(matrix)
                )
                controller._jac_meta = (
                    w_alpha, w_beta, np.array(w_x, dtype=float)
                )

    # Compiled fast path (ROADMAP item 1).  Resolution runs even for
    # ineligible runs so an explicitly requested unavailable backend
    # raises eagerly instead of silently running the python loop.
    b_const = None
    if opts.adaptive:
        b_const = constant_forcing_row(dae, float(t_start))
        if b_const is None:
            kernel_blocked = (
                "adaptive compiled sweeps need time-invariant forcing; "
                "this DAE's b(t) varies"
            )
        else:
            kernel_blocked = None
    elif t_grid is None:
        kernel_blocked = (
            "no precomputed forcing grid (horizon exceeds the batch "
            "limit or a resumed run had abandoned the grid)"
        )
    else:
        kernel_blocked = None
    kernel_runner, kernel_info = prepare_transient_runner(
        dae, opts, integrator, blocked=kernel_blocked
    )
    stats["kernel"] = kernel_info
    kernel_steps0 = stats["steps"]  # nonzero on resumed runs

    def take_checkpoint():
        # Reads the enclosing locals at call time, so it always snapshots
        # the last *accepted* state (failed attempts never advance them).
        return Checkpoint(
            kind="transient",
            step=stats["steps"],
            t=t,
            dt=dt,
            payload={
                "history": [
                    (float(ht), np.array(hx), np.array(hq), np.array(hfb))
                    for ht, hx, hq, hfb in history
                ],
                "stored_t": list(stored_t),
                "stored_x": [np.array(v) for v in stored_x],
                "accepted_since_store": accepted_since_store,
                "stats": dict(stats),
                "grid_active": t_grid is not None,
                "grid_idx": grid_idx,
                "t_start": float(t_start),
                "t_stop": float(t_stop),
                "solver": controller.solver_snapshot(),
                "factor_meta": controller.factor_metadata(),
            },
        )

    def fail(message, step_dt, result=None):
        # Every mid-run failure carries full structured context: where the
        # engine died, a salvageable trajectory prefix, and a resumable
        # snapshot of the last accepted state.
        kernel_info["python_steps"] = (
            stats["steps"] - kernel_steps0 - kernel_info["compiled_steps"]
        )
        stats_out = dict(stats)
        stats_out["newton_fallbacks"] = controller.fallbacks
        stats_out["jacobian_factorizations"] = controller.factorizations()
        stats_out["solver"] = controller.core.stats.as_dict()
        partial = TransientResult(
            np.asarray(stored_t),
            np.asarray(stored_x),
            dae.variable_names,
            stats_out,
        )
        raise SimulationError(
            message,
            step=stats["steps"],
            time=t,
            dt=step_dt,
            residual_norm=(
                result.residual_norm if result is not None else None
            ),
            iterations=result.iterations if result is not None else None,
            checkpoint=manager.take(take_checkpoint),
            partial_result=partial,
        )

    def _kernel_march():
        # Fused fixed-step march: N grid steps per call into the
        # compiled sweep, zero python in between.  Chunks end exactly at
        # checkpoint cadence points and at max_steps, and after every
        # chunk the python-side controller is resynchronised, so
        # checkpoints, warm exports and counters stay truthful.  Any
        # non-zero status hands the offending step (and the rest of the
        # run) back to the python loop below — the recovery ladder and
        # failure semantics are untouched.
        nonlocal t, x, dt, history, grid_idx, accepted_since_store
        nonlocal kernel_runner
        runner = kernel_runner
        tg = np.ascontiguousarray(t_grid, dtype=float)
        bg = np.ascontiguousarray(b_grid, dtype=float)
        runner.load(history, controller)
        core_stats = controller.core.stats
        while (t < t_stop - 1e-15 * max(abs(t_stop), 1.0)
               and grid_idx < tg.shape[0]):
            cap = opts.max_steps - stats["steps"]
            if cap <= 0:
                fail(
                    f"exceeded max_steps={opts.max_steps} at t={t:.6e}",
                    dt,
                )
            end = min(tg.shape[0], grid_idx + cap)
            if manager.every:
                boundary = manager.every - stats["steps"] % manager.every
                end = min(end, grid_idx + boundary)
            status = runner.run(tg, bg, grid_idx, end)
            done = int(runner.counters[0])
            stats["newton_iterations"] += int(runner.counters[1])
            core_stats.solves += int(runner.counters[4])
            core_stats.iterations += int(runner.counters[1])
            core_stats.residual_evaluations += int(runner.counters[2])
            core_stats.factorizations += int(runner.counters[3])
            core_stats.jacobian_refreshes += int(runner.counters[3])
            core_stats.wall_time_s += runner.last_wall
            runner.reset_counters()
            if done:
                out = runner.out_x
                last = grid_idx + done
                if opts.store_every == 1:
                    stored_t.extend(tg[grid_idx:last])
                    stored_x.extend(out[:done].copy())
                    accepted_since_store = 0
                else:
                    for j in range(done):
                        accepted_since_store += 1
                        tj = tg[grid_idx + j]
                        if (accepted_since_store >= opts.store_every
                                or tj >= t_stop):
                            stored_t.append(tj)
                            stored_x.append(out[j].copy())
                            accepted_since_store = 0
                t = tg[last - 1]
                prev = tg[last - 2] if last >= 2 else t_start
                dt = min(float(tg[last - 1] - prev), opts.dt_max)
                history = runner.export_history()
                x = history[-1][1].copy()
                grid_idx = last
                stats["steps"] += done
                kernel_info["compiled_steps"] += done
                runner.sync_controller(controller, dae)
                manager.offer(stats["steps"], take_checkpoint)
                if stats["steps"] >= opts.max_steps:
                    fail(
                        f"exceeded max_steps={opts.max_steps} "
                        f"at t={t:.6e}",
                        dt,
                    )
            else:
                runner.sync_controller(controller, dae)
            if status != 0:
                kernel_info["reason"] = (
                    f"compiled sweep returned status {status} at step "
                    f"{stats['steps']}; python recovery ladder resumed"
                )
                kernel_runner = None
                return

    def _kernel_adaptive_march():
        # Adaptive twin of _kernel_march: the in-kernel local-error dt
        # controller (constant forcing row) runs whole chunks between
        # accepted-step checkpoints.  The live dt crosses the boundary in
        # runner.reg[2] both ways, and a status-4 underflow exits
        # *without* committing the final shrink, so the python replay of
        # the offending attempt reproduces the exact failure.
        nonlocal t, x, dt, history, accepted_since_store
        nonlocal kernel_runner
        runner = kernel_runner
        b_row = np.ascontiguousarray(b_const, dtype=float)
        runner.load(history, controller)
        runner.reg[2] = dt
        core_stats = controller.core.stats
        while t < t_stop - 1e-15 * max(abs(t_stop), 1.0):
            cap = opts.max_steps - stats["steps"]
            if cap <= 0:
                fail(
                    f"exceeded max_steps={opts.max_steps} at t={t:.6e}",
                    dt,
                )
            chunk = min(cap, _ADAPTIVE_CHUNK)
            if manager.every:
                boundary = manager.every - stats["steps"] % manager.every
                chunk = min(chunk, boundary)
            status = runner.run_adaptive(b_row, t_stop, chunk)
            done = int(runner.counters[0])
            stats["newton_iterations"] += int(runner.counters[1])
            stats["rejected_steps"] += int(runner.counters[5])
            core_stats.solves += int(runner.counters[4])
            core_stats.iterations += int(runner.counters[1])
            core_stats.residual_evaluations += int(runner.counters[2])
            core_stats.factorizations += int(runner.counters[3])
            core_stats.jacobian_refreshes += int(runner.counters[3])
            core_stats.wall_time_s += runner.last_wall
            runner.reset_counters()
            dt = float(runner.reg[2])
            if done:
                if opts.store_every == 1:
                    stored_t.extend(runner.out_t[:done])
                    stored_x.extend(runner.out_x[:done].copy())
                    accepted_since_store = 0
                else:
                    for j in range(done):
                        accepted_since_store += 1
                        tj = float(runner.out_t[j])
                        if (accepted_since_store >= opts.store_every
                                or tj >= t_stop):
                            stored_t.append(tj)
                            stored_x.append(runner.out_x[j].copy())
                            accepted_since_store = 0
                t = float(runner.out_t[done - 1])
                history = runner.export_history()
                x = history[-1][1].copy()
                stats["steps"] += done
                kernel_info["compiled_steps"] += done
                runner.sync_controller(controller, dae)
                manager.offer(stats["steps"], take_checkpoint)
                if stats["steps"] >= opts.max_steps:
                    fail(
                        f"exceeded max_steps={opts.max_steps} "
                        f"at t={t:.6e}",
                        dt,
                    )
            else:
                runner.sync_controller(controller, dae)
            if status != 0:
                kernel_info["reason"] = (
                    f"compiled adaptive sweep returned status {status} at "
                    f"step {stats['steps']}; python adaptive loop resumed"
                )
                kernel_runner = None
                return

    if kernel_runner is not None:
        if opts.adaptive:
            _kernel_adaptive_march()
        elif t_grid is not None:
            _kernel_march()

    while t < t_stop - 1e-15 * max(abs(t_stop), 1.0):
        if t_grid is not None:
            t_new = t_grid[grid_idx]
            b_new = b_grid[grid_idx]
            dt = t_new - t
        else:
            dt = min(dt, t_stop - t)
            t_new = t + dt
            b_new = dae.b(t_new)

        x_guess = _extrapolate(history, t_new)
        result, q_new, fb_new, _alpha, _beta = controller.solve_step(
            integrator, history, t_new, b_new, x_guess
        )
        stats["newton_iterations"] += result.iterations

        if not result.converged:
            stats["newton_failures"] += 1
            dt *= 0.5
            # The step grid is no longer uniform; fall back to per-step
            # forcing evaluation for the rest of the run.
            t_grid = b_grid = None
            if dt < opts.dt_min:
                fail(
                    f"step size underflow at step {stats['steps']}, "
                    f"t={t:.6e}: Newton diverged with dt={2 * dt:.3e} "
                    f"(residual norm {result.residual_norm:.3e} after "
                    f"{result.iterations} iterations)",
                    2 * dt,
                    result,
                )
            continue

        x_new = result.x

        if opts.adaptive:
            x_pred = _predict(history, t_new)
            if x_pred is not None:
                scale = opts.atol + opts.rtol * np.maximum(
                    np.abs(x_new), np.abs(x)
                )
                err = float(
                    np.sqrt(np.mean(((x_new - x_pred) / scale) ** 2))
                )
                # The predictor is itself order >= 1 accurate; treat the
                # discrepancy as the local error of the lower order.
                if err > 1.0:
                    stats["rejected_steps"] += 1
                    dt = max(
                        dt * max(0.2, 0.9 * err ** (-1.0 / (integrator.order + 1))),
                        opts.dt_min,
                    )
                    if dt <= opts.dt_min:
                        fail(
                            f"step size underflow at step {stats['steps']}, "
                            f"t={t:.6e}: local-error control rejected "
                            f"dt={dt:.3e} (error estimate {err:.3e})",
                            dt,
                            result,
                        )
                    continue
                growth = 0.9 * err ** (-1.0 / (integrator.order + 1)) if err > 0 else 5.0
                dt_next = dt * min(5.0, max(0.2, growth))
            else:
                dt_next = dt
        else:
            dt_next = dt

        # Accept the step.
        t = t_new
        x = x_new
        history.append((t, x.copy(), q_new, fb_new))
        if len(history) > max(integrator.steps, 2) + 1:
            history.pop(0)
        if t_grid is not None:
            grid_idx += 1

        stats["steps"] += 1
        accepted_since_store += 1
        if accepted_since_store >= opts.store_every or t >= t_stop:
            stored_t.append(t)
            stored_x.append(x.copy())
            accepted_since_store = 0

        dt = min(dt_next, opts.dt_max)
        manager.offer(stats["steps"], take_checkpoint)
        if stats["steps"] >= opts.max_steps:
            fail(
                f"exceeded max_steps={opts.max_steps} at t={t:.6e}", dt
            )

    kernel_info["python_steps"] = (
        stats["steps"] - kernel_steps0 - kernel_info["compiled_steps"]
    )
    stats["newton_fallbacks"] = controller.fallbacks
    stats["jacobian_factorizations"] = controller.factorizations()
    stats["solver"] = controller.core.stats.as_dict()
    if controller.core.recovery:
        stats["recovery"] = controller.core.recovery.as_dict()
    stats["warm"] = {
        "factor_meta": controller.factor_metadata(),
        "solver_state": controller.core.export_warm_state(),
    }

    return TransientResult(
        np.asarray(stored_t),
        np.asarray(stored_x),
        dae.variable_names,
        stats,
    )


@dataclass
class TransientSensitivityResult:
    """Outcome of :func:`simulate_transient_with_sensitivity`.

    Attributes
    ----------
    result:
        The :class:`~repro.transient.results.TransientResult` of the sweep.
    sensitivity:
        ``(n, k)`` forward sensitivity ``dX(t_stop)/dx0 @ s0`` (the
        monodromy matrix when ``s0`` is the identity over one period).
    period_sensitivity:
        ``(n,)`` derivative of the final state with respect to the sweep
        length ``T = t_stop - t_start`` under the convention that the whole
        uniform step grid scales with ``T`` (``dt = T / steps``); ``None``
        unless requested.
    """

    result: TransientResult
    sensitivity: np.ndarray
    period_sensitivity: np.ndarray = None


def simulate_transient_with_sensitivity(dae, x0, t_start, t_stop,
                                        options=None, s0=None,
                                        period_sensitivity=False):
    """Fixed-step transient with forward sensitivity propagation.

    Integrates ``S(t) = dX(t)/dx0`` alongside the state in the *same*
    sweep: each accepted step evaluates the exact step Jacobian once at the
    converged state, factorises it once, and solves all ``n`` sensitivity
    right-hand sides (plus the optional period column) against that single
    factorisation.  Differentiating the discrete step residual gives

        (alpha dQ_new + beta dF_new) S_new = - sum_i (w_q[i] dQ_i
                                                      + w_f[i] dF_i) S_i

    with the history weights of
    :meth:`repro.transient.integrators.Integrator.history_weights`, so the
    result is the exact Jacobian of the *discrete* flow map — this is what
    makes one shooting-Newton iteration cost one transient sweep instead of
    ``n + 1``.  The factorisation is also adopted as the next step's chord
    Jacobian, so the state solve gets a perfectly fresh Newton matrix for
    free.

    Parameters
    ----------
    dae, x0, t_start, t_stop:
        As for :func:`simulate_transient`.
    options:
        :class:`TransientOptions`; must describe a fixed-step run.
    s0:
        Optional ``(n, k)`` initial sensitivity (default: identity).
    period_sensitivity:
        Also propagate the derivative of the state with respect to the
        sweep length ``T`` (grid scaling ``dt = T / steps``); forcing time
        derivatives are obtained by central differences on ``b``.

    Returns
    -------
    TransientSensitivityResult
    """
    opts = options or TransientOptions()
    if opts.adaptive:
        raise SimulationError(
            "sensitivity propagation requires a fixed-step run"
        )
    if opts.dt is None:
        raise SimulationError("sensitivity propagation requires options.dt")
    check_positive(opts.dt, "options.dt")
    integrator = get_integrator(opts.integrator)
    if not t_stop > t_start:
        raise SimulationError(
            f"t_stop must exceed t_start, got [{t_start}, {t_stop}]"
        )

    n = dae.n
    x = np.array(x0, dtype=float).ravel()
    if x.size != n:
        raise SimulationError(
            f"initial state has length {x.size}, DAE has {n} unknowns"
        )
    if s0 is None:
        S = np.eye(n)
    else:
        S = np.array(s0, dtype=float)
        if S.shape[0] != n:
            raise SimulationError(
                f"s0 must have {n} rows, got shape {S.shape}"
            )

    t = float(t_start)
    dt = float(opts.dt)
    span = t_stop - t_start

    t_grid, b_grid = _forcing_grid(dae, t_start, t_stop, dt)
    if t_grid is None:
        raise SimulationError(
            f"sensitivity sweep of {(t_stop - t_start) / dt:.3g} steps "
            f"exceeds the {_MAX_FORCING_GRID} step grid limit; use fewer, "
            f"coarser steps (sensitivities do not need more resolution "
            f"than the state)"
        )
    controller = _StepController(dae, opts)
    factor = FrozenFactorization()

    bp_grid = bp0 = None
    if period_sensitivity:
        # Forcing time-derivatives on the grid (and at t_start) by central
        # differences; exact zero for autonomous systems.
        h = dt * 1e-3
        all_times = np.concatenate(([t_start], t_grid))
        bp_all = (dae.b_batch(all_times + h) - dae.b_batch(all_times - h)) \
            / (2.0 * h)
        bp0, bp_grid = bp_all[0], bp_all[1:]

    history = [(t, x.copy(), dae.q(x), dae.f(x) - dae.b(t))]
    # Parallel per-point data: (dQ, dF, S, s_T, b') aligned with `history`.
    sens_history = [(
        dae.dq_dx(x), dae.df_dx(x), S,
        np.zeros(n) if period_sensitivity else None,
        bp0,
    )]

    stored_t = [t]
    stored_x = [x.copy()]
    stats = {
        "steps": 0,
        "rejected_steps": 0,
        "newton_iterations": 0,
        "newton_failures": 0,
        "newton_fallbacks": 0,
        "jacobian_factorizations": 0,
    }
    accepted_since_store = 0
    history_cap = max(integrator.steps, 2) + 1

    for k in range(t_grid.size):
        t_new = t_grid[k]
        b_new = b_grid[k]
        x_guess = _extrapolate(history, t_new)
        result, q_new, fb_new, alpha, beta = controller.solve_step(
            integrator, history, t_new, b_new, x_guess
        )
        stats["newton_iterations"] += result.iterations
        if not result.converged:
            stats["newton_failures"] += 1
            raise SimulationError(
                f"sensitivity sweep cannot adapt its step: Newton diverged "
                f"at step {stats['steps']}, t={t:.6e}, dt={dt:.3e} "
                f"(residual norm {result.residual_norm:.3e}); increase the "
                f"number of steps",
                step=stats["steps"],
                time=t,
                dt=dt,
                residual_norm=result.residual_norm,
                iterations=result.iterations,
            )
        x_new = result.x

        # Exact step Jacobian at the converged state: one factorisation
        # serves the sensitivity right-hand sides *and* the next step's
        # chord Newton.
        dq_new = dae.dq_dx(x_new)
        df_new = dae.df_dx(x_new)
        factor.factor(
            controller.assembler.refresh(alpha, dq_new, beta, df_new)
        )
        stats["jacobian_factorizations"] += 1
        controller.adopt(factor)

        weights = integrator.history_weights(history, t_new)
        used = sens_history[-len(weights):]
        rhs = None
        rhs_t = None
        coef_q = alpha * q_new
        for (w_q, w_f), (dq_i, df_i, s_i, st_i, bp_i), \
                (t_i, _x_i, q_i, _fb_i) in zip(
                    weights, used, history[-len(weights):]):
            w_mat = w_q * dq_i
            if w_f:
                w_mat = w_mat + w_f * df_i
            rhs = w_mat @ s_i if rhs is None else rhs + w_mat @ s_i
            if period_sensitivity:
                term = w_mat @ st_i
                rhs_t = term if rhs_t is None else rhs_t + term
                coef_q = coef_q + w_q * q_i
                if w_f:
                    rhs_t = rhs_t - (w_f * (t_i - t_start) / span) * bp_i
        s_new = -factor.solve(rhs)
        st_new = None
        bp_new = None
        if period_sensitivity:
            bp_new = bp_grid[k]
            rhs_t = rhs_t - coef_q / span \
                - (beta * (t_new - t_start) / span) * bp_new
            st_new = -factor.solve(rhs_t)

        # Accept.
        t = float(t_new)
        x = x_new
        history.append((t, x.copy(), q_new, fb_new))
        sens_history.append((dq_new, df_new, s_new, st_new, bp_new))
        if len(history) > history_cap:
            history.pop(0)
            sens_history.pop(0)
        S = s_new

        stats["steps"] += 1
        accepted_since_store += 1
        if accepted_since_store >= opts.store_every or t >= t_stop:
            stored_t.append(t)
            stored_x.append(x.copy())
            accepted_since_store = 0

    stats["newton_fallbacks"] = controller.fallbacks
    stats["jacobian_factorizations"] += controller.factorizations()
    stats["solver"] = controller.core.stats.as_dict()
    if controller.core.recovery:
        stats["recovery"] = controller.core.recovery.as_dict()

    result = TransientResult(
        np.asarray(stored_t),
        np.asarray(stored_x),
        dae.variable_names,
        stats,
    )
    return TransientSensitivityResult(
        result, S, sens_history[-1][3] if period_sensitivity else None
    )


def _predict(history, t_new):
    """Linear extrapolation from the last two accepted points (or None)."""
    if len(history) < 2:
        return None
    (t1, x1, _q1, _fb1), (t2, x2, _q2, _fb2) = history[-2], history[-1]
    if t2 == t1:
        return None
    slope = (x2 - x1) / (t2 - t1)
    return x2 + slope * (t_new - t2)
