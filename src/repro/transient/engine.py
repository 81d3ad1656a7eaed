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
from repro.resilience.march import March
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

    def matrix_at(self, meta):
        """The step matrix ``alpha dQ(x) + beta dF(x)`` at ``meta``.

        Records ``(alpha, beta, x)`` as the core's
        :attr:`~repro.linalg.solver_core.SolverCore.jacobian_meta`, so it
        always describes the matrix the chord policy last factorised.
        """
        alpha, beta, x = meta
        x = np.array(x, dtype=float)
        self.core.jacobian_meta = (float(alpha), float(beta), x)
        return self.assembler.refresh(
            alpha, self.dae.dq_dx(x), beta, self.dae.df_dx(x)
        )

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

        def jacobian(x_trial):
            return self.matrix_at((alpha, beta, x_trial))

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
    # History entries: (t, x, q, f - b) — integrators consume these.
    history = None
    t_grid = b_grid = None
    grid_idx = 0
    # Set once the compiled sweep hands the rest of the run to the python
    # loop; a resumed run must stay there too to reproduce the original.
    handed_back = False

    def snapshot():
        # History arrays are replaced, never written in place, so the
        # snapshot may share them with the live run.
        return {
            "history": list(history),
            "grid_active": t_grid is not None,
            "grid_idx": grid_idx,
            "last_alpha": controller._last_alpha,
            "handed_back": handed_back,
        }

    def summarize(stats):
        kernel = stats["kernel"]
        kernel["python_steps"] = (
            stats["steps"] - kernel_steps0 - kernel["compiled_steps"]
        )
        stats["newton_fallbacks"] = controller.core.stats.fallbacks
        stats["jacobian_factorizations"] = controller.core.stats.factorizations

    march = March(
        "transient", opts, resume_from,
        result=lambda t, x, stats: TransientResult(
            t, x, dae.variable_names, stats
        ),
        fields=("t", "x"),
        snapshot=snapshot,
        counters=("rejected_steps", "newton_iterations", "newton_failures",
                  "newton_fallbacks", "jacobian_factorizations"),
        core=controller.core,
        matrix_at=controller.matrix_at,
        summarize=summarize,
        max_steps=opts.max_steps,
        warm=True,
    )
    if march.state is not None:
        state = march.state
        history = list(state["history"])
        x = history[-1][1].copy()
        controller._last_alpha = state["last_alpha"]
        grid_idx = state["grid_idx"]
        handed_back = state.get("handed_back", False)
        if state["grid_active"] and not opts.adaptive:
            t_grid, b_grid = _forcing_grid(
                dae, t_start, t_stop, float(opts.dt)
            )
        t = float(march.t)
        dt = float(march.dt)
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
        history = [(t, x.copy(), dae.q(x), dae.f(x) - dae.b(t))]
        if not opts.adaptive:
            # Fixed-step fast path: whole forcing grid in one batched call.
            t_grid, b_grid = _forcing_grid(dae, t_start, t_stop, dt)
        march.start(t, dt, x, warm_start=warm_start)
    stats = march.stats
    t_end = t_stop - 1e-15 * max(abs(t_stop), 1.0)

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
    if handed_back:
        kernel_blocked = (
            "the resumed run had handed the march back to the python loop"
        )
    kernel_runner, kernel_info = prepare_transient_runner(
        dae, opts, integrator, blocked=kernel_blocked
    )
    stats["kernel"] = kernel_info
    kernel_steps0 = stats["steps"]  # nonzero on resumed runs

    def compiled_march():
        # Whole chunks of accepted steps per call into the compiled sweep,
        # zero python in between: over the forcing grid (fixed step), or
        # under the in-kernel local-error dt controller on a constant
        # forcing row (adaptive; the live dt crosses the boundary in
        # runner.reg[2] both ways).  Chunks end at checkpoint cadence
        # points and at max_steps, and after every chunk the python-side
        # controller is resynchronised, so checkpoints, warm exports and
        # counters stay truthful.  A non-zero status hands the offending
        # step (and the rest of the run) back to the python loop below —
        # the recovery ladder and failure semantics are untouched; an
        # adaptive status-4 underflow exits *without* committing the final
        # shrink, so the python replay reproduces the exact failure.
        nonlocal t, x, dt, history, grid_idx, handed_back
        runner = kernel_runner
        runner.load(history, controller)
        if opts.adaptive:
            b_row = np.ascontiguousarray(b_const, dtype=float)
            runner.reg[2] = dt
        else:
            tg = np.ascontiguousarray(t_grid, dtype=float)
            bg = np.ascontiguousarray(b_grid, dtype=float)
        core_stats = controller.core.stats
        while t < t_end and (opts.adaptive or grid_idx < tg.shape[0]):
            if opts.adaptive:
                status = runner.run_adaptive(
                    b_row, t_stop, march.chunk_budget(_ADAPTIVE_CHUNK)
                )
                dt = float(runner.reg[2])
            else:
                status = runner.run(tg, bg, grid_idx, grid_idx
                                    + march.chunk_budget(tg.size - grid_idx))
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
            runner.sync_controller(controller)
            if done:
                if opts.adaptive:
                    times = runner.out_t[:done]
                else:
                    times = tg[grid_idx:grid_idx + done]
                    grid_idx += done
                    prev = tg[grid_idx - 2] if grid_idx >= 2 else t_start
                    dt = min(float(times[-1] - prev), opts.dt_max)
                t = float(times[-1])
                history = runner.export_history()
                x = history[-1][1].copy()
                kernel_info["compiled_steps"] += done
                march.accept_chunk(times, runner.out_x[:done], dt, t_stop)
            if status != 0:
                kernel_info["reason"] = (
                    f"compiled sweep returned status {status} at step "
                    f"{stats['steps']}; python loop resumed"
                )
                handed_back = True
                return

    if kernel_runner is not None:
        compiled_march()

    while t < t_end:
        if t_grid is not None:
            t_new = t_grid[grid_idx]
            b_new = b_grid[grid_idx]
            dt = t_new - t
        else:
            dt = min(dt, t_stop - t)
            t_new = t + dt
            b_new = dae.b(t_new)

        x_guess = _extrapolate(history, t_new)
        try:
            result, q_new, fb_new, _alpha, _beta = controller.solve_step(
                integrator, history, t_new, b_new, x_guess
            )
        except SimulationError as exc:
            raise march.fail(exc, dt)
        stats["newton_iterations"] += result.iterations

        if not result.converged:
            stats["newton_failures"] += 1
            dt *= 0.5
            # The step grid is no longer uniform; fall back to per-step
            # forcing evaluation for the rest of the run.
            t_grid = b_grid = None
            if dt < opts.dt_min:
                raise march.fail(
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
                        raise march.fail(
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
        dt = min(dt_next, opts.dt_max)
        march.accept(t, dt, x, final=t >= t_stop)

    return march.finish()


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
        controller.core.adopt_factorization(factor)

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

    stats["newton_fallbacks"] = controller.core.stats.fallbacks
    stats["jacobian_factorizations"] += controller.core.stats.factorizations
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
