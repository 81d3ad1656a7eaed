"""Lock-step transient simulation of scenario ensembles.

:func:`simulate_transient_ensemble` advances all ``B`` scenarios of an
:class:`repro.dae.ensemble.EnsembleDAE` on one shared fixed-step grid from
a single Python loop.  The per-step work is the same as
:func:`repro.transient.engine.simulate_transient`'s — predictor, chord
Newton, history recycling — but every piece carries a leading scenario
axis:

* residuals and Jacobian blocks come from one vectorised ``(B, n)`` /
  ``(B, n, n)`` ensemble evaluation per iterate instead of ``B`` separate
  calls;
* the step matrix is the block diagonal of the per-scenario
  ``alpha*dQ + dF`` blocks, assembled by one pattern-reuse
  :class:`~repro.linalg.transient_assembler.TransientStepAssembler` in
  batch mode and factorised by one batched
  :class:`~repro.linalg.lu_cache.BlockFactorization`;
* Newton convergence is judged **per scenario**: scenarios that have
  converged freeze in place while the rest keep iterating, and the chord
  refresh policy (a vectorised mirror of
  :class:`~repro.linalg.newton.StaleJacobianNewton`) refactorises all
  blocks together when any active scenario contracts too slowly;
* a scenario that diverges under the lock-step chord iteration is rescued
  *individually* — its member DAE is handed to a standard
  :class:`~repro.transient.engine._StepController`, i.e. the same
  :class:`~repro.linalg.solver_core.SolverCore` chord-with-fallback policy
  a single-scenario run uses — so one pathological scenario never stalls
  the ensemble.

Because Python/NumPy dispatch dominates small-system transient loops (see
ROADMAP), batching B scenarios makes the ensemble run in far less than
B times the single-run wall time; the ``ensemble_sweep`` bench entry
ratchets that speedup.

Two routes march the grid: the compiled C ensemble sweep (``kernel="auto"``
with a host compiler, or ``"c"``; ``sweep_ens`` in the ensemble unit of
:mod:`repro.kernels.codegen`, compiled on the first compiled ensemble run)
and the NumPy lock-step loop above, which also replays any step the
compiled sweep hands back.
``stats["kernel"]["mode"]`` and ``["reason"]`` record which route ran.
The service splits large batches into scenario shards
(:meth:`repro.api.requests.EnsembleRequest.shards`) and stitches them
back with :func:`merge_ensemble_results`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.dae.ensemble import EnsembleDAE
from repro.errors import SimulationError, SingularJacobianError
from repro.kernels.sweep import (
    maybe_kernelize_batch,
    prepare_ensemble_runner,
)
from repro.kernels.backends import resolve_mode
from repro.linalg.lu_cache import BlockFactorization
from repro.linalg.newton import update_is_small
from repro.linalg.solver_core import INVALIDATE_RTOL, SolverStats
from repro.linalg.transient_assembler import TransientStepAssembler
from repro.resilience.march import March
from repro.transient.engine import (
    _MAX_FORCING_GRID,
    TransientOptions,
    _StepController,
    extrapolate,
)
from repro.transient.integrators import get_integrator
from repro.transient.results import TransientResult
from repro.utils.validation import check_positive


class EnsembleTransientResult(SerializableMixin):
    """Lock-step time series of a scenario ensemble.

    Attributes
    ----------
    t:
        Shared accepted time points, shape ``(T,)``.
    x:
        States, shape ``(T, B, n)`` — ``x[:, b]`` is scenario ``b``'s
        trajectory.
    variable_names:
        Member-level labels, length ``n``.
    stats:
        Aggregate counters plus per-scenario detail:
        ``stats["solver_per_scenario"]`` holds one
        :class:`~repro.linalg.solver_core.SolverStats` dict per scenario
        (lock-step scenarios share residual evaluations, Jacobian
        refreshes, factorisations and wall time; iterations and fallbacks
        are tracked per scenario).
    """

    def __init__(self, t, x, variable_names, stats=None):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 3 or self.x.shape[0] != self.t.size:
            raise ValueError(
                f"states must be (T, B, n) aligned with t, got {self.x.shape}"
            )
        self.variable_names = tuple(variable_names)
        self.stats = dict(stats or {})

    @property
    def batch_size(self):
        """Number of scenarios ``B``."""
        return self.x.shape[1]

    @property
    def n(self):
        """Unknowns per scenario."""
        return self.x.shape[2]

    def member(self, index):
        """Scenario ``index``'s trajectory as a plain TransientResult."""
        stats = {
            key: value for key, value in self.stats.items()
            if np.isscalar(value)
        }
        per_scenario = self.stats.get("solver_per_scenario")
        if per_scenario is not None:
            stats["solver"] = dict(per_scenario[index])
        return TransientResult(
            self.t, self.x[:, index], self.variable_names, stats
        )

    def __len__(self):
        return self.t.size


class _EnsembleChord:
    """Vectorised chord Newton over the scenario axis.

    A lock-step mirror of :class:`repro.linalg.newton.StaleJacobianNewton`:
    one batched block factorisation is reused across iterations and
    accepted steps; convergence, line-search damping and contraction
    monitoring are all per scenario.  A scenario whose update goes
    non-finite under *fresh* factors is abandoned to the caller's
    per-scenario fallback instead of poisoning the whole batch.
    """

    def __init__(self, options, contraction, refresh_every_iteration=False):
        self.options = options
        self.contraction = float(contraction)
        self.refresh_every_iteration = bool(refresh_every_iteration)
        self.factor = BlockFactorization()
        self._have = False
        self.stats = {
            "factorizations": 0,
            "iterations": 0,
            "residual_evaluations": 0,
            "jacobian_refreshes": 0,
        }

    def invalidate(self):
        """Drop the stored factors; the next solve refactorises."""
        self._have = False

    def _refactor(self, jacobian, states, iterations=0,
                  residual_norm=float("nan")):
        try:
            self.factor.factor(jacobian(states))
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            self._have = False
            raise SingularJacobianError(
                f"ensemble chord refactorisation failed: {exc}",
                iterations=iterations,
                residual_norm=residual_norm,
            ) from exc
        self._have = True
        self.stats["factorizations"] += 1
        self.stats["jacobian_refreshes"] += 1

    def solve(self, residual, jacobian, states0):
        """Iterate all scenarios from ``states0`` (``(B, n)``).

        Returns ``(states, converged, iterations)`` where ``converged``
        and ``iterations`` are per-scenario ``(B,)`` arrays.  Scenarios
        with ``converged[b] = False`` are left at their best iterate for
        the caller's fallback.
        """
        opts = self.options
        atol = opts.atol
        stats = self.stats
        states = np.array(states0, dtype=float)
        batch = states.shape[0]
        iterations = np.zeros(batch, dtype=int)

        residuals = residual(states)
        stats["residual_evaluations"] += 1
        norms = np.max(np.abs(residuals), axis=1)
        converged = norms <= atol
        num_left = batch - int(converged.sum())
        if num_left == 0:
            return states, converged, iterations
        abandoned = np.zeros(batch, dtype=bool)

        fresh = False
        if self.refresh_every_iteration or not self._have:
            self._refactor(jacobian, states,
                           residual_norm=float(norms.max()))
            fresh = True

        iteration = 0
        while iteration < opts.max_iterations and num_left:
            active = ~(converged | abandoned)
            all_active = num_left == batch
            iteration += 1
            stats["iterations"] += 1
            if all_active:
                iterations += 1
            else:
                iterations[active] += 1
            if self.refresh_every_iteration and iteration > 1:
                self._refactor(jacobian, states, iterations=iteration,
                               residual_norm=float(norms.max()))
                fresh = True

            updates = self.factor.solve(residuals)
            finite = np.all(np.isfinite(updates), axis=1)
            if not finite.all() and not finite[active].all():
                if not fresh:
                    self._refactor(jacobian, states, iterations=iteration,
                                   residual_norm=float(norms.max()))
                    fresh = True
                    iterations[active] -= 1
                    stats["iterations"] -= 1
                    iteration -= 1
                    continue
                # Fresh factors and still non-finite: hand those scenarios
                # to the per-scenario fallback, keep iterating the rest.
                abandoned |= active & ~finite
                active = active & finite
                all_active = False
                num_left = int(active.sum())
                if not num_left:
                    break

            # Converged/abandoned scenarios freeze in place; the masked
            # update keeps their rows (and history stash rows) consistent.
            if all_active:
                trial = states - updates
            else:
                trial = np.where(active[:, None], states - updates, states)
            trial_residuals = residual(trial)
            stats["residual_evaluations"] += 1
            trial_norms = np.max(np.abs(trial_residuals), axis=1)

            improved = (trial_norms < norms) | (trial_norms <= atol)
            if not improved.all():
                uphill = active & ~improved
                if uphill.any():
                    if not fresh:
                        # Blame staleness first: refactorise at the
                        # current iterates and retry the iteration for
                        # everyone.
                        self._refactor(jacobian, states, iterations=iteration,
                                       residual_norm=float(norms.max()))
                        fresh = True
                        iterations[active] -= 1
                        stats["iterations"] -= 1
                        iteration -= 1
                        continue
                    # Fresh factors and still no descent: per-scenario
                    # damped line search, keeping the smallest trial when
                    # the budget is exhausted (mirrors newton_solve / the
                    # serial chord).
                    step = np.where(active, 1.0, 0.0)
                    need = uphill.copy()
                    for halving in range(opts.max_step_halvings):
                        step[need] *= 0.5
                        trial = np.where(
                            active[:, None],
                            states - step[:, None] * updates, states,
                        )
                        trial_residuals = residual(trial)
                        stats["residual_evaluations"] += 1
                        trial_norms = np.max(np.abs(trial_residuals), axis=1)
                        need = uphill & ~(
                            np.isfinite(trial_norms) & (trial_norms < norms)
                        )
                        if not need.any():
                            break

            update_small = update_is_small(trial - states, trial, opts.rtol)
            slow = trial_norms > self.contraction * norms
            states, residuals, norms = trial, trial_residuals, trial_norms
            newly = active & (
                (norms <= atol) | (update_small & np.isfinite(norms))
            )
            if newly.any():
                converged = converged | newly
                active = ~(converged | abandoned)
                num_left = int(active.sum())
                if not num_left:
                    break
            if not fresh and (slow & active).any():
                self._refactor(jacobian, states, iterations=iteration,
                               residual_norm=float(norms.max()))
                fresh = True

        if not converged.all():
            # Failed scenarios invalidate the shared factors: the caller
            # retries (fallback or smaller dt) and wants a fresh start.
            self.invalidate()
        return states, converged, iterations


class _EnsembleStepController:
    """Per-run ensemble Newton machinery (assembler, chord, fallback).

    The vectorised chord loop handles the common case; scenarios it
    cannot converge are retried one by one through the standard serial
    :class:`~repro.transient.engine._StepController` (the shared
    ``SolverCore`` chord-with-fallback policy) using their member DAEs.
    """

    def __init__(self, ensemble, opts):
        if opts.linear_solver is not None:
            raise SimulationError(
                "ensemble transients use the batched block factorisation; "
                "custom linear solvers are a single-scenario option"
            )
        self.ensemble = ensemble
        self.opts = opts
        self.assembler = TransientStepAssembler(
            ensemble.dq_structure(), ensemble.df_structure(),
            batch=ensemble.batch_size,
        )
        self.chord = _EnsembleChord(
            opts.newton, opts.refresh_contraction,
            refresh_every_iteration=not opts.stale_jacobian,
        )
        self._alpha = None
        self.iterations = np.zeros(ensemble.batch_size, dtype=int)
        self.fallbacks = np.zeros(ensemble.batch_size, dtype=int)
        self._member_controllers = {}

    def factorizations(self):
        """Batched factorisations plus any per-scenario fallback ones."""
        count = self.chord.stats["factorizations"]
        for controller in self._member_controllers.values():
            count += controller.core.stats.factorizations
        return count

    def invalidate(self):
        self.chord.invalidate()

    def _notify_alpha(self, alpha):
        """Drop frozen factors when the integrator weight jumps (dt change)."""
        old, self._alpha = self._alpha, alpha
        if old is not None and abs(alpha - old) > INVALIDATE_RTOL * abs(old):
            self.invalidate()

    def _member_controller(self, index):
        controller = self._member_controllers.get(index)
        if controller is None:
            controller = _StepController(
                self.ensemble.member(index), self.opts
            )
            self._member_controllers[index] = controller
        return controller

    def solve_step(self, integrator, history, t_new, b_new, x_guess):
        """Advance every scenario one implicit step towards ``t_new``.

        Returns ``(states, converged, q_new, fb_new)`` with the usual
        history payload; ``converged`` is the per-scenario mask after the
        fallback pass.
        """
        ensemble = self.ensemble
        alpha, rhs_const, beta = integrator.residual_terms(
            ensemble, history, t_new
        )
        self._notify_alpha(alpha)
        stash = [None, None]

        def residual(states):
            charges, statics = ensemble.qf_rows(states)
            balance = statics - b_new
            stash[0] = charges
            stash[1] = balance
            out = alpha * charges
            out += rhs_const
            out += beta * balance
            return out

        assembler = self.assembler

        def jacobian(states):
            return assembler.refresh(
                alpha, ensemble.dq_rows(states), beta,
                ensemble.df_rows(states),
            )

        try:
            states, converged, iterations = self.chord.solve(
                residual, jacobian, x_guess
            )
        except SingularJacobianError:
            # A singular batched refactorisation fails the whole step; the
            # engine reacts with a smaller dt, which makes every block
            # more diagonally dominant.
            batch = ensemble.batch_size
            return (
                np.array(history[-1][1], dtype=float),
                np.zeros(batch, dtype=bool),
                history[-1][2], history[-1][3],
            )
        self.iterations += iterations

        if not converged.all() and ensemble.has_members:
            # Per-scenario rescue through the standard serial controller.
            q_rows, fb_rows = stash
            for index in np.nonzero(~converged)[0]:
                self.fallbacks[index] += 1
                controller = self._member_controller(index)
                member_history = [
                    (t_i, x_i[index], q_i[index], fb_i[index])
                    for (t_i, x_i, q_i, fb_i) in history
                ]
                result, q_member, fb_member, _a, _b = controller.solve_step(
                    integrator, member_history, t_new,
                    b_new[index], x_guess[index],
                )
                self.iterations[index] += result.iterations
                if result.converged:
                    states[index] = result.x
                    q_rows[index] = q_member
                    fb_rows[index] = fb_member
                    converged[index] = True

        return states, converged, stash[0], stash[1]


def simulate_transient_ensemble(ensemble, x0, t_start, t_stop, options=None):
    """Integrate all scenarios of an ensemble on one fixed-step grid.

    Parameters
    ----------
    ensemble:
        An :class:`repro.dae.ensemble.EnsembleDAE` (a plain
        :class:`~repro.dae.base.SemiExplicitDAE` is wrapped as a
        single-scenario ensemble).
    x0:
        Per-scenario initial states, shape ``(B, n)`` (a single ``(n,)``
        vector is broadcast to every scenario).
    t_start, t_stop:
        Shared simulation window.
    options:
        :class:`~repro.transient.engine.TransientOptions`; must describe a
        fixed-step run (the lock-step grid has one dt for every scenario)
        and use the default (direct, batched) linear solver.

    Returns
    -------
    EnsembleTransientResult

    Notes
    -----
    Trajectories match ``B`` independent
    :func:`~repro.transient.engine.simulate_transient` runs within Newton
    tolerance — the discretisation is identical; only the iteration
    grouping differs.  A Newton failure halves the shared dt (after the
    per-scenario fallback), so one stiff scenario slows the grid for all;
    split pathological scenarios into their own ensemble if that matters.
    """
    if not isinstance(ensemble, EnsembleDAE):
        ensemble = EnsembleDAE.from_stacked(ensemble, 1, members=[ensemble])
    opts = options or TransientOptions()
    integrator = get_integrator(opts.integrator)
    if opts.adaptive:
        raise SimulationError(
            "ensemble transients are fixed-step (one lock-step grid); run "
            "adaptive scenarios individually"
        )
    if opts.dt is None:
        raise SimulationError("ensemble transient requires options.dt")
    check_positive(opts.dt, "options.dt")
    if not t_stop > t_start:
        raise SimulationError(
            f"t_stop must exceed t_start, got [{t_start}, {t_stop}]"
        )

    batch, n = ensemble.batch_size, ensemble.n
    states = np.array(x0, dtype=float)
    if states.ndim == 1:
        states = np.broadcast_to(states, (batch, states.size)).copy()
    if states.shape != (batch, n):
        raise SimulationError(
            f"initial states must have shape {(batch, n)}, got {states.shape}"
        )

    # Compiled batched evaluations for every python-handled iterate
    # (handed-back steps, per-scenario rescues): on by default under
    # "auto"; kernel="python" pins the NumPy reference path.
    if ensemble._stacked is not None:
        stacked, batch_eval_info = maybe_kernelize_batch(
            ensemble._stacked, getattr(opts, "kernel", "auto"),
            expected_batch=batch,
        )
        if stacked is not ensemble._stacked:
            ensemble = EnsembleDAE(
                batch, n, ensemble.variable_names,
                members=ensemble._members, stacked=stacked,
            )
    else:
        requested = getattr(opts, "kernel", "auto")
        # Still resolve so an explicitly requested unavailable kernel
        # raises instead of silently looping members in python.
        resolve_mode(requested)
        batch_eval_info = {
            "requested": "auto" if requested is None else str(requested),
            "mode": "python",
            "reason": "member-loop ensembles stay on the python path",
        }

    t = float(t_start)
    dt = float(opts.dt)
    controller = _EnsembleStepController(ensemble, opts)

    charges, statics = ensemble.qf_rows(states)
    b_start = ensemble.b_rows(t)
    history = [(t, states.copy(), charges, statics - b_start)]

    # Fixed-step fast path: the whole (T, B, n) forcing grid up front.
    span = t_stop - t_start
    n_steps = max(int(np.ceil(span / dt - 1e-9)), 1)
    t_grid = b_grid = None
    grid_idx = 0
    if n_steps * batch <= _MAX_FORCING_GRID:
        t_grid = t_start + dt * np.arange(1, n_steps + 1)
        t_grid[-1] = t_stop
        b_grid = ensemble.b_rows_grid(t_grid)

    # Fused compiled march over the shared grid: whole chunks per call,
    # zero python per step.  Steps the in-kernel vectorised chord cannot
    # fully converge hand back to the python loop below, whose
    # per-scenario rescue path is unchanged.  The route and its reason
    # land in stats["kernel"]["mode"] / ["reason"].
    if t_grid is None:
        blocked = (
            "no precomputed forcing grid (horizon exceeds the batch "
            "limit); compiled ensemble sweeps march the shared grid"
        )
    else:
        blocked = None
    kernel_runner, kernel_info = prepare_ensemble_runner(
        ensemble, opts, integrator, blocked=blocked,
    )
    kernel_info["batch_eval"] = batch_eval_info
    if kernel_runner is not None:
        t_grid = np.ascontiguousarray(t_grid, dtype=float)
        b_grid = np.ascontiguousarray(b_grid, dtype=float)

    def summarize(stats):
        stats["kernel"]["python_steps"] = (
            stats["steps"] - stats["kernel"].get("compiled_steps", 0)
        )
        stats["newton_iterations"] = int(controller.iterations.sum())
        stats["newton_fallbacks"] = int(controller.fallbacks.sum())
        stats["jacobian_factorizations"] = controller.factorizations()
        chord_stats = controller.chord.stats
        shared = {
            "solves": stats["steps"],
            "residual_evaluations": chord_stats["residual_evaluations"],
            "jacobian_refreshes": chord_stats["jacobian_refreshes"],
            "factorizations": stats["jacobian_factorizations"],
            # Lock-step wall time is shared: every scenario's steps happen
            # inside the same loop iterations.
            "wall_time_s": time.perf_counter() - run_start,
        }
        stats["solver"] = SolverStats(
            iterations=stats["newton_iterations"],
            fallbacks=stats["newton_fallbacks"],
            **shared,
        ).as_dict()
        # Lock-step scenarios share refreshes/factorisations/residual
        # sweeps; iterations and fallbacks are genuinely per scenario.
        stats["solver_per_scenario"] = [
            SolverStats(
                iterations=int(controller.iterations[b]),
                fallbacks=int(controller.fallbacks[b]),
                **shared,
            ).as_dict()
            for b in range(batch)
        ]

    # No checkpoints and no resume: a failure carries the partial result
    # only.
    march = March(
        None, opts,
        result=lambda t, x, stats: EnsembleTransientResult(
            t, x, ensemble.variable_names, stats
        ),
        fields=("t", "x"),
        counters=("newton_iterations", "newton_failures", "newton_fallbacks",
                  "jacobian_factorizations"),
        summarize=summarize,
        max_steps=opts.max_steps,
    )
    stats = march.stats
    stats.update(scenarios=batch, kernel=kernel_info)
    run_start = time.perf_counter()
    march.start(t, dt, states)
    history_cap = max(integrator.steps, 2) + 1
    t_end = t_stop - 1e-15 * max(abs(t_stop), 1.0)

    def _kernel_march():
        """Advance through the compiled batched sweep; False on handback.

        Counter mapping mirrors the python march exactly: the kernel
        reports per-call chord totals plus per-scenario iteration counts
        (``iters_b``), which land in the same ``chord.stats`` /
        ``controller.iterations`` slots the vectorised python chord
        fills.  After a handback the python loop replays the failing
        step (rescue included) and the march re-enters on the next one.
        """
        nonlocal t, states, dt, grid_idx, history
        runner = kernel_runner
        chord_stats = controller.chord.stats
        while grid_idx < n_steps:
            runner.load(history, controller)
            runner.reset_counters()
            status = runner.run(t_grid, b_grid, grid_idx, grid_idx
                                + march.chunk_budget(n_steps - grid_idx))
            done = int(runner.counters[0])
            chord_stats["iterations"] += int(runner.counters[1])
            chord_stats["residual_evaluations"] += int(runner.counters[2])
            chord_stats["factorizations"] += int(runner.counters[3])
            chord_stats["jacobian_refreshes"] += int(runner.counters[3])
            controller.iterations += runner.iters_b
            kernel_info["compiled_steps"] += done
            runner.sync_controller(controller)
            if done:
                times = t_grid[grid_idx:grid_idx + done]
                grid_idx += done
                t = float(times[-1])
                prev = t_grid[grid_idx - 2] if grid_idx >= 2 else t_start
                dt = float(times[-1] - prev)
                history = runner.export_history()
                states = history[-1][1].copy()
                march.accept_chunk(times, runner.out_x[:done], dt, t_stop)
            if status != 0:
                kernel_info["reason"] = (
                    f"compiled ensemble sweep returned status {status} at "
                    f"step {stats['steps']}; python lock-step march handled "
                    f"the failing step"
                )
                return False
        return True

    while t < t_end:
        if kernel_runner is not None and t_grid is not None:
            if _kernel_march():
                break
        if t_grid is not None:
            t_new = t_grid[grid_idx]
            b_new = b_grid[grid_idx]
            dt = t_new - t
        else:
            dt = min(dt, t_stop - t)
            t_new = t + dt
            b_new = ensemble.b_rows(t_new)

        x_guess = extrapolate(history, t_new)
        try:
            new_states, converged, q_new, fb_new = controller.solve_step(
                integrator, history, t_new, b_new, x_guess
            )
        except SimulationError as exc:
            raise march.fail(exc, dt)

        if not converged.all():
            stats["newton_failures"] += 1
            dt *= 0.5
            # The shared grid is no longer uniform; per-step forcing from
            # here on.
            t_grid = b_grid = None
            if dt < opts.dt_min:
                failed = np.nonzero(~converged)[0]
                raise march.fail(
                    f"step size underflow at step {stats['steps']}, "
                    f"t={t:.6e}: Newton diverged for scenario(s) "
                    f"{failed.tolist()} with dt={2 * dt:.3e}",
                    2 * dt,
                )
            continue

        t = float(t_new)
        states = new_states
        history.append((t, states.copy(), q_new, fb_new))
        if len(history) > history_cap:
            history.pop(0)
        if t_grid is not None:
            grid_idx += 1
        march.accept(t, dt, states, final=t >= t_stop)

    return march.finish()


def merge_ensemble_results(results):
    """Merge scenario-sharded lock-step results into one ensemble result.

    Used by :meth:`repro.api.requests.EnsembleRequest.merge`: every shard
    must have marched the same fixed-step grid.  Scenario slices of one
    request always do, unless a shard halved its dt after a Newton
    failure; that shard left the shared grid and cannot be merged, which
    surfaces as a :class:`~repro.errors.SimulationError` rather than a
    silently interpolated answer.  Counters add up over the shards.
    """
    results = list(results)
    first = results[0]
    t = first.t
    for r in results[1:]:
        if r.t.shape != t.shape or not np.array_equal(r.t, t):
            raise SimulationError(
                "scenario shards diverged from the shared lock-step grid "
                "(a shard halved dt after a Newton failure); re-run with "
                "a smaller options.dt"
            )
    x = np.concatenate([r.x for r in results], axis=1)
    stats = dict(first.stats)
    for key in ("newton_iterations", "newton_failures", "newton_fallbacks",
                "jacobian_factorizations", "scenarios"):
        stats[key] = sum(int(r.stats.get(key, 0)) for r in results)
    stats["solver_per_scenario"] = [
        entry
        for r in results
        for entry in r.stats.get("solver_per_scenario", [])
    ]
    solver = dict(first.stats.get("solver") or {})
    if solver:
        for key in ("iterations", "fallbacks", "residual_evaluations",
                    "jacobian_refreshes", "factorizations",
                    "krylov_iterations", "solves", "wall_time_s"):
            solver[key] = sum(
                (r.stats.get("solver") or {}).get(key, 0) for r in results
            )
        stats["solver"] = solver
    return EnsembleTransientResult(t, x, first.variable_names, stats)
