"""WaMPDE envelope simulation: time-step in t2, spectral in t1.

This is the method behind the paper's §5 experiments.  At each slow time
``t2_m`` the unknowns are the ``N0`` t1-samples of every system variable
(one warped oscillation cycle) plus the local frequency ``omega(t2_m)``;
the equations are the collocated WaMPDE (paper eq. 16)

    omega * D1 q(X) + dq/dt2|_discrete + f(X) = b(t2)

plus one phase-condition row (paper eq. 20 / §3 eq. 9) that pins the t1
phase and thereby *determines* omega.  The t2 derivative uses the theta
method (backward Euler and trapezoidal differencing are its ends); the
per-step system is
:class:`~repro.linalg.collocation.WarpedCollocationSystem` with one slice,
a phase condition and a theta-method step — the system autonomous harmonic
balance solves without the step.  Its Newton matrix is bordered
(collocation core + omega column + phase row), assembled dense and
factorised by LAPACK up to
:data:`repro.linalg.collocation.DENSE_MAX_UNKNOWNS` unknowns (a 4-unknown
VCO at 25 t1 samples has 101) and sparse with SuperLU above.  Each residual
costs one batched ``qf_batch`` evaluation, a dense t1 derivative ``D1 @ Q``
of the ``(N0, n)`` charge samples and a dot with the stored phase row.

Because the phase condition re-anchors every step, phase error cannot
accumulate — the property the paper contrasts with transient simulation
in Fig 12.

Two drivers share the stepping kernel:

* :func:`solve_wampde_envelope` — fixed, uniform t2 steps, each Newton
  solve starting from the quadratic predictor through the last three
  accepted ``(t2, samples, omega)`` (shared with the transient engine:
  :func:`repro.transient.engine.extrapolate`), its fallback restarting
  from the last accepted point;
* :func:`solve_wampde_envelope_adaptive` — proportional step control from
  a step-doubling error estimate, for runs whose slow dynamics have
  widely varying rates (e.g. sharp settling followed by a long coast).

Both run their bookkeeping — resume, store cadence, checkpoints, failure
context and final stats — through :class:`repro.resilience.march.March`.

The fixed-step driver has a compiled route: chunks of whole steps
(predictor, residual, chord iterations, C-assembled refactorisations on
LAPACK factors, the ``h``/``omega`` jump test and the ``omega > 0``
check) run in one C call each (:class:`repro.kernels.sweep.EnvelopeSweepRunner`).
It is taken when ``kernel`` resolves to C and the DAE lowers to a kernel
spec without parameter stacks, in chord mode on the default linear
solver with a ladder starting at ``"chord"``, and with at most
:data:`~repro.linalg.collocation.DENSE_MAX_UNKNOWNS` unknowns per step;
otherwise ``stats["kernel"]["reason"]`` says why not.  A failing compiled
step is handed back uncommitted, and the NumPy stepper — the reference —
marches it and the rest of the run.  Without a handback the two routes
take equal steps, iterations, residual evaluations and factorisations
and agree to ~1e-14 (the compiled ``D1 q`` rounds differently from
NumPy's BLAS); within the compiled route a resume is bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import ConvergenceError, SimulationError
from repro.kernels.sweep import (
    maybe_kernelize_batch,
    prepare_envelope_runner,
)
from repro.linalg.collocation import WarpedCollocationSystem
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverOptionsMixin, core_from_options
from repro.resilience.march import March
from repro.phase_conditions import as_phase_condition
from repro.transient.engine import extrapolate
from repro.utils.validation import check_odd, check_positive, check_window
from repro.wampde.bivariate import BivariateWaveform
from repro.wampde.warping import WarpingFunction


#: Steps per compiled envelope call at most: bounds the runner's output
#: rows (one ``[samples, omega]`` row per step).
_COMPILED_CHUNK = 4096


@dataclass
class WampdeEnvelopeOptions(SolverOptionsMixin):
    """Configuration for the WaMPDE envelope drivers.

    The ``newton``/``linear_solver``/``ladder`` fields come
    from the shared
    :class:`~repro.linalg.solver_core.SolverOptionsMixin`.

    Attributes
    ----------
    integrator:
        ``"theta"`` (default), ``"trap"`` or ``"be"``.  The t2 derivative
        is differenced with the one-parameter theta method: ``theta=0.5``
        is trapezoidal (2nd order, but leaves fast detuning modes
        undamped — they can ring and destabilise long envelope runs),
        ``theta=1`` is backward Euler (L-stable but damps the *physical*
        slow dynamics too).  The default ``"theta"`` uses ``theta`` just
        above 0.5: near-2nd-order accuracy on the slow manifold with
        enough dissipation to kill collocation-mode ringing.
    theta:
        Implicitness parameter used when ``integrator="theta"``
        (0.5 < theta <= 1).
    phase_condition:
        Spec for :func:`repro.phase_conditions.as_phase_condition`; pins
        the t1 phase each step.  Default is the paper's eq.-(20) Fourier
        anchor — time-domain anchors (``"derivative"``, ``"value"``) are
        local functionals that can lose their grip on strongly distorting
        waveforms (the bordered system's solvability pairing
        ``phase_row . dx/domega`` can vanish).
    phase_variable:
        Variable index the default phase condition applies to.
    newton:
        Per-step Newton options.
    newton_mode:
        ``"chord"`` (default) carries one factorised step Jacobian across
        Newton iterations *and* across envelope steps via
        :class:`repro.linalg.solver_core.SolverCore`, refactorising only
        on slow contraction, divergence, or an ``h``/``omega`` jump —
        the policy the transient engine uses across time steps.
        ``"full"`` recovers a fresh Jacobian per Newton iteration.
    linear_solver:
        ``None``/"lu" — direct LU of each assembled step matrix (dense
        LAPACK up to
        :data:`~repro.linalg.collocation.DENSE_MAX_UNKNOWNS` unknowns,
        sparse SuperLU above); ``"gmres"`` — frozen-LU-preconditioned
        GMRES for large circuits (the paper's [Saa96] reference); or any
        ``(matrix, rhs) -> solution`` callable.  Non-default values imply
        full Newton.
    store_every:
        Keep every k-th accepted t2 point.
    rtol, atol:
        Local-error weights for the adaptive driver.
    dt2_min, dt2_max:
        Step bounds for the adaptive driver.
    ladder:
        Recovery-ladder spec forwarded to the shared
        :class:`~repro.linalg.solver_core.SolverCore` (``None``/
        ``"default"``, ``"extended"``, or an explicit rung tuple — see
        :mod:`repro.resilience.recovery`).
    checkpoint_every:
        Take an in-memory resume checkpoint every k accepted envelope
        steps (0 disables).  A failing march always attaches its most
        recent checkpoint to the raised
        :class:`~repro.errors.SimulationError`.
    checkpoint_path:
        When set, checkpoints are also spooled to this file
        (atomically replaced each time) for restart after a crash.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(atol=1e-9, max_iterations=30)
    )
    integrator: str = "theta"
    theta: float = 0.55
    phase_condition: object = "fourier"
    phase_variable: int = 0
    newton_mode: str = "chord"
    store_every: int = 1
    rtol: float = 1e-5
    atol: float = 1e-8
    dt2_min: float = 0.0
    dt2_max: float = np.inf
    checkpoint_every: int = 0
    checkpoint_path: object = None


class WampdeEnvelopeResult(SerializableMixin):
    """Output of a WaMPDE envelope run.

    Attributes
    ----------
    t2:
        Stored slow-time points, shape ``(m,)``.
    omega:
        Local frequency [Hz] at those points, shape ``(m,)`` — the paper's
        Fig 7 / Fig 10 series.
    samples:
        Bivariate samples, shape ``(m, N0, n)``.
    variable_names:
        Labels for the trailing axis.
    stats:
        Newton/step counters.
    """

    def __init__(self, t2, omega, samples, variable_names, stats=None):
        self.t2 = np.asarray(t2, dtype=float)
        self.omega = np.asarray(omega, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.variable_names = tuple(variable_names)
        self.stats = dict(stats or {})

    @property
    def num_t1(self):
        """t1 samples per slow-time point."""
        return self.samples.shape[1]

    def variable_index(self, key):
        """Column index for a name or integer key."""
        if isinstance(key, str):
            return self.variable_names.index(key)
        return int(key)

    def bivariate(self, key):
        """:class:`BivariateWaveform` of one variable (Figs 8, 11)."""
        k = self.variable_index(key)
        return BivariateWaveform(
            self.t2, self.samples[:, :, k], name=self.variable_names[k]
        )

    def warping(self):
        """:class:`WarpingFunction` built from the omega(t2) trace."""
        return WarpingFunction(self.t2, self.omega)

    def local_frequency(self, times):
        """Interpolated local frequency at arbitrary times [Hz]."""
        return np.interp(times, self.t2, self.omega)

    def harmonic_trace(self, key, harmonic):
        """Complex envelope of one t1-harmonic versus t2.

        This is the frequency-domain view of the solution — the
        ``Xhat_i(t2)`` of the paper's eq. (18)/(19).  ``harmonic = 1``
        gives the RF fundamental's complex envelope (magnitude = carrier
        amplitude, argument = slow phase drift allowed by the phase
        condition).

        Returns
        -------
        numpy.ndarray
            Complex array, one value per stored t2 point.
        """
        k = self.variable_index(key)
        num = self.num_t1
        half = num // 2
        if abs(int(harmonic)) > half:
            raise ValueError(
                f"harmonic {harmonic} not representable with {num} t1 samples"
            )
        coeffs = np.fft.fftshift(
            np.fft.fft(self.samples[:, :, k], axis=1), axes=1
        ) / num
        return coeffs[:, half + int(harmonic)]

    def reconstruct(self, key, times):
        """Univariate ``x(t) = xhat(phi(t), t)`` (paper eq. 15)."""
        from repro.wampde.reconstruct import reconstruct_univariate

        return reconstruct_univariate(self, key, times)


class _EnvelopeStepper:
    """One WaMPDE envelope step, shared by both drivers.

    The step is a :class:`~repro.linalg.collocation.WarpedCollocationSystem`
    of one slice with a phase condition and a theta-method step; this shell
    adds what is the envelope's own: theta from the options, the tiled
    forcing ``b(t2)`` and the ``omega > 0`` check.  :meth:`step` hands the
    system to the shared :class:`~repro.linalg.solver_core.SolverCore`,
    which owns the Newton policy and (in chord mode) carries the
    factorised bordered Jacobian across envelope steps.
    """

    def __init__(self, dae, num_t1, options):
        self.dae = dae
        self.num_t1 = check_odd(num_t1, "N0 (t1 samples)")
        if options.integrator == "trap":
            theta = 0.5
        elif options.integrator == "be":
            theta = 1.0
        elif options.integrator == "theta":
            if not 0.5 <= options.theta <= 1.0:
                raise SimulationError(
                    f"theta must lie in [0.5, 1], got {options.theta!r}"
                )
            theta = float(options.theta)
        else:
            raise SimulationError(
                f"integrator must be 'theta', 'trap' or 'be', got "
                f"{options.integrator!r}"
            )
        # The shared solver core: Newton policy, linear-solver selection
        # and factorisation reuse (carried across envelope steps in chord
        # mode), plus uniform stats for the run.
        self.core = core_from_options(options)
        self.system = WarpedCollocationSystem(
            dae, self.num_t1,
            condition=as_phase_condition(
                options.phase_condition, options.phase_variable
            ),
            core=self.core,
        )
        self.system.theta = theta
        self._b_t2 = None

    def rhs_terms(self, states, omega_value, t2_value):
        """``omega*D1 q + f - b`` at a configuration, plus the flat q."""
        return self.system.fast_terms(
            states, self._forcing(t2_value), omega_value
        )

    def _forcing(self, t2_value):
        """The tiled ``b(t2)``, sampled once for consecutive uses at one
        t2 (a step, then ``rhs_terms`` at its accepted point)."""
        if t2_value != self._b_t2:
            self.system.b = np.tile(self.dae.b(t2_value), self.num_t1)
            self._b_t2 = t2_value
        return self.system.b

    def step(self, x_samples, omega, q_old, rhs_old, t2_new, h, guess=None):
        """One implicit t2 step; returns ``(x_new, omega_new, iterations)``.

        Newton starts from the accepted ``(x_samples, omega)``, or from
        ``guess`` (a flat ``[samples, omega]`` prediction) when given; the
        fallback then restarts from the accepted point.

        Raises
        ------
        ConvergenceError
            If the per-step Newton iteration fails.
        """
        system = self.system
        self._forcing(t2_new)
        system.q_old, system.rhs_old, system.h = q_old, rhs_old, h
        # A jump in the step size or the local frequency reshapes the
        # Newton matrix discontinuously; the core drops any carried chord
        # factorisation then (smooth drifts keep it).
        self.core.note_parameters(h=h, omega=omega)
        z0 = np.concatenate([x_samples.ravel(), [omega]])
        if guess is None:
            result = self.core.solve(system, z0)
        else:
            result = self.core.solve(system, guess, fallback_z0=z0)
        x_new = result.x[:-1].reshape(self.num_t1, self.dae.n)
        omega_new = float(result.x[-1])
        if omega_new <= 0:
            raise SimulationError(
                f"local frequency went non-positive ({omega_new:g}) at "
                f"t2={t2_new:.6e}; the oscillation has likely quenched"
            )
        return x_new, omega_new, result.iterations


def _apply_warm_inputs(warm_start, initial_samples, omega0):
    """Fill missing ``initial_samples``/``omega0`` from a warm-start seed.

    ``warm_start`` is duck-typed (any object with ``samples``/``omega0``
    attributes, typically :class:`repro.service.cache.WarmStart`), so the
    engines stay import-independent of the service layer.
    """
    if warm_start is not None:
        if initial_samples is None:
            initial_samples = getattr(warm_start, "samples", None)
        if omega0 is None:
            omega0 = getattr(warm_start, "omega0", None)
    if initial_samples is None:
        raise SimulationError(
            "initial_samples is required (directly or via warm_start)"
        )
    if omega0 is None:
        raise SimulationError(
            "omega0 is required (directly or via warm_start)"
        )
    return initial_samples, omega0


def _validate_inputs(dae, initial_samples, omega0, t2_start, t2_stop,
                     num_steps=None):
    check_window(t2_start, t2_stop, num_steps)
    initial_samples = np.asarray(initial_samples, dtype=float)
    if initial_samples.ndim != 2:
        raise SimulationError(
            f"initial_samples must be 2-D (N0, n), got shape "
            f"{initial_samples.shape}"
        )
    if initial_samples.shape[1] != dae.n:
        raise SimulationError(
            f"initial_samples has {initial_samples.shape[1]} variables, "
            f"DAE has {dae.n}"
        )
    check_positive(omega0, "omega0")
    return initial_samples


def solve_wampde_envelope(dae, initial_samples, omega0, t2_start, t2_stop,
                          num_steps, options=None, resume_from=None,
                          warm_start=None):
    """Integrate the WaMPDE in ``t2`` with uniform steps.

    Parameters
    ----------
    dae:
        The forced system; ``b(t)`` must depend only on the slow time
        (the paper's ``b(t2)``).
    initial_samples:
        ``(N0, n)`` samples of one steady oscillation cycle at
        ``t2_start`` on the normalised t1 grid — typically from
        :func:`repro.wampde.initial_condition.oscillator_initial_condition`.
    omega0:
        Initial local frequency [Hz].
    t2_start, t2_stop:
        Slow-time window.
    num_steps:
        Number of uniform t2 steps.
    options:
        :class:`WampdeEnvelopeOptions`.
    resume_from:
        A :class:`~repro.resilience.checkpoint.Checkpoint` (or a path to
        one saved on disk) from an earlier, interrupted run with the same
        DAE, window and options.  The march continues from the
        checkpointed step and produces the result of the uninterrupted
        run bit for bit.
    warm_start:
        Optional warm-start seed (duck-typed, typically
        :class:`repro.service.cache.WarmStart`): supplies
        ``initial_samples``/``omega0`` when those are passed as ``None``,
        and pre-adopts a previously exported solver state and frozen
        chord factorisation so the first steps skip the cold Jacobian
        build.  Ignored where ``resume_from`` already restores the exact
        mid-march state.

    Returns
    -------
    WampdeEnvelopeResult
    """
    opts = options or WampdeEnvelopeOptions()
    initial_samples, omega0 = _apply_warm_inputs(
        warm_start, initial_samples, omega0
    )
    initial_samples = _validate_inputs(
        dae, initial_samples, omega0, t2_start, t2_stop, num_steps
    )

    # Batched q/f/Jacobian evaluations go through a compiled kernel when
    # the DAE is lowerable; the march itself runs in C when eligible.
    batch_dae, batch_info = maybe_kernelize_batch(
        dae, getattr(opts, "kernel", "auto")
    )
    stepper = _EnvelopeStepper(batch_dae, initial_samples.shape[0], opts)
    h = (t2_stop - t2_start) / num_steps
    # Set once the compiled march hands the rest of the run to the NumPy
    # stepper; a resumed run stays there too to reproduce the original.
    handed_back = False

    def summarize(stats):
        kernel = stats["kernel"]
        kernel["python_steps"] = (
            stats["steps"] - steps0 - kernel["compiled_steps"]
        )

    # The predictor's history: the last three accepted (t2, [x, omega]).
    march = _envelope_march(
        "wampde_envelope", dae, stepper, opts, resume_from,
        lambda: {"history": [(t, z.copy()) for t, z in history],
                 "handed_back": handed_back},
        summarize=summarize, warm=True,
    )
    if march.state is None:
        x_samples = initial_samples.copy()
        omega = float(omega0)
        march.start(float(t2_start), h, omega, x_samples,
                    warm_start=warm_start)
        history = [(float(t2_start), np.append(x_samples.ravel(), omega))]
    else:
        history = [(t, np.array(z, dtype=float))
                   for t, z in march.state["history"]]
        handed_back = march.state.get("handed_back", False)
    steps0 = march.stats["steps"]
    runner, kernel_info = prepare_envelope_runner(
        batch_dae, batch_info, stepper.system, stepper.core, h,
        blocked=(
            "the resumed run had handed the march back to the NumPy stepper"
            if handed_back else None
        ),
    )
    march.stats["kernel"] = kernel_info

    def compiled_march():
        # Chunks of steps through the compiled runner over the NumPy
        # loop's t2 grid (t2_start + k h, k = 0 the start) and one
        # b_batch call's forcing.  Chunks end at checkpoint cadence
        # points; after each one the core takes the kernel's chord state
        # and the march the chunk's steps and counters, so checkpoints,
        # warm exports and stats stay truthful.  A non-zero status leaves
        # the failing step uncommitted and hands it, and the rest of the
        # run, to the NumPy loop below.
        nonlocal history, handed_back
        t2_grid = t2_start + np.arange(num_steps + 1) * h
        b_grid = np.ascontiguousarray(batch_dae.b_batch(t2_grid),
                                      dtype=float)
        stats = march.stats
        core = stepper.core
        core_stats = core.stats
        runner.load(history, core)
        while stats["steps"] < num_steps:
            first = stats["steps"] + 1
            budget = march.chunk_budget(
                min(num_steps - stats["steps"], _COMPILED_CHUNK)
            )
            status = runner.run(t2_grid, b_grid, first, first + budget)
            done, iterations, residuals, factorizations, solves = (
                int(count) for count in runner.counters[:5]
            )
            runner.counters[:] = 0
            stats["newton_iterations"] += iterations
            core_stats.solves += solves
            core_stats.iterations += iterations
            core_stats.residual_evaluations += residuals
            core_stats.factorizations += factorizations
            core_stats.jacobian_refreshes += factorizations
            core_stats.wall_time_s += runner.last_wall
            runner.sync(core, stepper.system.matrix_at)
            if done:
                history = runner.export_history()
                kernel_info["compiled_steps"] += done
                march.accept_chunk(
                    t2_grid[first:first + done], runner.columns(done), h,
                    t2_grid[num_steps],
                )
            if status != 0:
                kernel_info["reason"] = (
                    f"compiled envelope step {stats['steps'] + 1} returned "
                    f"status {status}; NumPy stepper resumed"
                )
                handed_back = True
                return

    if runner is not None:
        compiled_march()
    if march.stats["steps"] == num_steps:
        return march.finish()

    x_samples = history[-1][1][:-1].reshape(initial_samples.shape)
    omega = float(history[-1][1][-1])
    t2 = float(march.t)
    rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)
    for step_index in range(march.stats["steps"], num_steps):
        t2_new = t2_start + (step_index + 1) * h
        try:
            x_samples, omega, iterations = stepper.step(
                x_samples, omega, q_old, rhs_old, t2_new, h,
                guess=extrapolate(history, t2_new),
            )
        except ConvergenceError as exc:
            raise march.fail(
                f"WaMPDE envelope step {step_index + 1} failed to converge "
                f"at t2={t2_new:.6e}: {exc}",
                h, exc,
            ) from exc
        except SimulationError as exc:
            raise march.fail(exc, h)
        march.stats["newton_iterations"] += iterations
        t2 = t2_new
        history = history[-2:] + [(t2, np.append(x_samples.ravel(), omega))]
        rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)
        march.accept(t2, h, omega, x_samples,
                     final=step_index == num_steps - 1)
    return march.finish()


def _envelope_march(kind, dae, stepper, opts, resume_from, snapshot,
                    counters=(), max_steps=None, summarize=None, warm=False):
    """The :class:`~repro.resilience.march.March` of a WaMPDE envelope."""
    return March(
        kind, opts, resume_from,
        result=lambda t2, omega, samples, stats: WampdeEnvelopeResult(
            t2, omega, samples, dae.variable_names, stats
        ),
        fields=("t2", "omega", "samples"),
        snapshot=snapshot,
        counters=("newton_iterations",) + counters,
        core=stepper.core,
        matrix_at=stepper.system.matrix_at,
        max_steps=max_steps,
        summarize=summarize,
        warm=warm,
    )


def solve_wampde_envelope_adaptive(dae, initial_samples, omega0, t2_start,
                                   t2_stop, dt2_initial=None, options=None,
                                   max_steps=1_000_000, resume_from=None):
    """Integrate the WaMPDE in ``t2`` with error-controlled steps.

    Local error is estimated by **step doubling**: each accepted step is
    computed both as one step of size ``h`` and as two steps of ``h/2``;
    their difference is the Richardson estimate of the local error and the
    half-step result (the more accurate one) is kept.  Unlike a
    linear-predictor estimate, the doubling difference vanishes as ``h``
    shrinks even when the envelope state carries fast collocation-mode
    ringing, so the controller cannot spiral on stiff problems.  The
    price is ~3 Newton solves per accepted step.

    For strongly distorting oscillators prefer
    ``phase_condition="fourier"`` (the paper's eq. 20): the derivative
    anchor pins a waveform extremum, which can flatten and degenerate at
    the extremes of the frequency swing, whereas the Fourier anchor is a
    global functional and stays well conditioned.

    Parameters
    ----------
    dt2_initial:
        Starting step; defaults to 1e-4 of the window (grown quickly by
        the controller).
    max_steps:
        Safety bound on accepted steps.
    resume_from:
        A :class:`~repro.resilience.checkpoint.Checkpoint` (or a path to
        one) from an earlier, interrupted adaptive run with the same DAE,
        window and options; the march continues from the checkpointed
        accepted step.

    Returns
    -------
    WampdeEnvelopeResult
        With ``stats["rejected_steps"]`` recording controller activity.
    """
    opts = options or WampdeEnvelopeOptions()
    initial_samples = _validate_inputs(
        dae, initial_samples, omega0, t2_start, t2_stop
    )
    dae, kernel_info = maybe_kernelize_batch(
        dae, getattr(opts, "kernel", "auto")
    )
    stepper = _EnvelopeStepper(dae, initial_samples.shape[0], opts)
    span = t2_stop - t2_start
    h = float(dt2_initial) if dt2_initial else span * 1e-4
    h = min(max(h, opts.dt2_min or span * 1e-12), opts.dt2_max, span)
    order = 2 if stepper.system.theta < 0.75 else 1
    # The charge-difference residual (q - q_old)/h amplifies round-off as
    # 1/h; below h_noise the per-step Newton solve cannot reach its
    # residual tolerance no matter how accurate the iterate.  The step is
    # therefore never driven below this floor — the controller accepts at
    # the floor instead (accuracy beyond it is unattainable anyway).
    q_scale = float(np.max(np.abs(dae.q_batch(initial_samples)))) or 1.0
    h_noise = 100.0 * np.finfo(float).eps * q_scale / opts.newton.atol
    # Below ~1e-3 oscillation periods the q-continuity term freezes the
    # waveform and the frequency unknown loses its defining equation (the
    # omega column of the bordered Jacobian is swamped by the 1/h block),
    # so omega would drift on round-off: envelope steps must stay a
    # fraction of the oscillation period.
    h_physics = 1e-3 / float(omega0)
    h_floor = max(opts.dt2_min, span * 1e-12, h_noise, h_physics)

    march = _envelope_march(
        "wampde_envelope_adaptive", dae, stepper, opts, resume_from,
        lambda: {"x_samples": x_samples.copy(), "omega": omega},
        counters=("rejected_steps", "newton_failures"), max_steps=max_steps,
    )
    if march.state is None:
        x_samples = initial_samples.copy()
        omega = float(omega0)
        march.start(float(t2_start), h, omega, x_samples)
    else:
        x_samples = np.array(march.state["x_samples"], dtype=float)
        omega = float(march.state["omega"])
        h = float(march.dt)
    stats = march.stats
    stats["kernel"] = kernel_info
    t2 = float(march.t)
    t2_end = t2_stop - 1e-15 * max(abs(t2_stop), 1.0)
    rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)

    while t2 < t2_end:
        h = min(h, t2_stop - t2)
        try:
            # Full step.
            x_full, omega_full, it_full = stepper.step(
                x_samples, omega, q_old, rhs_old, t2 + h, h
            )
            # Two half steps.
            x_mid, omega_mid, it_mid = stepper.step(
                x_samples, omega, q_old, rhs_old, t2 + 0.5 * h, 0.5 * h
            )
            rhs_mid, q_mid = stepper.rhs_terms(x_mid, omega_mid, t2 + 0.5 * h)
            x_half, omega_half, it_half = stepper.step(
                x_mid, omega_mid, q_mid, rhs_mid, t2 + h, 0.5 * h
            )
        except ConvergenceError as exc:
            stats["newton_failures"] += 1
            if h <= h_floor * 1.01:
                raise march.fail(
                    f"WaMPDE adaptive step underflow at t2={t2:.6e} "
                    f"(Newton cannot converge at the minimum step "
                    f"{h_floor:.3e}; try a looser rtol or more t1 samples)",
                    h, exc,
                ) from None
            h = max(0.5 * h, h_floor)
            continue
        except SimulationError as exc:
            raise march.fail(exc, h)
        stats["newton_iterations"] += it_full + it_mid + it_half

        # Guard against Newton landing on a spurious solution branch: the
        # local frequency is continuous in t2, so a large jump within one
        # step means the step left the basin of the physical branch (both
        # half and full steps then agree on garbage, fooling the pure
        # error test).
        jump = max(abs(omega_full - omega), abs(omega_half - omega))
        if jump > 0.1 * abs(omega):
            if h <= h_floor * 1.01:
                raise march.fail(
                    f"WaMPDE adaptive run lost the oscillation branch at "
                    f"t2={t2:.6e} (omega jumped {jump:.3e} from "
                    f"{omega:.3e} at the minimum step).  Local time-domain "
                    f"phase anchors can degenerate when the waveform "
                    f"distorts; try phase_condition='fourier'.",
                    h,
                )
            stats["rejected_steps"] += 1
            h = max(0.25 * h, h_floor)
            continue

        scale_x = opts.atol + opts.rtol * np.maximum(
            np.abs(x_half), np.abs(x_samples)
        )
        scale_w = opts.atol + opts.rtol * max(abs(omega_half), abs(omega))
        err = float(np.sqrt(
            (np.mean(((x_half - x_full) / scale_x) ** 2)
             + ((omega_half - omega_full) / scale_w) ** 2) / 2.0
        ))
        if err > 1.0 and h > h_floor * 1.01:
            stats["rejected_steps"] += 1
            h = max(h * max(0.2, 0.9 * err ** (-1.0 / (order + 1))), h_floor)
            continue
        if err > 1.0:
            # At the floor: accept regardless (see h_noise note above).
            stats["floor_acceptances"] = stats.get("floor_acceptances", 0) + 1

        # Accept the half-step composition (the more accurate result).
        t2 = t2 + h
        x_samples, omega = x_half, omega_half
        rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)
        growth = 0.9 * err ** (-1.0 / (order + 1)) if err > 0 else 5.0
        h = max(min(h * min(5.0, max(0.2, growth)), opts.dt2_max), h_floor)
        march.accept(t2, h, omega, x_samples, final=t2 >= t2_end)
    return march.finish()



