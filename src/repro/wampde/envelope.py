"""WaMPDE envelope simulation: time-step in t2, spectral in t1.

This is the method behind the paper's §5 experiments.  At each slow time
``t2_m`` the unknowns are the ``N0`` t1-samples of every system variable
(one warped oscillation cycle) plus the local frequency ``omega(t2_m)``;
the equations are the collocated WaMPDE (paper eq. 16)

    omega * D1 q(X) + dq/dt2|_discrete + f(X) = b(t2)

plus one phase-condition row (paper eq. 20 / §3 eq. 9) that pins the t1
phase and thereby *determines* omega.  The t2 derivative uses backward
Euler or trapezoidal differencing; the per-step Newton system is a
bordered sparse matrix (collocation core + omega column + phase row).

Because the phase condition re-anchors every step, phase error cannot
accumulate — the property the paper contrasts with transient simulation
in Fig 12.

Two drivers share the stepping kernel:

* :func:`solve_wampde_envelope` — fixed, uniform t2 steps;
* :func:`solve_wampde_envelope_adaptive` — proportional step control from
  a step-doubling error estimate, for runs whose slow dynamics have
  widely varying rates (e.g. sharp settling followed by a long coast).

Both run their bookkeeping — resume, store cadence, checkpoints, failure
context and final stats — through :class:`repro.resilience.march.March`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import ConvergenceError, SimulationError
from repro.kernels.sweep import maybe_kernelize_batch
from repro.linalg.collocation import CollocationJacobianAssembler
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    SolverOptionsMixin,
    core_from_options,
)
from repro.linalg.sparse_tools import kron_diffmat
from repro.resilience.march import March
from repro.phase_conditions import as_phase_condition
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.utils.validation import check_odd, check_positive
from repro.wampde.bivariate import BivariateWaveform
from repro.wampde.warping import WarpingFunction


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
        ``None``/"lu" — direct sparse LU with factorisation reuse;
        ``"gmres"`` — frozen-LU-preconditioned GMRES for large circuits
        (the paper's [Saa96] reference); or any ``(matrix, rhs) ->
        solution`` callable.  Non-default values imply full Newton.
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


class _EnvelopeStepper(CollocationSystem):
    """Shared per-step Newton kernel for the envelope drivers.

    Implements the :class:`~repro.linalg.solver_core.CollocationSystem`
    contract — :meth:`step` configures the per-step data, then hands the
    stepper itself to the shared :class:`~repro.linalg.solver_core.\
SolverCore`, which owns the Newton policy and (in chord mode) carries the
    factorised bordered Jacobian across envelope steps.
    """

    def __init__(self, dae, num_t1, options):
        self.dae = dae
        self.num_t1 = check_odd(num_t1, "N0 (t1 samples)")
        self.n = dae.n
        if options.integrator == "trap":
            self.theta = 0.5
        elif options.integrator == "be":
            self.theta = 1.0
        elif options.integrator == "theta":
            if not 0.5 <= options.theta <= 1.0:
                raise SimulationError(
                    f"theta must lie in [0.5, 1], got {options.theta!r}"
                )
            self.theta = float(options.theta)
        else:
            raise SimulationError(
                f"integrator must be 'theta', 'trap' or 'be', got "
                f"{options.integrator!r}"
            )
        self.options = options
        self.condition = as_phase_condition(
            options.phase_condition, options.phase_variable
        )
        self.phase_row = self.condition.gradient(self.num_t1, self.n)
        self.diffmat = fourier_differentiation_matrix(self.num_t1, period=1.0)
        self.d_big = kron_diffmat(self.diffmat, self.n, ordering="point")
        # The bordered collocation Jacobian's sparsity never changes across
        # Newton iterations or envelope steps: precompute its CSC structure
        # once and refresh only the numeric data each iteration.
        self.assembler = CollocationJacobianAssembler(
            self.num_t1,
            self.n,
            dq_mask=dae.dq_structure(),
            df_mask=dae.df_structure(),
            num_border=1,
        )
        # ... and the shared solver core: Newton policy, linear-solver
        # selection and factorisation reuse (carried across envelope steps
        # in chord mode), plus uniform stats for the run.
        self.core = core_from_options(options)
        # Per-step configuration consumed by residual()/jacobian().
        self._b_new_tile = None
        self._q_old = None
        self._rhs_old = None
        self._h = None
        # Memoised (iterate, q_flat, f_flat): jacobian(z) and rhs_terms()
        # re-see the iterate residual(z) just evaluated.
        self._eval_z = None
        self._eval_q = None
        self._eval_f = None

    def _evaluate_qf(self, states, z):
        """Flat ``q_batch``/``f_batch`` at ``z``, memoised on the iterate."""
        if self._eval_z is not None and np.array_equal(self._eval_z, z):
            return self._eval_q, self._eval_f
        q_flat = self.dae.q_batch(states).ravel()
        f_flat = self.dae.f_batch(states).ravel()
        self._eval_z = np.array(z, dtype=float, copy=True)
        self._eval_q = q_flat
        self._eval_f = f_flat
        return q_flat, f_flat

    def rhs_terms(self, states, omega_value, t2_value):
        """``omega*D1 q + f - b`` at a configuration, plus the flat q."""
        states = np.asarray(states, dtype=float)
        z = np.concatenate([states.ravel(), [omega_value]])
        q_flat, f_flat = self._evaluate_qf(states, z)
        b_tile = np.tile(self.dae.b(t2_value), self.num_t1)
        fast = omega_value * (self.d_big @ q_flat) + f_flat - b_tile
        return fast, q_flat

    def residual(self, z):
        states = z[:-1].reshape(self.num_t1, self.n)
        w = z[-1]
        q_flat, f_flat = self._evaluate_qf(states, z)
        fast = w * (self.d_big @ q_flat) + f_flat - self._b_new_tile
        core = (
            (q_flat - self._q_old) / self._h
            + self.theta * fast
            + (1.0 - self.theta) * self._rhs_old
        )
        return np.concatenate(
            [core, [self.condition.residual(states)]]
        )

    def jacobian(self, z):
        # (z, h) of the assembly: the checkpoint stand-in for the
        # (unpicklable) factors the chord policy will hold of it.
        self.core.jacobian_meta = (np.array(z, dtype=float), self._h)
        states = z[:-1].reshape(self.num_t1, self.n)
        w = z[-1]
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        q_flat, _f_flat = self._evaluate_qf(states, z)
        omega_col = self.theta * (self.d_big @ q_flat)
        # core = dq/h + theta * (w * D1 @ dq + df), bordered by the omega
        # column and the phase row — data-only refresh, fixed pattern.
        return self.assembler.refresh(
            self.diffmat,
            dq,
            diag_inner=df,
            coupling_scale=w,
            outer_coeff=self.theta,
            # scipy's sparse "/ h" is "* (1/h)"; match it bit for bit.
            diag_outer=dq * (1.0 / self._h),
            border_columns=omega_col[:, None],
            border_rows=self.phase_row[None, :],
        )

    def structure(self):
        return {
            "num_points": self.num_t1,
            "n_vars": self.n,
            "num_border": 1,
            "size": self.num_t1 * self.n + 1,
        }

    def matrix_at(self, meta):
        """The bordered step matrix at frozen-factor metadata ``(z, h)``."""
        z, h = meta
        self._h = float(h)
        return self.jacobian(np.asarray(z, dtype=float))

    def step(self, x_samples, omega, q_old, rhs_old, t2_new, h):
        """One implicit t2 step; returns ``(x_new, omega_new, iterations)``.

        Raises
        ------
        ConvergenceError
            If the per-step Newton iteration fails.
        """
        num_t1, n = self.num_t1, self.n
        self._b_new_tile = np.tile(self.dae.b(t2_new), num_t1)
        self._q_old = q_old
        self._rhs_old = rhs_old
        self._h = h
        # A jump in the step size or the local frequency reshapes the
        # Newton matrix discontinuously; the core drops any carried chord
        # factorisation then (smooth drifts keep it).
        self.core.note_parameters(h=h, omega=omega)
        z0 = np.concatenate([x_samples.ravel(), [omega]])
        result = self.core.solve(self, z0)
        x_new = result.x[:-1].reshape(num_t1, n)
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


def _validate_inputs(dae, initial_samples, omega0, t2_start, t2_stop):
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
    if not t2_stop > t2_start:
        raise SimulationError(
            f"t2_stop must exceed t2_start, got [{t2_start}, {t2_stop}]"
        )
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
        dae, initial_samples, omega0, t2_start, t2_stop
    )
    if num_steps < 1:
        raise SimulationError(f"num_steps must be >= 1, got {num_steps}")

    # Batched q/f/Jacobian evaluations go through a compiled kernel when
    # the DAE is lowerable; the march logic is unchanged either way.
    dae, kernel_info = maybe_kernelize_batch(
        dae, getattr(opts, "kernel", "auto")
    )
    stepper = _EnvelopeStepper(dae, initial_samples.shape[0], opts)
    h = (t2_stop - t2_start) / num_steps
    march = _envelope_march(
        "wampde_envelope", dae, stepper, opts, resume_from,
        lambda: {"x_samples": x_samples.copy(), "omega": omega}, warm=True,
    )
    if march.state is None:
        x_samples = initial_samples.copy()
        omega = float(omega0)
        march.start(float(t2_start), h, omega, x_samples,
                    warm_start=warm_start)
    else:
        x_samples = np.array(march.state["x_samples"], dtype=float)
        omega = float(march.state["omega"])
    march.stats["kernel"] = kernel_info
    t2 = float(march.t)
    rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)

    for step_index in range(march.stats["steps"], num_steps):
        t2_new = t2_start + (step_index + 1) * h
        try:
            x_samples, omega, iterations = stepper.step(
                x_samples, omega, q_old, rhs_old, t2_new, h
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
        rhs_old, q_old = stepper.rhs_terms(x_samples, omega, t2)
        march.accept(t2, h, omega, x_samples,
                     final=step_index == num_steps - 1)
    return march.finish()


def _envelope_march(kind, dae, stepper, opts, resume_from, snapshot,
                    counters=(), max_steps=None, warm=False):
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
        matrix_at=stepper.matrix_at,
        max_steps=max_steps,
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
    order = 2 if stepper.theta < 0.75 else 1
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



