"""MPDE envelope: time-step in t2, spectral collocation in t1.

Identical in structure to the WaMPDE envelope but without warping — the
t1 axis has the *fixed* period of the fast forcing, there is no frequency
unknown and no phase condition.  Useful for envelope-modulated
(AM-transient) responses of driven circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import ConvergenceError, SimulationError
from repro.linalg.collocation import CollocationJacobianAssembler
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import (
    CollocationSystem,
    SolverOptionsMixin,
    core_from_options,
)
from repro.linalg.sparse_tools import kron_diffmat
from repro.resilience.march import March
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.spectral.grid import collocation_grid
from repro.utils.validation import check_odd
from repro.wampde.bivariate import BivariateWaveform


@dataclass
class MpdeEnvelopeOptions(SolverOptionsMixin):
    """Configuration for :func:`solve_mpde_envelope`.

    The ``newton``/``linear_solver``/``ladder`` fields come
    from the shared
    :class:`~repro.linalg.solver_core.SolverOptionsMixin`; ``newton_mode``
    mirrors :class:`repro.wampde.envelope.WampdeEnvelopeOptions` — chord
    mode (default) carries one factorised step Jacobian across envelope
    steps via :class:`repro.linalg.solver_core.SolverCore`.
    ``checkpoint_every``/``checkpoint_path`` enable periodic resume
    checkpoints exactly as in the WaMPDE driver.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(atol=1e-9, max_iterations=30)
    )
    integrator: str = "trap"
    newton_mode: str = "chord"
    store_every: int = 1
    checkpoint_every: int = 0
    checkpoint_path: object = None


class MpdeEnvelopeResult(SerializableMixin):
    """MPDE envelope output: ``xhat`` samples marching along t2.

    Attributes
    ----------
    t2:
        Stored slow-time points.
    samples:
        Shape ``(m, N0, n)``.
    """

    def __init__(self, t2, samples, period1, variable_names, stats=None):
        self.t2 = np.asarray(t2, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.period1 = float(period1)
        self.variable_names = tuple(variable_names)
        self.stats = dict(stats or {})

    def bivariate(self, key):
        """Bivariate waveform of one variable."""
        if isinstance(key, str):
            key = self.variable_names.index(key)
        return BivariateWaveform(
            self.t2,
            self.samples[:, :, key],
            name=self.variable_names[key],
            t1_period=self.period1,
        )

    def reconstruct(self, key, times):
        """Univariate ``x(t) = xhat(t mod T1, t)``."""
        times = np.asarray(times, dtype=float)
        waveform = self.bivariate(key)
        return waveform(np.mod(times, self.period1), times)


class _MpdeEnvelopeStepper(CollocationSystem):
    """Per-step collocation system handed to the shared solver core."""

    def __init__(self, dae, n0, forcing, beta, options):
        self.dae = dae
        self.n0 = n0
        self.n = dae.n
        self.beta = beta
        self.diffmat = fourier_differentiation_matrix(n0, forcing.period1)
        self.d_big = kron_diffmat(self.diffmat, self.n, ordering="point")
        # Fixed-pattern Jacobian assembly + factorisation reuse across all
        # steps of the march (see repro.linalg.collocation).
        self.assembler = CollocationJacobianAssembler(
            n0,
            self.n,
            dq_mask=dae.dq_structure(),
            df_mask=dae.df_structure(),
        )
        self.core = core_from_options(options)
        # Per-step configuration consumed by residual()/jacobian().
        self._b_new = None
        self._q_old = None
        self._rhs_old = None
        self._h = None

    def residual(self, z):
        states = z.reshape(self.n0, self.n)
        q_flat = self.dae.q_batch(states).ravel()
        f_flat = self.dae.f_batch(states).ravel()
        fast = self.d_big @ q_flat + f_flat - self._b_new
        if self.beta != 1.0:
            return (
                (q_flat - self._q_old) / self._h
                + 0.5 * (fast + self._rhs_old)
            )
        return (q_flat - self._q_old) / self._h + fast

    def jacobian(self, z):
        # (z, h) of the assembly: the checkpoint stand-in for the
        # (unpicklable) factors the chord policy will hold of it.
        self.core.jacobian_meta = (np.array(z, dtype=float), self._h)
        states = z.reshape(self.n0, self.n)
        dq = self.dae.dq_dx_batch(states)
        df = self.dae.df_dx_batch(states)
        # dq/h + beta * (d_big @ dq + df), via data-only refresh;
        # scipy's sparse "/ h" is "* (1/h)" — matched bit for bit.
        return self.assembler.refresh(
            self.diffmat,
            dq,
            diag_inner=df,
            outer_coeff=self.beta,
            diag_outer=dq * (1.0 / self._h),
        )

    def structure(self):
        return {"num_points": self.n0, "n_vars": self.n,
                "num_border": 0, "size": self.n0 * self.n}

    def step(self, x_samples, q_old, rhs_old, b_new, h):
        """One implicit t2 step; returns ``(x_new, iterations)``."""
        self._b_new = b_new
        self._q_old = q_old
        self._rhs_old = rhs_old
        self._h = h
        self.core.note_parameters(h=h)
        result = self.core.solve(self, x_samples.ravel())
        return result.x.reshape(self.n0, self.n), result.iterations

    def matrix_at(self, meta):
        """The step matrix at frozen-factor metadata ``(z, h)``."""
        z, h = meta
        self._h = float(h)
        return self.jacobian(np.asarray(z, dtype=float))


def solve_mpde_envelope(dae, forcing, initial_samples, t2_start, t2_stop,
                        num_steps, options=None, resume_from=None):
    """March the MPDE in t2 from initial t1-cycle data.

    Parameters
    ----------
    dae:
        System providing ``q``/``f``; ``forcing`` replaces its ``b``.
    forcing:
        :class:`~repro.mpde.forcing.BivariateForcing`; only its t1-period
        and values at the stepped ``t2`` matter here.
    initial_samples:
        ``(N0, n)`` t1-cycle at ``t2_start``.
    t2_start, t2_stop, num_steps:
        Uniform slow-time stepping window.
    resume_from:
        A :class:`~repro.resilience.checkpoint.Checkpoint` (or a path to
        one) from an earlier, interrupted run with identical arguments;
        the march continues from the checkpointed step.

    Returns
    -------
    MpdeEnvelopeResult
    """
    opts = options or MpdeEnvelopeOptions()
    initial_samples = np.asarray(initial_samples, dtype=float)
    if initial_samples.ndim != 2:
        raise SimulationError(
            f"initial_samples must be (N0, n), got {initial_samples.shape}"
        )
    n0, n = initial_samples.shape
    check_odd(n0, "N0 (t1 samples)")
    if n != dae.n:
        raise SimulationError(
            f"initial_samples has {n} variables, DAE has {dae.n}"
        )
    if opts.integrator not in ("trap", "be"):
        raise SimulationError(
            f"integrator must be 'trap' or 'be', got {opts.integrator!r}"
        )
    beta = 0.5 if opts.integrator == "trap" else 1.0

    t1_points = collocation_grid(n0, forcing.period1)
    h = (t2_stop - t2_start) / num_steps
    stepper = _MpdeEnvelopeStepper(dae, n0, forcing, beta, opts)

    def b_at(t2_value):
        return np.stack([forcing(t1, t2_value) for t1 in t1_points]).ravel()

    def fast_terms(states, t2_value):
        q_flat = dae.q_batch(states).ravel()
        f_flat = dae.f_batch(states).ravel()
        return stepper.d_big @ q_flat + f_flat - b_at(t2_value), q_flat

    march = March(
        "mpde_envelope", opts, resume_from,
        result=lambda t2, samples, stats: MpdeEnvelopeResult(
            t2, samples, forcing.period1, dae.variable_names, stats
        ),
        fields=("t2", "samples"),
        snapshot=lambda: {"x_samples": x_samples.copy()},
        counters=("newton_iterations",),
        core=stepper.core,
        matrix_at=stepper.matrix_at,
    )
    if march.state is None:
        x_samples = initial_samples.copy()
        march.start(float(t2_start), h, x_samples)
    else:
        x_samples = np.array(march.state["x_samples"], dtype=float)
    t2 = float(march.t)
    rhs_old, q_old = fast_terms(x_samples, t2)

    for step in range(march.stats["steps"], num_steps):
        t2_new = t2_start + (step + 1) * h
        try:
            x_samples, iterations = stepper.step(
                x_samples, q_old, rhs_old, b_at(t2_new), h
            )
        except ConvergenceError as exc:
            raise march.fail(
                f"MPDE envelope step {step + 1} failed to converge at "
                f"t2={t2_new:.6e}: {exc}",
                h, exc,
            ) from exc
        except SimulationError as exc:
            raise march.fail(exc, h)
        march.stats["newton_iterations"] += iterations
        t2 = t2_new
        rhs_old, q_old = fast_terms(x_samples, t2)
        march.accept(t2, h, x_samples, final=step == num_steps - 1)
    return march.finish()
