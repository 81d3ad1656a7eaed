"""MPDE envelope: time-step in t2, spectral collocation in t1.

Identical in structure to the WaMPDE envelope but without warping — the
t1 axis has the *fixed* period of the fast forcing, there is no frequency
unknown and no phase condition.  Useful for envelope-modulated
(AM-transient) responses of driven circuits.

Each step solves the WaMPDE envelope's system,
:class:`~repro.linalg.collocation.WarpedCollocationSystem` with a
theta-method step (``theta`` 0.5 for ``"trap"``, 1 for ``"be"``), built
with the forcing's t1 period and no phase condition.  As in the WaMPDE
envelope, each step residual costs one batched ``qf_batch`` evaluation and
a dense t1 derivative ``D @ Q`` of the ``(N0, n)`` charge samples, memoised
on the samples (:class:`~repro.linalg.collocation.IterateEvaluation`): the
next step's old-time terms reuse the converged iterate's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import ConvergenceError, SimulationError
from repro.linalg.collocation import WarpedCollocationSystem
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverOptionsMixin, core_from_options
from repro.resilience.march import March
from repro.spectral.grid import collocation_grid
from repro.utils.validation import check_odd, check_window
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
        Uniform slow-time stepping window: finite ``t2_stop > t2_start``
        and an integer ``num_steps >= 1``, else
        :class:`~repro.errors.SimulationError`.
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
    check_window(t2_start, t2_stop, num_steps)

    t1_points = collocation_grid(n0, forcing.period1)
    h = (t2_stop - t2_start) / num_steps
    core = core_from_options(opts)
    system = WarpedCollocationSystem(
        dae, n0, period1=forcing.period1, core=core
    )
    system.theta = 0.5 if opts.integrator == "trap" else 1.0

    def b_at(t2_value):
        return np.stack([forcing(t1, t2_value) for t1 in t1_points]).ravel()

    march = March(
        "mpde_envelope", opts, resume_from,
        result=lambda t2, samples, stats: MpdeEnvelopeResult(
            t2, samples, forcing.period1, dae.variable_names, stats
        ),
        fields=("t2", "samples"),
        snapshot=lambda: {"x_samples": x_samples.copy()},
        counters=("newton_iterations",),
        core=core,
        matrix_at=system.matrix_at,
    )
    if march.state is None:
        x_samples = initial_samples.copy()
        march.start(float(t2_start), h, x_samples)
    else:
        x_samples = np.array(march.state["x_samples"], dtype=float)
    t2 = float(march.t)
    rhs_old, q_old = system.fast_terms(x_samples, b_at(t2))

    for step in range(march.stats["steps"], num_steps):
        t2_new = t2_start + (step + 1) * h
        system.b = b_at(t2_new)
        system.q_old, system.rhs_old, system.h = q_old, rhs_old, h
        core.note_parameters(h=h)
        try:
            result = core.solve(system, x_samples.ravel())
        except ConvergenceError as exc:
            raise march.fail(
                f"MPDE envelope step {step + 1} failed to converge at "
                f"t2={t2_new:.6e}: {exc}",
                h, exc,
            ) from exc
        except SimulationError as exc:
            raise march.fail(exc, h)
        x_samples = result.x.reshape(n0, n)
        march.stats["newton_iterations"] += result.iterations
        t2 = t2_new
        rhs_old, q_old = system.fast_terms(x_samples, system.b)
        march.accept(t2, h, x_samples, final=step == num_steps - 1)
    return march.finish()
