"""WaMPDE with periodic boundary conditions in the slow time (paper §4.1).

Solves for ``xhat(t1, t2)`` that is (1, T2)-periodic together with the
T2-periodic local frequency ``omega(t2)`` — the representation that
captures FM- and AM-quasiperiodicity, mode locking (``omega`` constant and
equal to the forcing frequency) and period multiplication (``omega`` a
submultiple) as special cases, per the paper's §4.1 discussion.

Discretisation: spectral collocation on an odd ``N0 x N1`` tensor grid
(both axes periodic), one phase-condition row per t2 point, Newton on the
full coupled system: the
:class:`~repro.linalg.collocation.WarpedCollocationSystem` that autonomous
harmonic balance and both envelopes solve, here with ``N1`` slices and the
t2 differentiation matrix ``D2``.  A residual costs one batched
``qf_batch`` evaluation, the dense products ``D1 @ Q`` within each t2
slice and ``D2 @ Q`` across slices, and one product with the phase row for
all slices; the Jacobian's frequency columns reuse the memoised ``D1 q``
(:class:`~repro.linalg.collocation.IterateEvaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import SimulationError
from repro.linalg.collocation import WarpedCollocationSystem
from repro.linalg.newton import NewtonOptions
from repro.linalg.solver_core import SolverOptionsMixin, core_from_options
from repro.phase_conditions import as_phase_condition
from repro.spectral.diffmat import fourier_differentiation_matrix
from repro.spectral.grid import collocation_grid
from repro.utils.validation import check_odd, check_positive
from repro.wampde.bivariate import BivariateWaveform
from repro.wampde.warping import WarpingFunction


@dataclass
class WampdeQuasiperiodicOptions(SolverOptionsMixin):
    """Configuration for :func:`solve_wampde_quasiperiodic`.

    The ``newton``/``linear_solver``/``ladder`` fields come from the
    shared :class:`~repro.linalg.solver_core.SolverOptionsMixin`;
    ``newton_mode`` selects the
    :class:`repro.linalg.solver_core.SolverCore` Newton policy.
    """

    newton: NewtonOptions = field(
        default_factory=lambda: NewtonOptions(atol=1e-8, max_iterations=60)
    )
    phase_condition: object = "fourier"
    phase_variable: int = 0
    newton_mode: str = "full"


class WampdeQuasiperiodicResult(SerializableMixin):
    """Bi-periodic WaMPDE solution.

    Attributes
    ----------
    t2:
        Slow-time collocation grid on ``[0, T2)``, shape ``(N1,)``.
    period2:
        Slow period ``T2``.
    omega:
        T2-periodic local frequency at the grid points [Hz].
    samples:
        Solution grid, shape ``(N1, N0, n)``.
    variable_names:
        Labels for the trailing axis.
    newton_iterations:
        Newton iterations used.
    """

    def __init__(self, t2, period2, omega, samples, variable_names,
                 newton_iterations, stats=None):
        self.t2 = np.asarray(t2, dtype=float)
        self.period2 = float(period2)
        self.omega = np.asarray(omega, dtype=float)
        self.samples = np.asarray(samples, dtype=float)
        self.variable_names = tuple(variable_names)
        self.newton_iterations = int(newton_iterations)
        self.stats = dict(stats or {})

    @property
    def mean_frequency(self):
        """The constant part ``omega_0`` of eq. (21) [Hz]."""
        return float(np.mean(self.omega))

    def frequency_modulation_depth(self):
        """Peak deviation of ``omega`` from its mean, normalised [—]."""
        mean = self.mean_frequency
        if mean == 0:
            return float("inf")
        return float(np.max(np.abs(self.omega - mean)) / abs(mean))

    def is_mode_locked(self, forcing_frequency, rtol=1e-3):
        """Entrainment test: omega constant and equal to the forcing rate."""
        return (
            self.frequency_modulation_depth() < rtol
            and abs(self.mean_frequency - forcing_frequency)
            < rtol * forcing_frequency
        )

    def bivariate(self, key):
        """Bivariate waveform with the t2 axis extended one wrap point."""
        if isinstance(key, str):
            key = self.variable_names.index(key)
        t2_ext = np.concatenate([self.t2, [self.period2]])
        data = np.vstack([self.samples[:, :, key], self.samples[:1, :, key]])
        return BivariateWaveform(t2_ext, data, name=self.variable_names[key])

    def warping(self, num_periods=1, phi0=0.0):
        """Warping function over ``num_periods`` repetitions of T2."""
        knots = [self.t2 + m * self.period2 for m in range(num_periods)]
        knots.append(np.array([num_periods * self.period2]))
        times = np.concatenate(knots)
        omegas = np.concatenate(
            [np.tile(self.omega, num_periods), [self.omega[0]]]
        )
        return WarpingFunction(times, omegas, phi0=phi0)

    def reconstruct(self, key, times):
        """Univariate ``x(t)`` over any time range (uses T2-periodicity)."""
        times = np.asarray(times, dtype=float)
        num_periods = int(np.ceil(times.max() / self.period2)) + 1
        warping = self.warping(num_periods=num_periods)
        waveform = self.bivariate(key)
        t1 = np.mod(warping.phi(times), 1.0)
        t2 = np.mod(times, self.period2)
        return waveform(t1, t2)


def envelope_to_quasiperiodic_guess(envelope_result, period2, num_t2,
                                    tail_start=None):
    """Build a quasiperiodic initial guess from a settled envelope run.

    The natural continuation strategy: after an envelope simulation has
    settled into its T2-periodic steady response, resample its last
    forcing period onto the quasiperiodic collocation grid.  Newton on
    the bi-periodic BVP then typically converges in a couple of
    iterations (cold starts from a t2-constant guess often fail for
    strongly modulated oscillators).

    Parameters
    ----------
    envelope_result:
        A :class:`repro.wampde.envelope.WampdeEnvelopeResult` whose tail
        is (close to) T2-periodic.
    period2:
        The forcing period T2.
    num_t2:
        Odd collocation count of the target quasiperiodic solve.
    tail_start:
        Absolute t2 where the sampled period begins; defaults to the last
        full forcing period, aligned to a multiple of T2 so the forcing
        phase of the guess matches the collocation grid.

    Returns
    -------
    tuple
        ``(initial_samples, omega0)`` shaped for
        :func:`solve_wampde_quasiperiodic`.
    """
    check_positive(period2, "period2")
    n1 = check_odd(num_t2, "num_t2")
    t2 = envelope_result.t2
    if tail_start is None:
        periods_in = int(np.floor((t2[-1] - t2[0]) / period2))
        if periods_in < 1:
            raise SimulationError(
                "envelope run is shorter than one forcing period; cannot "
                "extract a periodic tail"
            )
        tail_start = t2[0] + (periods_in - 1) * period2
    grid = collocation_grid(n1, period2)
    samples = np.empty(
        (n1,) + envelope_result.samples.shape[1:], dtype=float
    )
    omegas = np.empty(n1)
    for i, tau in enumerate(grid):
        t_abs = min(tail_start + tau, t2[-1])
        row = int(np.clip(np.searchsorted(t2, t_abs), 0, t2.size - 1))
        samples[i] = envelope_result.samples[row]
        omegas[i] = envelope_result.local_frequency(t_abs)
    return samples, omegas


def solve_wampde_quasiperiodic(dae, period2, initial_samples, omega0,
                               num_t2=15, options=None, warm_start=None):
    """Solve the bi-periodic WaMPDE boundary-value problem.

    Parameters
    ----------
    dae:
        Forced autonomous system; ``b(t)`` must be ``period2``-periodic.
    period2:
        The forcing (slow) period T2.
    initial_samples:
        Starting guess: either ``(N0, n)`` — replicated across t2 — or a
        full ``(N1, N0, n)`` grid.  Use the unforced oscillator's HB
        solution.
    omega0:
        Starting local frequency [Hz] (scalar or length-``N1``).
    num_t2:
        Odd number of t2 collocation points ``N1``.
    options:
        :class:`WampdeQuasiperiodicOptions`.
    warm_start:
        Optional warm-start seed (duck-typed, typically
        :class:`repro.service.cache.WarmStart`): ``samples``/``omega0``
        supply the starting guess when the corresponding arguments are
        passed as ``None``.

    Returns
    -------
    WampdeQuasiperiodicResult
    """
    opts = options or WampdeQuasiperiodicOptions()
    check_positive(period2, "period2")
    n1 = check_odd(num_t2, "num_t2")

    if warm_start is not None:
        if initial_samples is None:
            initial_samples = getattr(warm_start, "samples", None)
        if omega0 is None:
            omega0 = getattr(warm_start, "omega0", None)
    if initial_samples is None or omega0 is None:
        raise SimulationError(
            "initial_samples and omega0 are required (directly or via "
            "warm_start)"
        )
    initial_samples = np.asarray(initial_samples, dtype=float)
    if initial_samples.ndim == 2:
        initial_samples = np.broadcast_to(
            initial_samples[None], (n1,) + initial_samples.shape
        ).copy()
    if initial_samples.ndim != 3 or initial_samples.shape[0] != n1:
        raise SimulationError(
            f"initial_samples must be (N0, n) or ({n1}, N0, n), got "
            f"{initial_samples.shape}"
        )
    _, n0, n = initial_samples.shape
    check_odd(n0, "N0 (t1 samples)")
    if n != dae.n:
        raise SimulationError(
            f"initial_samples has {n} variables, DAE has {dae.n}"
        )

    omega0 = np.asarray(omega0, dtype=float).ravel()
    if omega0.size == 1:
        omega0 = np.full(n1, omega0[0])
    if omega0.size != n1:
        raise SimulationError(
            f"omega0 must be scalar or length {n1}, got {omega0.size}"
        )

    condition = as_phase_condition(opts.phase_condition, opts.phase_variable)
    t2_grid = collocation_grid(n1, period2)

    system = WarpedCollocationSystem(
        dae, n0, condition=condition,
        diffmat2=fourier_differentiation_matrix(n1, period=period2),
    )
    system.b = np.stack([np.tile(dae.b(t), n0) for t in t2_grid]).ravel()
    core = core_from_options(opts)
    z0 = np.concatenate([initial_samples.ravel(), omega0])
    result = core.solve(system, z0)
    states = result.x[:system.total].reshape(n1, n0, n)
    omegas = result.x[system.total:]
    if np.any(omegas <= 0):
        raise SimulationError(
            "quasiperiodic WaMPDE converged to non-positive local frequency"
        )
    return WampdeQuasiperiodicResult(
        t2_grid, period2, omegas, states, dae.variable_names,
        result.iterations, core.stats.as_dict(),
    )
