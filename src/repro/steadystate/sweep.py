"""Oscillator frequency sweeps: tuning curves over a circuit parameter.

Computes free-running frequency (and amplitude) versus a swept parameter —
e.g. the VCO's control voltage, the paper's Figs 7/10 tuning curves — by
solving the autonomous HB problem at each value.  Two strategies:

``method="ensemble"`` (the fast path)
    All ``B`` scenarios advance through one lock-step batched settle
    transient (:func:`repro.transient.ensemble.simulate_transient_ensemble`
    over an :class:`repro.dae.ensemble.EnsembleDAE`), each scenario's
    period is estimated from its own zero crossings, and the per-scenario
    HB refinements run from those well-converged seeds.  The settle
    transient — the dominant cost of initialising a tuning curve from
    nothing — is paid once for the whole family instead of once per point.

``method="continuation"`` (the classic path)
    Solve point by point in sweep order, each HB solve seeded from the
    previous solution (natural continuation, with step bisection on
    failure).  Only the first point pays for the full
    DC→transient→HB initialisation pipeline.  Best when the values are
    ordered and closely spaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.serialize import SerializableMixin
from repro.errors import ConvergenceError
from repro.steadystate.harmonic_balance import harmonic_balance_autonomous
from repro.utils.validation import check_positive, check_settle


def _sweep_values(values):
    """``values`` as a float array, which must be 1-D and non-empty."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(
            f"values must be a 1-D sequence of parameter values, got shape "
            f"{values.shape}"
        )
    if values.size < 1:
        raise ValueError("sweep needs at least one parameter value")
    return values


@dataclass
class FrequencySweepResult(SerializableMixin):
    """Tuning curve from :func:`oscillator_frequency_sweep`.

    Attributes
    ----------
    values:
        Parameter values actually solved (in sweep order).  On a
        truncated sweep (``on_failure="truncate"``) this is the solved
        prefix only — always consistent with the other arrays.
    frequencies:
        Free-running frequency at each value [Hz].
    amplitudes:
        Peak-to-peak amplitude of the observed variable at each value.
    solver_stats:
        Per-scenario solver counters (one
        :class:`repro.linalg.solver_core.SolverStats` dict per solved
        value) when the sweep collects them; empty otherwise.
    """

    values: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray
    solver_stats: list = field(default_factory=list)

    @property
    def stats(self):
        """Uniform ``.stats`` view (points solved + per-point counters)."""
        return {
            "points": int(np.asarray(self.values).size),
            "solver_per_point": list(self.solver_stats),
        }


def oscillator_frequency_sweep(dae_factory, values, period_guess,
                               num_t1=25, variable=0,
                               phase_condition="fourier",
                               method="continuation", on_failure="raise",
                               stacked_factory=None):
    """Free-running frequency versus a swept parameter.

    Parameters
    ----------
    dae_factory:
        Callable ``value -> SemiExplicitDAE`` building the *unforced*
        oscillator at one parameter value (e.g.
        ``lambda vc: MemsVcoDae(replace(params, control_offset=vc),
        constant_control=True)``).
    values:
        1-D parameter values; swept in the given order, each HB solve
        seeded from the previous solution.
    period_guess:
        Rough oscillation period at ``values[0]`` (for the initial
        settle-transient), positive and finite.
    num_t1:
        Odd collocation count.
    variable:
        Variable used for the phase condition and amplitude report.
    method:
        ``"continuation"`` (point-by-point, seeded from the previous
        solution) or ``"ensemble"`` (one batched lock-step settle, then
        independent per-scenario HB refinements — see
        :func:`ensemble_frequency_sweep`).
    on_failure:
        ``"raise"`` — a failed point raises :class:`ConvergenceError`
        (with the truncated-but-consistent partial curve attached as
        ``exc.partial_result``); ``"truncate"`` — return the solved
        prefix as a consistent :class:`FrequencySweepResult`.
    stacked_factory:
        Optional ``values_array -> SemiExplicitDAE`` enabling the
        vectorised stacked-parameter fast path of the ensemble method.

    Returns
    -------
    FrequencySweepResult

    Raises
    ------
    ValueError
        Up front, naming the argument: ``values`` not 1-D or empty,
        ``period_guess`` not positive and finite.
    ConvergenceError
        If continuation fails at some value and ``on_failure="raise"``
        (message names the value).
    """
    if method not in ("continuation", "ensemble"):
        raise ValueError(
            f"method must be 'continuation' or 'ensemble', got {method!r}"
        )
    if on_failure not in ("raise", "truncate"):
        raise ValueError(
            f"on_failure must be 'raise' or 'truncate', got {on_failure!r}"
        )
    values = _sweep_values(values)
    check_positive(period_guess, "period_guess")
    if method == "ensemble":
        return ensemble_frequency_sweep(
            dae_factory, values, period_guess, num_t1=num_t1,
            variable=variable, phase_condition=phase_condition,
            on_failure=on_failure, stacked_factory=stacked_factory,
        )

    # Imported here: the initial-condition pipeline lives in repro.wampde,
    # which itself imports repro.steadystate (module-level import would be
    # circular).
    from repro.wampde.initial_condition import oscillator_initial_condition

    frequencies = np.empty(values.size)
    amplitudes = np.empty(values.size)
    solver_stats = []

    samples, frequency = oscillator_initial_condition(
        dae_factory(float(values[0])),
        num_t1=num_t1,
        period_guess=period_guess,
        phase_condition=phase_condition,
        phase_variable=variable,
    )

    def solve_at(value, seed_samples, seed_frequency, depth=0,
                 from_value=None):
        """HB at one value; on failure, bisect the continuation step."""
        dae = dae_factory(float(value))
        try:
            return harmonic_balance_autonomous(
                dae,
                frequency_guess=seed_frequency,
                initial=seed_samples,
                phase_condition=phase_condition,
                phase_variable=variable,
                num_samples=num_t1,
            )
        except ConvergenceError as exc:
            if depth >= 6 or from_value is None or from_value == value:
                raise ConvergenceError(
                    f"frequency sweep failed at parameter value "
                    f"{value!r}: {exc}"
                ) from exc
            midpoint = 0.5 * (from_value + value)
            mid = solve_at(midpoint, seed_samples, seed_frequency,
                           depth + 1, from_value)
            return solve_at(value, mid.samples, mid.frequency,
                            depth + 1, midpoint)

    previous_value = None
    for i, value in enumerate(values):
        try:
            hb = solve_at(float(value), samples, frequency,
                          from_value=previous_value)
        except ConvergenceError as exc:
            partial = FrequencySweepResult(
                values[:i].copy(), frequencies[:i].copy(),
                amplitudes[:i].copy(), solver_stats,
            )
            if on_failure == "truncate":
                return partial
            exc.partial_result = partial
            raise
        samples, frequency = hb.samples, hb.frequency
        previous_value = float(value)
        frequencies[i] = frequency
        trace = samples[:, variable]
        amplitudes[i] = float(trace.max() - trace.min())
        solver_stats.append(dict(hb.stats))

    return FrequencySweepResult(
        values.copy(), frequencies, amplitudes, solver_stats
    )


def ensemble_frequency_sweep(dae_factory, values, period_guess, num_t1=25,
                             variable=0, phase_condition="fourier",
                             on_failure="raise", stacked_factory=None,
                             settle_cycles=40, steps_per_cycle=60,
                             perturbation=0.1):
    """Tuning curve with every parameter value settled in lock-step.

    The batched analogue of running
    :func:`repro.wampde.initial_condition.oscillator_initial_condition`
    at every value: per-scenario DC points are kicked and settled onto
    their limit cycles by **one** ensemble transient on a shared grid,
    each scenario's period comes from its own zero crossings, and the
    final autonomous HB refinements run independently from those seeds
    (each converging in a handful of iterations).  The scenarios never
    talk to each other — unlike continuation there is no ordering
    requirement on ``values`` and no failure coupling between points.

    Parameters mirror :func:`oscillator_frequency_sweep`; additionally:

    Parameters
    ----------
    settle_cycles, steps_per_cycle:
        Length and resolution (in ``period_guess`` units) of the shared
        settling transient: positive integers.
    perturbation:
        Kick added to ``variable`` of each scenario's DC point to start
        the oscillation.

    Returns
    -------
    FrequencySweepResult
        With one ``solver_stats`` entry per value (the scenario's HB
        counters).
    """
    from repro.dae.ensemble import ensemble_from_factory
    from repro.steadystate.dc import dc_operating_point
    from repro.steadystate.shooting import estimate_period_from_transient
    from repro.transient.engine import TransientOptions
    from repro.transient.ensemble import simulate_transient_ensemble

    values = _sweep_values(values)
    if on_failure not in ("raise", "truncate"):
        raise ValueError(
            f"on_failure must be 'raise' or 'truncate', got {on_failure!r}"
        )
    check_settle(period_guess, settle_cycles, steps_per_cycle)

    ensemble = ensemble_from_factory(dae_factory, values, stacked_factory)
    batch = ensemble.batch_size

    # Per-scenario DC points.  A scenario whose DC point fails would
    # poison the shared lock-step settle, so the sweep is trimmed to the
    # prefix before the first failure *up front* (the already-converged
    # prefix then runs through the pipeline exactly once) and the
    # failure surfaces per ``on_failure`` at the end.
    dc_failure = None
    x0 = np.empty((batch, ensemble.n))
    for index in range(batch):
        try:
            x0[index] = dc_operating_point(ensemble.member(index))
        except ConvergenceError as exc:
            dc_failure = (index, exc)
            batch = index
            if batch:
                ensemble = ensemble_from_factory(
                    dae_factory, values[:batch], stacked_factory
                )
                x0 = x0[:batch]
            break
        x0[index, variable] += perturbation

    frequencies = np.empty(batch)
    amplitudes = np.empty(batch)
    solver_stats = []

    if batch:
        settle = simulate_transient_ensemble(
            ensemble, x0, 0.0, settle_cycles * period_guess,
            TransientOptions(
                integrator="trap", dt=period_guess / steps_per_cycle,
            ),
        )
        solved = 0
        for index in range(batch):
            try:
                member = settle.member(index)
                period = estimate_period_from_transient(member, key=variable)
                tail_start = member.t[-1] - period
                times = tail_start + period * np.arange(num_t1) / num_t1
                rough_cycle = member.sample(times)
                hb = harmonic_balance_autonomous(
                    ensemble.member(index),
                    frequency_guess=1.0 / period,
                    initial=rough_cycle,
                    phase_condition=phase_condition,
                    phase_variable=variable,
                    num_samples=num_t1,
                )
            except ConvergenceError as exc:
                partial = FrequencySweepResult(
                    values[:solved].copy(), frequencies[:solved].copy(),
                    amplitudes[:solved].copy(), solver_stats,
                )
                if on_failure == "truncate":
                    return partial
                wrapped = ConvergenceError(
                    f"ensemble frequency sweep failed at parameter value "
                    f"{values[index]!r}: {exc}"
                )
                wrapped.partial_result = partial
                raise wrapped from exc
            frequencies[index] = hb.frequency
            trace = hb.samples[:, variable]
            amplitudes[index] = float(trace.max() - trace.min())
            solver_stats.append(dict(hb.stats))
            solved = index + 1

    result = FrequencySweepResult(
        values[:batch].copy(), frequencies, amplitudes, solver_stats
    )
    if dc_failure is not None and on_failure == "raise":
        index, exc = dc_failure
        wrapped = ConvergenceError(
            f"ensemble frequency sweep failed at parameter value "
            f"{values[index]!r}: DC operating point did not converge: {exc}"
        )
        wrapped.partial_result = result
        raise wrapped from exc
    return result
