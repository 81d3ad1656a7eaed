"""Initial conditions for WaMPDE envelope runs.

Paper §4.1: "a natural initial condition is the solution of (12) with no
forcing, i.e., with b(t) constant."  This module automates the pipeline:

    DC point → perturb → transient until the limit cycle settles →
    period estimate from zero crossings → autonomous harmonic balance
    (with the *same* phase condition the envelope will use)

yielding ``(samples, omega0)`` ready for
:func:`repro.wampde.envelope.solve_wampde_envelope`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.phase_conditions import as_phase_condition
from repro.steadystate.dc import dc_operating_point
from repro.steadystate.harmonic_balance import harmonic_balance_autonomous
from repro.steadystate.shooting import estimate_period_from_transient
from repro.transient.engine import TransientOptions, simulate_transient
from repro.utils.validation import check_odd, check_settle


def oscillator_initial_condition(dae_unforced, num_t1=25,
                                 phase_condition="fourier",
                                 phase_variable=0, period_guess=None,
                                 settle_cycles=40, steps_per_cycle=60,
                                 perturbation=None, t0=0.0):
    """Steady oscillation of the unforced system, as WaMPDE initial data.

    Parameters
    ----------
    dae_unforced:
        The oscillator with its forcing frozen (e.g. the VCO with constant
        control voltage).
    num_t1:
        Odd number of t1 samples to return.
    phase_condition, phase_variable:
        Must match the envelope solver's settings so the initial samples
        satisfy its phase equation.
    period_guess:
        Rough period [s], positive and finite; used to size the settling
        transient.  Required — there is no reliable way to guess an
        oscillation timescale from the equations alone.
    settle_cycles:
        Limit-cycle settling length, in (estimated) periods: a positive
        integer.
    steps_per_cycle:
        Transient resolution during settling: a positive integer.
    perturbation:
        State offset added to the DC point to kick the oscillation
        (default: 10% of unity on the phase variable).

    Returns
    -------
    tuple
        ``(samples, omega0)``: ``(num_t1, n)`` waveform samples on the
        normalised t1 grid and the free-running frequency [Hz].
    """
    check_odd(num_t1, "num_t1")
    if period_guess is None:
        raise SimulationError(
            "period_guess is required: supply a rough oscillation period"
        )
    try:
        check_settle(period_guess, settle_cycles, steps_per_cycle)
    except ValidationError as exc:
        raise SimulationError(str(exc)) from None

    x_dc = dc_operating_point(dae_unforced, t0=t0)

    kick = np.zeros(dae_unforced.n)
    if perturbation is None:
        kick[phase_variable] = 0.1
    else:
        kick = np.asarray(perturbation, dtype=float)
        if kick.shape != (dae_unforced.n,):
            raise SimulationError(
                f"perturbation must have shape ({dae_unforced.n},), got "
                f"{kick.shape}"
            )

    options = TransientOptions(
        integrator="trap", dt=period_guess / steps_per_cycle
    )
    settle = simulate_transient(
        dae_unforced,
        x_dc + kick,
        t0,
        t0 + settle_cycles * period_guess,
        options,
    )
    period = estimate_period_from_transient(settle, key=phase_variable)

    # One representative cycle, sampled on the normalised grid, seeds HB.
    tail_start = settle.t[-1] - period
    times = tail_start + period * np.arange(num_t1) / num_t1
    rough_cycle = settle.sample(times)

    hb = harmonic_balance_autonomous(
        dae_unforced,
        frequency_guess=1.0 / period,
        initial=rough_cycle,
        phase_condition=phase_condition,
        phase_variable=phase_variable,
        num_samples=num_t1,
        forcing_time=t0,
    )
    condition = as_phase_condition(phase_condition, phase_variable)
    residual = condition.residual(hb.samples)
    scale = float(np.max(np.abs(hb.samples[:, phase_variable]))) or 1.0
    if abs(residual) > 1e-6 * scale * num_t1:
        raise SimulationError(
            f"initial condition violates the phase condition "
            f"(residual {residual:.3e}); HB did not converge cleanly"
        )
    return hb.samples, hb.frequency
