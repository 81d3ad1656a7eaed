"""Batched control-voltage sweep of the MEMS VCO tuning curve.

The paper's Figs 7/10 tuning behaviour is a *family* of runs — one
free-running solve per control voltage.  This example drives the ensemble
batch axis end to end:

1. build one stacked-parameter :class:`~repro.circuits.library.MemsVcoDae`
   carrying all B control voltages (plus per-scenario members);
2. settle every scenario onto its limit cycle with **one** lock-step
   batched transient (:func:`repro.transient.simulate_transient_ensemble`);
3. refine each point with autonomous harmonic balance seeded from its own
   settled cycle (:func:`repro.steadystate.ensemble_frequency_sweep` does
   2+3 in one call);
4. compare against the serial loop of independent runs — the batched path
   wins because the per-step Python dispatch is paid once per ensemble,
   not once per scenario.

Run with::

    PYTHONPATH=src python examples/ensemble_sweep.py
"""

from dataclasses import replace

import numpy as np

from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
from repro.dae import ensemble_from_factory
from repro.linalg.solver_core import SolverStats
from repro.steadystate import ensemble_frequency_sweep
from repro.transient import TransientOptions, simulate_transient, \
    simulate_transient_ensemble
from repro.utils import WallTimer, format_table


def main():
    base = VcoParams.vacuum()
    control_voltages = np.linspace(0.8, 2.4, 8)

    def factory(vc):
        return MemsVcoDae(
            replace(base, control_offset=vc), constant_control=True
        )

    def stacked_factory(values):
        return MemsVcoDae(
            replace(base, control_offset=np.asarray(values)),
            constant_control=True,
        )

    # --- the raw engine-level comparison: one batched transient versus the
    # serial loop over the same B scenarios ------------------------------
    ensemble = ensemble_from_factory(
        factory, control_voltages, stacked_factory
    )
    x0 = np.tile([1.0, 0.0, 0.0, 0.0], (control_voltages.size, 1))
    # kernel="python" on both sides: this comparison isolates the NumPy
    # lock-step batching win over per-scenario python dispatch.  The
    # compiled per-DAE C sweep (kernel="auto"/"c") accelerates the
    # serial runs far past either path — see benchmarks/README.md.
    options = TransientOptions(
        integrator="trap", dt=T_NOMINAL / 100, kernel="python"
    )
    horizon = 30 * T_NOMINAL

    with WallTimer() as batched_timer:
        batched = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, options
        )
    with WallTimer() as serial_timer:
        for index, vc in enumerate(control_voltages):
            simulate_transient(factory(vc), x0[index], 0.0, horizon, options)
    print(
        f"{control_voltages.size}-scenario transient: batched "
        f"{batched_timer.elapsed:.2f} s vs serial loop "
        f"{serial_timer.elapsed:.2f} s "
        f"({serial_timer.elapsed / batched_timer.elapsed:.1f}x)"
    )
    print(f"ensemble solver: "
          f"{SolverStats(**batched.stats['solver']).summary()}")
    print()

    # --- the tuning curve through the full ensemble sweep ----------------
    with WallTimer() as sweep_timer:
        sweep = ensemble_frequency_sweep(
            factory, control_voltages, period_guess=T_NOMINAL,
            stacked_factory=stacked_factory,
        )
    print(format_table(
        ["Vc [V]", "frequency [MHz]", "amplitude [Vpp]"],
        [[vc, f / 1e6, a] for vc, f, a in
         zip(sweep.values, sweep.frequencies, sweep.amplitudes)],
        title=f"MEMS VCO tuning curve — {control_voltages.size} points in "
              f"{sweep_timer.elapsed:.2f} s (lock-step ensemble settle)",
    ))
    for vc, stats in zip(sweep.values, sweep.solver_stats):
        print(f"  Vc={vc:.2f} V HB: {SolverStats(**stats).summary()}")


if __name__ == "__main__":
    main()
