"""§5 headline: "WaMPDE-based simulation results in speedups of two orders
of magnitude over transient simulation."

The comparison is made the way the paper makes it: the WaMPDE versus the
transient rate needed for *comparable phase accuracy* (1000 points per
nominal cycle, per Fig 12).  All runs come from the shared ``fig12_data``
fixture; this bench re-times the WaMPDE envelope as its payload, prints the
wall-clock table, and emits ``BENCH_speedup.json`` — the machine-readable
perf trajectory (wall times + phase errors) tracked across PRs.
"""

import json
from pathlib import Path

import numpy as np

from repro.circuits.library import MemsVcoDae
from repro.utils import WallTimer, format_table, write_csv
from repro.wampde import solve_wampde_envelope

#: Repo-root copy of the perf record, committed to track the trajectory.
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_speedup.json"


def _bench_ported_solvers():
    """Time the SolverCore-ported steady-state workloads.

    Two representative call sites of the shared solver core join the perf
    ratchet here: forced harmonic balance and the bi-periodic MPDE solve,
    both on the RC-diode mixer (the library's standard nonlinear
    non-autonomous testbench).  Returns BENCH method entries.
    """
    from repro.circuits.library import rc_diode_mixer_circuit
    from repro.constants import TWO_PI
    from repro.mpde import additive_two_tone_forcing, solve_mpde_quasiperiodic
    from repro.steadystate import dc_operating_point, harmonic_balance_forced

    entries = []

    rectifier = rc_diode_mixer_circuit(
        lo_amplitude=0.0, rf_amplitude=0.3, rf_frequency=1e4
    ).to_dae()
    x_dc = dc_operating_point(rectifier)
    num_samples = 601
    with WallTimer() as timer:
        hb = harmonic_balance_forced(
            rectifier, period=1e-4, num_samples=num_samples,
            initial=np.tile(x_dc, (num_samples, 1)),
        )
    # 1803 unknowns run the matrix-free route; an LU factorisation here
    # means the solve fell back to the assembled Jacobian.
    assert hb.stats["factorizations"] == 0, (
        f"forced HB fell back to assembly: {hb.stats}"
    )
    entries.append({
        "name": "harmonic_balance_forced",
        "steps": int(hb.newton_iterations),
        "krylov_iterations": int(hb.stats["krylov_iterations"]),
        "factorizations": int(hb.stats["factorizations"]),
        "wall_time_s": timer.elapsed,
        "wall_time_retimed_s": timer.elapsed,
    })

    mixer = rc_diode_mixer_circuit().to_dae()
    n = mixer.n
    f_rf, f_lo = 1e5, 1e3

    def fast(t1):
        b = np.zeros(n)
        b[-1] = 0.6 + 0.05 * np.sin(TWO_PI * f_rf * t1)
        return b

    def slow(t2):
        b = np.zeros(n)
        b[-1] = 0.4 * np.sin(TWO_PI * f_lo * t2)
        return b

    forcing = additive_two_tone_forcing(fast, slow, 1 / f_rf, 1 / f_lo, n)
    x_dc = dc_operating_point(mixer)
    with WallTimer() as timer:
        qp = solve_mpde_quasiperiodic(
            mixer, forcing, num_t1=31, num_t2=31, initial=x_dc
        )
    entries.append({
        "name": "solve_mpde_quasiperiodic",
        "steps": int(qp.newton_iterations),
        "wall_time_s": timer.elapsed,
        "wall_time_retimed_s": timer.elapsed,
    })
    return entries


def _bench_ensemble_sweep(batch=8):
    """Batched control-voltage sweep versus the serial loop (ratcheted).

    The ensemble tentpole's win condition: ``batch`` scenarios of the
    vacuum VCO advanced in lock-step by
    :func:`repro.transient.ensemble.simulate_transient_ensemble` must run
    in far less than ``batch`` times the single-run wall time.  The entry
    ratchets the batched wall time; the >= 2x speedup over the serial
    loop is asserted outright so a dispatch-overhead regression fails the
    bench even before the baseline comparison.
    """
    from dataclasses import replace

    from repro.circuits.library import T_NOMINAL, VcoParams
    from repro.dae import ensemble_from_factory
    from repro.transient import (
        TransientOptions,
        simulate_transient,
        simulate_transient_ensemble,
    )

    base = VcoParams.vacuum()
    control_voltages = np.linspace(0.8, 2.4, batch)

    def factory(vc):
        return MemsVcoDae(
            replace(base, control_offset=vc), constant_control=True
        )

    def stacked_factory(values):
        return MemsVcoDae(
            replace(base, control_offset=np.asarray(values)),
            constant_control=True,
        )

    ensemble = ensemble_from_factory(
        factory, control_voltages, stacked_factory
    )
    x0 = np.tile([1.0, 0.0, 0.0, 0.0], (batch, 1))
    options = TransientOptions(integrator="trap", dt=T_NOMINAL / 100)
    horizon = 40 * T_NOMINAL

    with WallTimer() as batched_timer:
        batched = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, options
        )
    # The serial loop pins kernel="python": this entry ratchets what
    # NumPy batching buys over per-scenario *python* dispatch — the
    # compiled sweep (which beats both on kernel-supported DAEs) is
    # ratcheted separately by transient_reference_compiled.
    serial_options = TransientOptions(
        integrator="trap", dt=T_NOMINAL / 100, kernel="python"
    )
    with WallTimer() as serial_timer:
        serial_finals = []
        for index, vc in enumerate(control_voltages):
            run = simulate_transient(
                factory(vc), x0[index], 0.0, horizon, serial_options
            )
            serial_finals.append(run.x[-1])

    # Lock-step results must match the independent runs within solver
    # tolerance — the speedup is worthless otherwise.
    finals = batched.x[-1]
    scale = np.maximum(np.abs(serial_finals), 1e-12)
    mismatch = float(np.max(np.abs(finals - serial_finals) / scale))
    assert mismatch < 1e-4, f"ensemble diverged from serial runs: {mismatch}"

    speedup = serial_timer.elapsed / batched_timer.elapsed
    assert speedup >= 2.0, (
        f"batched ensemble only {speedup:.2f}x faster than the serial "
        f"loop at B={batch} (require >= 2x)"
    )
    return {
        "name": "ensemble_sweep",
        "steps": int(batched.stats["steps"]) * batch,
        "wall_time_s": batched_timer.elapsed,
        "wall_time_retimed_s": batched_timer.elapsed,
        "serial_wall_time_s": serial_timer.elapsed,
        "batch_size": batch,
        "speedup_vs_serial_loop": speedup,
    }


def _bench_ensemble_sweep_compiled(batch=8):
    """Compiled batched march versus the NumPy lock-step path (ratcheted).

    The batched-kernel tentpole's win condition: the same control-voltage
    sweep as ``ensemble_sweep``, advanced by the compiled ``sweep_ens``
    march, must beat the python lock-step engine by >= 3x at ``B = 8``
    whenever a compiled backend is available — asserted outright, with
    the compiled wall time joining the ratchet.
    """
    from dataclasses import replace

    from repro.circuits.library import T_NOMINAL, VcoParams
    from repro.dae import ensemble_from_factory
    from repro.transient import TransientOptions, simulate_transient_ensemble

    base = VcoParams.vacuum()
    control_voltages = np.linspace(0.8, 2.4, batch)

    def factory(vc):
        return MemsVcoDae(
            replace(base, control_offset=vc), constant_control=True
        )

    def stacked_factory(values):
        return MemsVcoDae(
            replace(base, control_offset=np.asarray(values)),
            constant_control=True,
        )

    ensemble = ensemble_from_factory(
        factory, control_voltages, stacked_factory
    )
    x0 = np.tile([1.0, 0.0, 0.0, 0.0], (batch, 1))
    horizon = 40 * T_NOMINAL

    def options(kernel):
        return TransientOptions(
            integrator="trap", dt=T_NOMINAL / 100, kernel=kernel
        )

    with WallTimer() as python_timer:
        python_run = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, options("python")
        )
    with WallTimer() as compiled_timer:
        compiled_run = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, options("auto")
        )

    mode = compiled_run.stats["kernel"]["mode"]
    scale = np.abs(python_run.x).max()
    mismatch = float(np.abs(compiled_run.x - python_run.x).max() / scale)
    assert mismatch < 1e-9, (
        f"compiled ensemble march diverged from the python lock-step "
        f"path: {mismatch}"
    )
    assert (compiled_run.stats["newton_iterations"]
            == python_run.stats["newton_iterations"]), \
        "compiled ensemble march changed the chord iteration count"
    speedup = python_timer.elapsed / compiled_timer.elapsed
    if mode != "python":
        assert speedup >= 3.0, (
            f"compiled ({mode}) ensemble march only {speedup:.2f}x faster "
            f"than the python lock-step path at B={batch} (require >= 3x)"
        )
    return {
        "name": "ensemble_sweep_compiled",
        "steps": int(compiled_run.stats["steps"]) * batch,
        "wall_time_s": compiled_timer.elapsed,
        "wall_time_retimed_s": compiled_timer.elapsed,
        "python_wall_time_s": python_timer.elapsed,
        "batch_size": batch,
        "kernel_mode": mode,
        "speedup_vs_python_lockstep": speedup,
    }


def _bench_ensemble_large_b(batch=256, shard=8):
    """Single large-B lock-step march versus shard-sized passes (ratcheted).

    The array-backend tentpole's win condition: a thousand-scenario-class
    ensemble (``B = 256``) advanced as ONE lock-step march must beat the
    same scenarios run as ``B // shard`` sequential shard-sized passes
    (``shard = 8`` — the host python-kernel shard size from
    :meth:`repro.backend.ArrayBackend.ensemble_shard_size`) by >= 3x,
    asserted outright.  Both sides pin ``kernel="python"`` so the entry
    ratchets what whole-batch array dispatch buys over fragmented
    marches; trajectories are cross-checked against independently
    integrated sample scenarios.
    """
    from dataclasses import replace

    from repro.circuits.library import T_NOMINAL, VcoParams
    from repro.dae import ensemble_from_factory
    from repro.transient import (
        TransientOptions,
        merge_ensemble_results,
        simulate_transient,
        simulate_transient_ensemble,
    )

    base = VcoParams.vacuum()
    control_voltages = np.linspace(0.8, 2.4, batch)

    def factory(vc):
        return MemsVcoDae(
            replace(base, control_offset=vc), constant_control=True
        )

    def stacked_factory(values):
        return MemsVcoDae(
            replace(base, control_offset=np.asarray(values)),
            constant_control=True,
        )

    ensemble = ensemble_from_factory(
        factory, control_voltages, stacked_factory
    )
    x0 = np.tile([1.0, 0.0, 0.0, 0.0], (batch, 1))
    options = TransientOptions(
        integrator="trap", dt=T_NOMINAL / 100, kernel="python"
    )
    horizon = 10 * T_NOMINAL

    with WallTimer() as march_timer:
        march = simulate_transient_ensemble(
            ensemble, x0, 0.0, horizon, options
        )
    with WallTimer() as shard_timer:
        pieces = []
        for start in range(0, batch, shard):
            indices = np.arange(start, min(start + shard, batch))
            pieces.append(simulate_transient_ensemble(
                ensemble.subset(indices), x0[indices], 0.0, horizon,
                options,
            ))
    merged = merge_ensemble_results(pieces)

    # Shard composition changes which chord factors scenarios share, so
    # agreement is within solver tolerance rather than bit-exact.
    scale = np.abs(march.x).max()
    mismatch = float(np.abs(merged.x - march.x).max() / scale)
    assert mismatch < 1e-4, (
        f"large-B march diverged from shard-sized passes: {mismatch}"
    )
    # Spot-check the big march against independently integrated members.
    for index in (0, batch // 2, batch - 1):
        solo = simulate_transient(
            factory(control_voltages[index]), x0[index], 0.0, horizon,
            options,
        )
        ref_scale = np.maximum(np.abs(solo.x[-1]), 1e-12)
        solo_mismatch = float(np.max(
            np.abs(march.x[-1, index] - solo.x[-1]) / ref_scale
        ))
        assert solo_mismatch < 1e-4, (
            f"scenario {index} diverged from its serial reference: "
            f"{solo_mismatch}"
        )

    speedup = shard_timer.elapsed / march_timer.elapsed
    assert speedup >= 3.0, (
        f"B={batch} march only {speedup:.2f}x faster than "
        f"{batch // shard} sequential B={shard} passes (require >= 3x)"
    )
    assert march.stats["backend"]["routing"] == "python-lockstep"
    return {
        "name": "ensemble_large_b",
        "steps": int(march.stats["steps"]) * batch,
        "wall_time_s": march_timer.elapsed,
        "wall_time_retimed_s": march_timer.elapsed,
        "sharded_wall_time_s": shard_timer.elapsed,
        "batch_size": batch,
        "shard_size": shard,
        "speedup_vs_sharded_passes": speedup,
    }


def _bench_transient_adaptive_compiled():
    """Compiled adaptive march versus the python adaptive loop (ratcheted).

    Win condition for the adaptive-step kernelization: a long
    error-controlled VCO transient through ``sweep_adaptive`` must beat
    the python adaptive loop by >= 2x whenever a compiled backend is
    available, while accepting the same number of steps.
    """
    from repro.circuits.library import T_NOMINAL, VcoParams
    from repro.transient import TransientOptions, simulate_transient

    dae = MemsVcoDae(VcoParams.vacuum(), constant_control=True)
    x0 = [1.0, 0.0, 0.0, 0.0]
    horizon = 40 * T_NOMINAL

    def options(kernel):
        return TransientOptions(
            integrator="trap", dt=T_NOMINAL / 500, adaptive=True,
            kernel=kernel, max_steps=2_000_000,
        )

    with WallTimer() as python_timer:
        python_run = simulate_transient(
            dae, x0, 0.0, horizon, options("python")
        )
    with WallTimer() as compiled_timer:
        compiled_run = simulate_transient(
            dae, x0, 0.0, horizon, options("auto")
        )

    mode = compiled_run.stats["kernel"]["mode"]
    # Over tens of thousands of error-controlled steps, ulp-level
    # differences between the python and kernel linear solves accumulate
    # into a small dt-sequence phase drift; exact short-horizon parity is
    # pinned down in tests/test_kernels.py, the bench only guards against
    # gross divergence.
    assert abs(
        compiled_run.stats["steps"] - python_run.stats["steps"]
    ) <= 2, (
        "compiled adaptive march accepted a different step count than "
        "the python loop"
    )
    scale = np.abs(python_run.x).max()
    mismatch = float(np.abs(
        np.asarray(compiled_run.x)[-1] - np.asarray(python_run.x)[-1]
    ).max() / scale)
    assert mismatch < 1e-3, (
        f"compiled adaptive march diverged from the python loop: "
        f"{mismatch}"
    )
    speedup = python_timer.elapsed / compiled_timer.elapsed
    if mode != "python":
        assert speedup >= 2.0, (
            f"compiled ({mode}) adaptive march only {speedup:.2f}x faster "
            f"than the python adaptive loop (require >= 2x)"
        )
    return {
        "name": "transient_adaptive_compiled",
        "steps": int(compiled_run.stats["steps"]),
        "wall_time_s": compiled_timer.elapsed,
        "wall_time_retimed_s": compiled_timer.elapsed,
        "python_wall_time_s": python_timer.elapsed,
        "kernel_mode": mode,
        "speedup_vs_python_adaptive": speedup,
    }


def _bench_service_warm_envelope():
    """Warm-vs-cold envelope through the simulation service (ratcheted).

    The service tentpole's win condition: resubmitting a bit-identical
    :class:`EnvelopeRequest` must replay the cached serialized result —
    no §4.1 initialisation, no envelope march — at least 5x faster than
    the cold run and bit-identical with it.  Two entries join the
    ratchet: the cold end-to-end submission (request dispatch + DC →
    settle → HB + envelope) and the warm replay (cache lookup + result
    deserialization); the >= 5x speedup is asserted outright so a cache
    regression fails the bench even before the baseline comparison.
    """
    from repro.api import EnvelopeRequest
    from repro.circuits.library import T_NOMINAL, VcoParams
    from repro.service import SimulationService
    from repro.wampde import WampdeEnvelopeOptions

    params = VcoParams.vacuum()

    def request():
        return EnvelopeRequest(
            dae=MemsVcoDae(params),
            t2_start=0.0, t2_stop=10e-6, num_steps=100,
            unforced_dae=MemsVcoDae(params, constant_control=True),
            num_t1=25, period_guess=T_NOMINAL,
            options=WampdeEnvelopeOptions(),
        )

    replays = 5
    with SimulationService(workers=0) as service:
        with WallTimer() as cold_timer:
            cold_job = service.submit(request())
        cold = cold_job.result
        # Replay a few times and ratchet the mean: a single replay is
        # milliseconds of JSON decoding, too jittery to gate on alone.
        with WallTimer() as warm_timer:
            warm_jobs = [service.submit(request()) for _ in range(replays)]
        warm_mean = warm_timer.elapsed / replays

    for warm_job in warm_jobs:
        assert warm_job.cache_hit, "exact resubmission missed the cache"
        warm = warm_job.result
        assert np.array_equal(cold.omega, warm.omega), \
            "cache replay is not bit-identical (omega)"
        assert np.array_equal(cold.samples, warm.samples), \
            "cache replay is not bit-identical (samples)"
    speedup = cold_timer.elapsed / warm_mean
    assert speedup >= 5.0, (
        f"warm replay only {speedup:.2f}x faster than the cold "
        f"envelope (require >= 5x)"
    )
    return [
        {
            "name": "service_envelope_cold",
            "steps": int(cold.stats["steps"]),
            "wall_time_s": cold_timer.elapsed,
            "wall_time_retimed_s": cold_timer.elapsed,
        },
        {
            "name": "service_warm_envelope",
            "steps": 0,
            "wall_time_s": warm_mean,
            "wall_time_retimed_s": warm_mean,
            "cold_wall_time_s": cold_timer.elapsed,
            "replays": replays,
            "replay_speedup": speedup,
        },
    ]


def test_speedup_table(benchmark, fig12_data, air_ic, output_dir):
    params, samples, f0 = air_ic
    horizon = fig12_data["horizon"]
    forced = MemsVcoDae(params)

    from repro.wampde import WampdeEnvelopeOptions

    with WallTimer() as retimer:
        benchmark.pedantic(
            solve_wampde_envelope,
            args=(forced, samples, f0, 0.0, horizon,
                  fig12_data["wampde"]["steps"]),
            kwargs={"options": WampdeEnvelopeOptions(integrator="trap")},
            rounds=1, iterations=1,
        )

    wampde_time = fig12_data["wampde"]["time"]
    reference_time = fig12_data["reference_time"]
    compiled_time = fig12_data["reference_compiled_time"]
    compiled_mode = fig12_data["reference_compiled_mode"]
    kernel_speedup = reference_time / compiled_time
    # The tentpole win condition: the compiled sweep must run the
    # 1000 pts/cycle reference at least 3x faster than the python
    # oracle whenever a compiled backend is actually available.
    if compiled_mode != "python":
        assert kernel_speedup >= 3.0, (
            f"compiled ({compiled_mode}) reference only "
            f"{kernel_speedup:.2f}x faster than the python oracle "
            f"(require >= 3x)"
        )
    speedup = reference_time / wampde_time
    # The paper claims two orders of magnitude; allow a generous band for
    # host variation while requiring the order of magnitude to hold.
    assert speedup > 20.0

    rows = [
        ["ODE: 50 pts/cycle (inaccurate: "
         f"{fig12_data['transient'][50]['phase_error_cycles']:.3f} cyc err)",
         fig12_data["transient"][50]["steps"],
         fig12_data["transient"][50]["time"], "-"],
        ["ODE: 100 pts/cycle (inaccurate: "
         f"{fig12_data['transient'][100]['phase_error_cycles']:.3f} cyc err)",
         fig12_data["transient"][100]["steps"],
         fig12_data["transient"][100]["time"], "-"],
        ["ODE: 1000 pts/cycle (WaMPDE-comparable accuracy)",
         fig12_data["reference_steps"], reference_time, 1.0],
        [f"ODE: 1000 pts/cycle, compiled kernel ({compiled_mode})",
         fig12_data["reference_compiled_steps"], compiled_time,
         kernel_speedup],
        ["WaMPDE envelope",
         fig12_data["wampde"]["steps"], wampde_time, speedup],
    ]
    print()
    print(format_table(
        ["method", "steps", "wall time [s]", "speedup vs accurate ODE"],
        rows,
        title=f"Speedup over {horizon*1e3:.2f} ms of the modified VCO "
              "(paper: two orders of magnitude)",
    ))
    write_csv(
        output_dir / "speedup_table.csv",
        ["steps", "wall_time_s"],
        [[fig12_data["transient"][50]["steps"],
          fig12_data["transient"][100]["steps"],
          fig12_data["reference_steps"],
          fig12_data["wampde"]["steps"]],
         [fig12_data["transient"][50]["time"],
          fig12_data["transient"][100]["time"],
          reference_time, wampde_time]],
    )

    ported = _bench_ported_solvers()
    print(format_table(
        ["ported solver", "newton iterations", "wall time [s]"],
        [[e["name"], e["steps"], e["wall_time_s"]] for e in ported],
        title="SolverCore-ported steady-state workloads (ratcheted)",
    ))

    ensemble_entry = _bench_ensemble_sweep()
    print(format_table(
        ["metric", "value"],
        [["scenarios (B)", ensemble_entry["batch_size"]],
         ["batched wall time [s]", ensemble_entry["wall_time_s"]],
         ["serial-loop wall time [s]", ensemble_entry["serial_wall_time_s"]],
         ["speedup vs serial loop",
          ensemble_entry["speedup_vs_serial_loop"]]],
        title="Ensemble control-voltage sweep (ratcheted; >= 2x enforced)",
    ))

    ensemble_compiled_entry = _bench_ensemble_sweep_compiled()
    print(format_table(
        ["metric", "value"],
        [["scenarios (B)", ensemble_compiled_entry["batch_size"]],
         ["kernel mode", ensemble_compiled_entry["kernel_mode"]],
         ["compiled wall time [s]", ensemble_compiled_entry["wall_time_s"]],
         ["python lock-step wall time [s]",
          ensemble_compiled_entry["python_wall_time_s"]],
         ["speedup vs python lock-step",
          ensemble_compiled_entry["speedup_vs_python_lockstep"]]],
        title="Compiled batched ensemble march "
              "(ratcheted; >= 3x enforced when compiled)",
    ))

    large_b_entry = _bench_ensemble_large_b()
    print(format_table(
        ["metric", "value"],
        [["scenarios (B)", large_b_entry["batch_size"]],
         ["shard size", large_b_entry["shard_size"]],
         ["single-march wall time [s]", large_b_entry["wall_time_s"]],
         ["sharded-passes wall time [s]",
          large_b_entry["sharded_wall_time_s"]],
         ["speedup vs sharded passes",
          large_b_entry["speedup_vs_sharded_passes"]]],
        title="Large-B ensemble march vs shard-sized passes "
              "(ratcheted; >= 3x enforced)",
    ))

    adaptive_compiled_entry = _bench_transient_adaptive_compiled()
    print(format_table(
        ["metric", "value"],
        [["kernel mode", adaptive_compiled_entry["kernel_mode"]],
         ["compiled wall time [s]", adaptive_compiled_entry["wall_time_s"]],
         ["python adaptive wall time [s]",
          adaptive_compiled_entry["python_wall_time_s"]],
         ["speedup vs python adaptive",
          adaptive_compiled_entry["speedup_vs_python_adaptive"]]],
        title="Compiled adaptive-step march "
              "(ratcheted; >= 2x enforced when compiled)",
    ))

    service_entries = _bench_service_warm_envelope()
    cold_entry, warm_entry = service_entries
    print(format_table(
        ["metric", "value"],
        [["cold submission wall time [s]", cold_entry["wall_time_s"]],
         ["warm replay wall time [s]", warm_entry["wall_time_s"]],
         ["replay speedup", warm_entry["replay_speedup"]]],
        title="Service warm-start cache: envelope resubmission "
              "(ratcheted; >= 5x and bit-identity enforced)",
    ))

    payload = {
        "schema_version": 1,
        "bench": "speedup_table",
        "horizon_s": horizon,
        "methods": [
            # wall_time_retimed_s is the second, in-bench timing where a
            # separate retiming pass exists (the envelope) and the single
            # measurement otherwise, so check_regression compares the
            # same field across every method.
            {
                "name": "transient_50_pts_per_cycle",
                "steps": int(fig12_data["transient"][50]["steps"]),
                "wall_time_s": fig12_data["transient"][50]["time"],
                "wall_time_retimed_s": fig12_data["transient"][50]["time"],
                "phase_error_cycles":
                    fig12_data["transient"][50]["phase_error_cycles"],
            },
            {
                "name": "transient_100_pts_per_cycle",
                "steps": int(fig12_data["transient"][100]["steps"]),
                "wall_time_s": fig12_data["transient"][100]["time"],
                "wall_time_retimed_s": fig12_data["transient"][100]["time"],
                "phase_error_cycles":
                    fig12_data["transient"][100]["phase_error_cycles"],
            },
            {
                "name": "transient_1000_pts_per_cycle_reference",
                "steps": int(fig12_data["reference_steps"]),
                "wall_time_s": reference_time,
                "wall_time_retimed_s": reference_time,
                "phase_error_cycles": 0.0,
            },
            {
                "name": "transient_reference_compiled",
                "steps": int(fig12_data["reference_compiled_steps"]),
                "wall_time_s": compiled_time,
                "wall_time_retimed_s": compiled_time,
                "phase_error_cycles": 0.0,
                "kernel_mode": compiled_mode,
                "speedup_vs_python_reference": kernel_speedup,
            },
            {
                "name": "wampde_envelope",
                "steps": int(fig12_data["wampde"]["steps"]),
                "wall_time_s": wampde_time,
                "wall_time_retimed_s": retimer.elapsed,
                "phase_error_cycles":
                    fig12_data["wampde"]["phase_error_cycles"],
            },
            *ported,
            ensemble_entry,
            ensemble_compiled_entry,
            large_b_entry,
            adaptive_compiled_entry,
            *service_entries,
        ],
        "speedup_vs_accurate_ode": speedup,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (output_dir / "BENCH_speedup.json").write_text(text)
    BENCH_JSON.write_text(text)
