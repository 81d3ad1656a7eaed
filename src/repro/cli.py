"""Command-line interface: regenerate the paper's experiments from a shell.

Usage::

    python -m repro vco --variant vacuum     # Figs 7-9 series
    python -m repro vco --variant air        # Figs 10-11 series
    python -m repro fm                        # §3 signal-representation story
    python -m repro phase-error               # Fig 12 + speedup (slow)
    python -m repro info                      # calibration summary

Each command prints the same text tables the benchmark harness produces
and optionally writes CSV via ``--csv DIR``.

The CLI is a thin client over :mod:`repro.api`: each subcommand builds
the matching :class:`~repro.api.requests.AnalysisRequest` and executes
it through :func:`repro.api.run` — or through a
:class:`~repro.service.SimulationService` worker pool when ``--workers``
is given — so a shell invocation and a programmatic ``api.run(request)``
produce bit-identical results.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_solver_args(parser):
    """Attach the shared solver-core knobs to a subcommand parser."""
    parser.add_argument(
        "--newton", choices=("full", "chord"), default=None,
        help="Newton policy: 'chord' reuses one factorised Jacobian "
             "across iterations and envelope steps (engine default), "
             "'full' refactorises every iteration",
    )
    parser.add_argument(
        "--linear-solver", dest="linear_solver",
        choices=("lu", "gmres"), default=None,
        help="linear solver: direct sparse LU with factorisation reuse "
             "(default) or frozen-LU-preconditioned GMRES (large circuits)",
    )
    parser.add_argument(
        "--recovery", choices=("default", "extended"), default=None,
        help="solver recovery ladder: 'default' retries a failed solve "
             "with damped full Newton only, 'extended' escalates through "
             "Jacobian refresh, GMRES retry and pseudo-transient "
             "continuation before giving up",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="execute through the simulation service with N worker "
             "processes (default 0: run in-process; results are "
             "identical either way)",
    )


def _execute(args, request):
    """Run ``request`` through the unified API.

    In-process by default; through a :class:`SimulationService` worker
    pool when ``--workers N`` was given.  Requests that cannot cross the
    process boundary (closure factories) fall back to inline execution
    inside the service, so the output is the same either way.
    """
    from repro import api

    workers = int(getattr(args, "workers", 0) or 0)
    if workers <= 0:
        return api.run(request)
    from repro.service import SimulationService

    with SimulationService(workers=workers) as service:
        job = service.submit(request)
        return service.result(job.job_id)


def _envelope_options(args, **kwargs):
    """Build WampdeEnvelopeOptions from the shared solver-core flags."""
    from repro.wampde import WampdeEnvelopeOptions

    if args.newton == "chord" and args.linear_solver == "gmres":
        # The chord policy owns its own direct factorisation; an iterative
        # linear solver would silently demote it to full Newton.  Refuse
        # the explicit contradiction instead.
        raise SystemExit(
            "error: --newton chord cannot be combined with "
            "--linear-solver gmres (the chord policy factorises directly); "
            "drop one of the two flags"
        )
    options = WampdeEnvelopeOptions(**kwargs)
    if args.newton:
        options.newton_mode = args.newton
    if args.linear_solver:
        options.linear_solver = args.linear_solver
        if args.newton is None and args.linear_solver == "gmres":
            # GMRES implies full Newton; make the effective mode explicit
            # rather than relying on the core's silent demotion.  An
            # explicit "lu" is the default direct solver and keeps chord.
            options.newton_mode = "full"
    if getattr(args, "recovery", None):
        options.ladder = args.recovery
    if getattr(args, "checkpoint_every", 0):
        options.checkpoint_every = args.checkpoint_every
    if getattr(args, "checkpoint_path", None):
        options.checkpoint_path = args.checkpoint_path
    return options


def _print_solver_stats(stats):
    """Print the uniform SolverStats summary of a result's stats dict."""
    from repro.linalg.solver_core import SolverStats

    solver = (stats or {}).get("solver")
    if solver:
        print(f"solver: {SolverStats(**solver).summary()}")
    kernel = (stats or {}).get("kernel")
    if kernel and kernel.get("mode", "python") != "python":
        extra = ""
        if "compiled_steps" in kernel:
            extra = (f", {kernel['compiled_steps']} compiled / "
                     f"{kernel.get('python_steps', 0)} python step(s)")
        if kernel.get("reason"):
            # A mid-run handback: part of the march fell back to python.
            extra += f"; {kernel['reason']}"
        print(f"kernel: {kernel['mode']} "
              f"(requested {kernel.get('requested', 'auto')}, "
              f"compile {kernel.get('compile_time_s', 0.0):.3f}s{extra})")
    elif kernel and kernel.get("requested") != "python":
        # Never fall back to the slow path silently: say why the run
        # stayed python even when the user didn't ask for a backend.
        print(f"kernel: python ({kernel.get('reason', 'not eligible')})")
    recovery = (stats or {}).get("recovery")
    if recovery and recovery.get("escalated_solves"):
        rungs = ", ".join(
            f"{rung}x{count}"
            for rung, count in sorted(recovery["rung_counts"].items())
        )
        print(f"recovery: {recovery['escalated_solves']} escalated "
              f"solve(s), {recovery['total_attempts']} ladder attempt(s): "
              f"{rungs}")


def _cmd_info(args):
    """Print the calibrated VCO parameters and tuning anchors."""
    from repro.circuits.library import F_NOMINAL, T_NOMINAL, VcoParams
    from repro.utils import format_table

    for name, params in (("vacuum", VcoParams.vacuum()),
                         ("air", VcoParams.air())):
        rows = [
            ["tank inductance [H]", params.inductance],
            ["varactor C0 [F]", params.c0],
            ["negative conductance g1 [S]", params.g1],
            ["cubic coefficient g3 [S/V^2]", params.g3],
            ["plate mass [kg]", params.mass],
            ["spring constant [N/m]", params.stiffness],
            ["damping [N s/m]", params.damping],
            ["actuation gain [N/V^2]", params.force_gain],
            ["control offset / amplitude [V]",
             f"{params.control_offset} / {params.control_amplitude}"],
            ["control period [s]", params.control_period],
            ["static f(1.5 V) [MHz]", params.static_frequency(1.5) / 1e6],
        ]
        print(format_table(["parameter", "value"], rows,
                           title=f"MEMS VCO — {name} calibration"))
        print()
    print(f"nominal oscillation: {F_NOMINAL/1e6:.3f} MHz "
          f"(period {T_NOMINAL*1e6:.4f} us)")
    return 0


def _run_tuning_sweep(args):
    """Tuning-curve sweep over the control voltage (paper Figs 7/10 law).

    ``--ensemble`` (the default) settles every control voltage in one
    lock-step batched transient and refines each point with autonomous HB;
    ``--no-ensemble`` runs classic point-by-point continuation.  Prints
    the per-scenario SolverStats either way.
    """
    from dataclasses import replace

    from repro.api import SweepRequest
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.linalg.solver_core import SolverStats
    from repro.utils import format_table, write_csv

    if (args.newton or args.linear_solver or args.recovery
            or args.checkpoint_every or args.resume_from):
        # The sweep's solves are the batched ensemble chord loop plus
        # per-point HB with its own defaults; silently ignoring explicit
        # solver flags would be worse than refusing them.
        raise SystemExit(
            "error: --newton/--linear-solver/--recovery/"
            "--checkpoint-every/--resume-from configure the envelope run "
            "and are not supported with --sweep"
        )
    params = VcoParams.vacuum() if args.variant == "vacuum" else \
        VcoParams.air()
    values = np.linspace(args.sweep_min, args.sweep_max, args.sweep)

    def factory(vc):
        return MemsVcoDae(
            replace(params, control_offset=vc), constant_control=True
        )

    def stacked_factory(stack):
        return MemsVcoDae(
            replace(params, control_offset=np.asarray(stack)),
            constant_control=True,
        )

    method = "ensemble" if args.ensemble else "continuation"
    sweep = _execute(args, SweepRequest(
        dae_factory=factory, values=values, period_guess=T_NOMINAL,
        num_t1=args.num_t1, method=method,
        stacked_factory=stacked_factory,
        backend=getattr(args, "backend", None),
    ))
    print(format_table(
        ["Vc [V]", "frequency [MHz]", "amplitude [Vpp]"],
        [[v, f / 1e6, a] for v, f, a in
         zip(sweep.values, sweep.frequencies, sweep.amplitudes)],
        title=f"{args.variant} VCO tuning curve ({method}, "
              f"{values.size} points)",
    ))
    for value, stats in zip(sweep.values, sweep.solver_stats):
        print(f"scenario Vc={value:.3f} V: "
              f"{SolverStats(**stats).summary()}")
    if args.csv:
        path = write_csv(
            f"{args.csv}/vco_{args.variant}_tuning_sweep.csv",
            ["vc_v", "frequency_hz", "amplitude_vpp"],
            [sweep.values, sweep.frequencies, sweep.amplitudes],
        )
        print(f"wrote {path}")
    return 0


def _cmd_vco(args):
    """Run a WaMPDE envelope of the chosen VCO variant; print Fig 7/10."""
    from repro.api import EnvelopeRequest
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.utils import ascii_plot, format_table, write_csv

    if args.sweep:
        return _run_tuning_sweep(args)

    if args.variant == "vacuum":
        params, horizon, steps = VcoParams.vacuum(), 60e-6, 600
    else:
        params, horizon, steps = VcoParams.air(), 3e-3, 1200
    if args.horizon:
        horizon = float(args.horizon)
    if args.steps:
        steps = int(args.steps)

    # The request folds the paper's §4.1 initialisation (DC -> settle ->
    # autonomous HB) in with the envelope march; env.omega[0] is the
    # free-running frequency it found.
    env = _execute(args, EnvelopeRequest(
        dae=MemsVcoDae(params),
        t2_start=0.0, t2_stop=horizon, num_steps=steps,
        unforced_dae=MemsVcoDae(params, constant_control=True),
        num_t1=args.num_t1, period_guess=T_NOMINAL,
        options=_envelope_options(args),
        resume_from=args.resume_from,
    ))
    print(f"free-running: {env.omega[0]/1e6:.4f} MHz")
    _print_solver_stats(env.stats)

    idx = np.linspace(0, env.t2.size - 1, 13).astype(int)
    print(format_table(
        ["t2 [s]", "local frequency [MHz]"],
        [[env.t2[i], env.omega[i] / 1e6] for i in idx],
        title=f"{args.variant} VCO — local frequency "
              f"(paper Fig {'7' if args.variant == 'vacuum' else '10'})",
    ))
    print(ascii_plot(env.t2, env.omega / 1e6, ylabel="f [MHz]"))
    amplitude = env.bivariate("v(tank)").amplitude_vs_t2()
    print(f"amplitude variation: {amplitude.min():.3f}..{amplitude.max():.3f} V")
    if args.csv:
        path = write_csv(
            f"{args.csv}/vco_{args.variant}_frequency.csv",
            ["t2_s", "frequency_hz"], [env.t2, env.omega],
        )
        print(f"wrote {path}")
    return 0


def _cmd_fm(args):
    """Print the §3 representation-cost story (Figs 1-6)."""
    from repro.signals import (
        bivariate_sample_count,
        fm_unwarped_bivariate,
        fm_warped_bivariate,
        grid_undulation_count,
        reconstruction_error_two_tone,
        transient_sample_count,
    )
    from repro.signals.fm import F2_PAPER, K_PAPER
    from repro.utils import format_table

    t2 = np.linspace(0.0, 1.0 / F2_PAPER, 801, endpoint=False)
    unwarped = fm_unwarped_bivariate(0.0, t2[:, None]).reshape(-1, 1)
    warped = fm_warped_bivariate(np.linspace(0, 1, 31)[None, :],
                                 t2[:, None])
    rows = [
        ["two-tone: direct samples (Fig 1)", transient_sample_count()],
        ["two-tone: bivariate samples (Fig 2)", bivariate_sample_count()],
        ["two-tone: recovery error from 15x15",
         reconstruction_error_two_tone(15)],
        ["FM: xhat1 extrema along t2 (Fig 5)",
         grid_undulation_count(unwarped, axis=0)],
        ["FM: xhat2 extrema along t2 (Fig 6)",
         grid_undulation_count(warped, axis=0)],
        ["FM: k/(2 pi)", K_PAPER / (2 * np.pi)],
    ]
    print(format_table(["quantity", "value"], rows,
                       title="multi-time representation costs (paper §3)"))
    return 0


def _cmd_phase_error(args):
    """Fig 12 comparison + the speedup headline (takes ~1 minute)."""
    from repro.analysis import phase_error_vs_reference
    from repro.api import EnvelopeRequest, TransientRequest
    from repro.circuits.library import MemsVcoDae, T_NOMINAL, VcoParams
    from repro.transient import TransientOptions
    from repro.utils import WallTimer, format_table
    from repro.wampde import oscillator_initial_condition

    params = VcoParams.air()
    horizon = float(args.horizon) if args.horizon else 0.3e-3
    unforced = MemsVcoDae(params, constant_control=True)
    samples, f0 = oscillator_initial_condition(
        unforced, num_t1=25, period_guess=T_NOMINAL
    )
    forced = MemsVcoDae(params)

    with WallTimer() as ref_timer:
        reference = _execute(args, TransientRequest(
            dae=forced, x0=samples[0], t_start=0.0, t_stop=horizon,
            options=TransientOptions(integrator="trap", dt=T_NOMINAL / 1000),
        ))
    rows = []
    for pts in (50, 100):
        with WallTimer() as timer:
            run = _execute(args, TransientRequest(
                dae=forced, x0=samples[0], t_start=0.0, t_stop=horizon,
                options=TransientOptions(integrator="trap",
                                         dt=T_NOMINAL / pts),
            ))
        _t, err = phase_error_vs_reference(
            run.t, run["v(tank)"], reference.t, reference["v(tank)"]
        )
        rows.append([f"transient {pts}/cycle", timer.elapsed,
                     float(np.abs(err).max())])
    with WallTimer() as timer:
        env = _execute(args, EnvelopeRequest(
            dae=forced, t2_start=0.0, t2_stop=horizon,
            num_steps=max(int(120 * horizon / params.control_period), 40),
            initial_samples=samples, omega0=f0,
            options=_envelope_options(args),
        ))
    _print_solver_stats(env.stats)
    times = np.linspace(0.0, horizon, 40000)
    rec = env.reconstruct("v(tank)", times)
    _t, err = phase_error_vs_reference(
        times, rec, reference.t, reference["v(tank)"]
    )
    rows.append(["WaMPDE", timer.elapsed, float(np.abs(err).max())])
    rows.append(["transient 1000/cycle (reference)", ref_timer.elapsed, 0.0])
    print(format_table(
        ["method", "wall time [s]", "peak phase error [cycles]"], rows,
        title=f"Fig 12 over {horizon*1e3:.2f} ms",
    ))
    print(f"speedup at matched accuracy: {ref_timer.elapsed/timer.elapsed:.0f}x")
    return 0


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multi-Time Simulation of "
                    "Voltage-Controlled Oscillators' (DAC 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the calibrated VCO parameters")

    vco = sub.add_parser("vco", help="WaMPDE envelope of the paper's VCO")
    vco.add_argument("--variant", choices=("vacuum", "air"),
                     default="vacuum")
    vco.add_argument("--horizon", help="t2 window in seconds")
    vco.add_argument("--steps", help="number of t2 steps")
    vco.add_argument("--num-t1", dest="num_t1", type=int, default=25,
                     help="odd t1 sample count (harmonics = (N-1)/2)")
    vco.add_argument("--csv", help="directory for CSV output")
    vco.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="instead of the envelope, sweep the tuning curve over N "
             "control voltages and print per-scenario solver stats",
    )
    vco.add_argument(
        "--ensemble", action=argparse.BooleanOptionalAction, default=True,
        help="run the sweep through the lock-step ensemble path "
             "(--no-ensemble = point-by-point continuation)",
    )
    vco.add_argument(
        "--backend", choices=("auto", "numpy", "strict", "cupy"),
        default=None,
        help="array backend for the --sweep ensemble settle transient: "
             "'numpy' (host, the default), 'cupy' (GPU, when installed), "
             "'strict' (host numerics that reject implicit transfers), "
             "or 'auto' ($REPRO_XP or numpy)",
    )
    vco.add_argument("--sweep-min", type=float, default=0.4,
                     help="lowest swept control voltage [V]")
    vco.add_argument("--sweep-max", type=float, default=2.6,
                     help="highest swept control voltage [V]")
    vco.add_argument(
        "--checkpoint-every", dest="checkpoint_every", type=int, default=0,
        metavar="K",
        help="spool a resume checkpoint every K envelope steps "
             "(0 disables)",
    )
    vco.add_argument(
        "--checkpoint-path", dest="checkpoint_path", default=None,
        metavar="FILE",
        help="file the checkpoints are written to (atomically replaced)",
    )
    vco.add_argument(
        "--resume-from", dest="resume_from", default=None, metavar="FILE",
        help="resume an interrupted envelope run from a checkpoint file "
             "written by --checkpoint-path (same variant/horizon/steps)",
    )
    _add_solver_args(vco)

    sub.add_parser("fm", help="§3 signal-representation story")

    pe = sub.add_parser("phase-error", help="Fig 12 + speedup (slow)")
    pe.add_argument("--horizon", help="window in seconds (default 0.3 ms)")
    _add_solver_args(pe)

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "vco": _cmd_vco,
    "fm": _cmd_fm,
    "phase-error": _cmd_phase_error,
}


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
